package learn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"khist/internal/dist"
)

// goldenDigest is the SHA-256 of every result in learnerDigest's matrix.
// Any change to the learner's arithmetic, tie-breaking, endpoint set or
// sample accounting moves it; a pure speedup must not.
const goldenDigest = "166bd8bdf164f0a634d6e94a8231c7d64e778ca363a2d07b957b4f9c0ea5c8a2"

// goldenShapes returns the matrix's five source shapes over [n]: uniform,
// Zipf, an exact k-histogram, a perturbed one, and a spike on a uniform
// floor.
func goldenShapes(n int) []*dist.Distribution {
	exact := dist.RandomKHistogram(n, min(3, n), rand.New(rand.NewSource(int64(n))))
	spike := make([]float64, n)
	for i := range spike {
		spike[i] = 1
	}
	spike[n/3] = float64(n)
	spiked, err := dist.FromWeights(spike)
	if err != nil {
		panic(err)
	}
	return []*dist.Distribution{
		dist.Uniform(n),
		dist.Zipf(n, 1.1),
		exact,
		dist.PerturbMultiplicative(exact, 0.3, rand.New(rand.NewSource(int64(n)+1))),
		spiked,
	}
}

// hashResult folds everything a learner run reports into h: the tiling
// bounds and value bits, the candidate count, the iteration count and
// the samples drawn.
func hashResult(h hash.Hash, res *Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bounds, values := res.Tiling.Bounds(), res.Tiling.Values()
	put(uint64(len(bounds)))
	for _, b := range bounds {
		put(uint64(b))
	}
	for _, v := range values {
		put(math.Float64bits(v))
	}
	put(uint64(res.CandidatesScanned))
	put(uint64(res.Iterations))
	put(uint64(res.SamplesUsed))
}

// learnerDigest runs the golden matrix and returns its hex digest:
// n in {2, 3, 17, 64, 256, 300} (odd and even collision-set counts r),
// every goldenShapes shape, k in {1, 2, 4}, eps in {0.3, 0.2}, fast and
// full, with Parallelism cycling through 1..3; then FromSamples on
// ragged collision sets in odd and even set counts.
func learnerDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	run := 0
	for _, n := range []int{2, 3, 17, 64, 256, 300} {
		for si, d := range goldenShapes(n) {
			for _, k := range []int{1, 2, 4} {
				for _, eps := range []float64{0.3, 0.2} {
					for _, fast := range []bool{true, false} {
						run++
						opts := Options{
							K: k, Eps: eps, SampleScale: 0.05, MaxSamplesPerSet: 350,
							Parallelism: 1 + run%3,
							Rand:        rand.New(rand.NewSource(int64(run))),
						}
						s := dist.NewSampler(d, rand.New(rand.NewSource(int64(1000*n+si))))
						learnFn := Greedy
						if fast {
							learnFn = FastGreedy
						}
						res, err := learnFn(s, opts)
						if err != nil {
							t.Fatalf("n=%d shape=%d k=%d eps=%v fast=%t: %v", n, si, k, eps, fast, err)
						}
						hashResult(h, res)
					}
				}
			}
		}
	}
	for _, n := range []int{3, 64, 256} {
		d := goldenShapes(n)[3]
		s := dist.NewSampler(d, rand.New(rand.NewSource(int64(n))))
		for _, r := range []int{5, 6} {
			weights := dist.Draw(s, 300)
			sets := make([][]int, r)
			for j := range sets {
				sets[j] = dist.Draw(s, 40+37*j)
			}
			for _, fast := range []bool{true, false} {
				run++
				opts := Options{K: 3, Eps: 0.2, Parallelism: 1 + run%3}
				res, err := FromSamples(n, weights, sets, opts, fast)
				if err != nil {
					t.Fatalf("FromSamples n=%d r=%d fast=%t: %v", n, r, fast, err)
				}
				hashResult(h, res)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenLearnerDigest pins the learner's output bit for bit, with
// the cost table at its real cap and lowered so that rows are partly or
// not at all tabled: evaluated-on-read rows must hash the same. It runs
// only on amd64, where Go never fuses a multiply and an add: elsewhere
// the compiler may, and the last bits of a cost can legitimately differ.
func TestGoldenLearnerDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	defer func(saved int) { costTableBytes = saved }(costTableBytes)
	for _, capBytes := range []int{maxCostTableBytes, 64 << 10, 1 << 10, 0} {
		costTableBytes = capBytes
		if got := learnerDigest(t); got != goldenDigest {
			t.Errorf("table cap %d bytes: learner digest = %s, want %s", capBytes, got, goldenDigest)
		}
	}
}
