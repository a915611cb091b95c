package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"khist/internal/dist"
)

// golden2DDigest is the SHA-256 of every result in learner2DDigest's
// matrix. Any change to the 2D learner's arithmetic, tie-breaking,
// coordinate sets or accounting moves it; a pure speedup must not.
const golden2DDigest = "7f46b250474d5c5e2a8b165dfcf69bae007934479c56214c23fb3564b132d3f4"

// golden2DGrids returns the matrix's grids: the sweep workload's 16x16
// rect grid (K 3), two non-square rect grids, a uniform grid and a point
// mass on one interior cell.
func golden2DGrids() []*Grid {
	spike := make([]float64, 9*11)
	spike[4*11+6] = 1
	point, err := FromWeights2D(9, 11, spike)
	if err != nil {
		panic(err)
	}
	return []*Grid{
		RandomRectHistogram(16, 16, 3, rand.New(rand.NewSource(1))),
		RandomRectHistogram(8, 32, 4, rand.New(rand.NewSource(2))),
		RandomRectHistogram(33, 7, 2, rand.New(rand.NewSource(3))),
		Uniform2D(12, 10),
		point,
	}
}

// learner2DDigest runs the golden matrix and returns its hex digest:
// every golden2DGrids grid, tabulated once from 3000 fused-kernel draws,
// under K 1..4, eps 0.25 and 0.1, MaxCoords 0 (the default 48) and 5
// (thinned) and Parallelism 1, 2 and 3. Each run hashes its rectangles'
// bounds and value bits, CandidatesScanned and Iterations.
func learner2DDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for gi, g := range golden2DGrids() {
		s := dist.NewSampler(g.Flatten(), nil).(dist.Forkable)
		emp, err := NewEmpirical2DFromCounts(g.Rows(), g.Cols(), dist.NewEmpiricalFromFork(s, uint64(gi+1), 3000))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			for _, eps := range []float64{0.25, 0.1} {
				for _, maxCoords := range []int{0, 5} {
					for par := 1; par <= 3; par++ {
						res, err := Greedy2DFromTabulated(emp, Options2D{
							Rows: g.Rows(), Cols: g.Cols(), K: k, Eps: eps,
							MaxCoords: maxCoords, Parallelism: par,
						})
						if err != nil {
							t.Fatalf("grid %d k=%d eps=%v max_coords=%d par=%d: %v", gi, k, eps, maxCoords, par, err)
						}
						entries := res.Hist.Entries()
						put(uint64(len(entries)))
						for _, e := range entries {
							put(uint64(e.R.X0))
							put(uint64(e.R.Y0))
							put(uint64(e.R.X1))
							put(uint64(e.R.Y1))
							put(math.Float64bits(e.V))
						}
						put(uint64(res.CandidatesScanned))
						put(uint64(res.Iterations))
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGolden2DDigest pins the 2D learner's output bit for bit. It runs
// only on amd64, as the 1D learner's digest does: Go never fuses a
// multiply and an add there.
func TestGolden2DDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	if got := learner2DDigest(t); got != golden2DDigest {
		t.Errorf("2D learner digest = %s, want %s", got, golden2DDigest)
	}
}
