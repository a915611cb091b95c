package collision

import (
	"bytes"
	"fmt"
	"testing"

	"khist/internal/dist"
	"khist/internal/par"
)

// forkOnly exposes only the Forkable methods of the sampler it wraps,
// so CollectSetsSized takes the generic fork path on it: each set drawn
// by Fork(seed) into a sample slice, then tabulated from that slice.
type forkOnly struct{ dist.Forkable }

// sameEmpirical reports the first difference between two tabulations
// in occurrence counts, prefix sums, sample count or fingerprint.
func sameEmpirical(got, want *dist.Empirical) error {
	if got.N() != want.N() || got.M() != want.M() {
		return fmt.Errorf("shape (n=%d, m=%d), want (n=%d, m=%d)", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if got.Occ(v) != want.Occ(v) {
			return fmt.Errorf("occ(%d) = %d, want %d", v, got.Occ(v), want.Occ(v))
		}
	}
	for v := 0; v <= want.N(); v++ {
		iv := dist.Interval{Lo: 0, Hi: v}
		if got.Hits(iv) != want.Hits(iv) || got.SelfCollisions(iv) != want.SelfCollisions(iv) {
			return fmt.Errorf("prefix [0,%d): hits %d coll %d, want hits %d coll %d",
				v, got.Hits(iv), got.SelfCollisions(iv), want.Hits(iv), want.SelfCollisions(iv))
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("fingerprint %016x, want %016x", got.Fingerprint(), want.Fingerprint())
	}
	return nil
}

// forkTestShape returns one of three shapes over [n] by seed: skewed,
// flat, and an uneven histogram, so the alias tables hold both kinds of
// column.
func forkTestShape(n int, seed uint64) *dist.Distribution {
	switch seed % 3 {
	case 0:
		return dist.Zipf(n, 1.1)
	case 1:
		return dist.Uniform(n)
	default:
		return dist.RandomKHistogram(n, min(n, 5), par.NewRand(seed))
	}
}

// On an alias sampler CollectSetsSized counts draws straight into each
// set; it must equal the generic fork path set by set, at every worker
// count, for equal and ragged set sizes, empty sets included. The sets
// drawn at one worker are checked in full against the fork path; those
// drawn at two and four must encode to the same bytes (n, m and every
// count) as the one-worker sets.
func TestCollectSetsSizedAliasMatchesForkPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 256, 300, 4096, 65536} {
		for seed := uint64(0); seed < 20; seed++ {
			s := dist.NewSampler(forkTestShape(n, seed), par.NewRand(seed)).(dist.Forkable)
			rng := par.NewRand(par.Split(seed, n))
			ragged := make([]int, 1+rng.Intn(6))
			for i := range ragged {
				ragged[i] = rng.Intn(3000)
			}
			for _, sizes := range [][]int{{0, 1, 2, 1000, 5000}, ragged} {
				want := CollectSetsSized(forkOnly{s}, sizes, 1, seed)
				serial := CollectSetsSized(s, sizes, 1, seed)
				for i := range sizes {
					if err := sameEmpirical(serial[i], want[i]); err != nil {
						t.Fatalf("n=%d seed=%d sizes=%v set %d: %v", n, seed, sizes, i, err)
					}
				}
				for _, workers := range []int{2, 4} {
					got := CollectSetsSized(s, sizes, workers, seed)
					for i := range sizes {
						if !bytes.Equal(got[i].AppendBinary(nil), serial[i].AppendBinary(nil)) {
							t.Fatalf("n=%d seed=%d sizes=%v workers=%d set %d differs from one worker", n, seed, sizes, workers, i)
						}
					}
				}
			}
		}
	}
}
