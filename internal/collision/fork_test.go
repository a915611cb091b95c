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

// forkTestShape returns one of four shapes over [n] by seed: skewed,
// flat, an uneven histogram and a comb, so the alias tables hold full
// columns, split columns and columns of probability 0.
func forkTestShape(n int, seed uint64) *dist.Distribution {
	switch seed % 4 {
	case 0:
		return dist.Zipf(n, 1.1)
	case 1:
		return dist.Uniform(n)
	case 2:
		return dist.RandomKHistogram(n, min(n, 5), par.NewRand(seed))
	default:
		return comb(n)
	}
}

// comb returns equal spikes on the even values below n/4 (on 0 alone
// when n < 8) and probability 0 everywhere else: the shape of the comb
// generator and of ingest_mix's odd streams.
func comb(n int) *dist.Distribution {
	w := make([]float64, n)
	for v := 0; v < max(n/4, 1); v += 2 {
		w[v] = 1
	}
	d, err := dist.FromWeights(w)
	if err != nil {
		panic(err)
	}
	return d
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

// CollectSetsNear must return CollectSetsSized's sets whatever near sets
// it is given, at every worker count: sets of the same streams that are
// larger, smaller or as large (a trim, an extension or a copy), nil
// entries, a near slice shorter than sizes, and sets of other streams.
// It must draw exactly what each set's derivation draws, and everything
// on a sampler that is no alias sampler.
func TestCollectSetsNearMatchesSized(t *testing.T) {
	for _, n := range []int{1, 3, 256, 300, 4096} {
		for seed := uint64(0); seed < 8; seed++ {
			s := dist.NewSampler(forkTestShape(n, seed), par.NewRand(seed)).(dist.Forkable)
			rng := par.NewRand(par.Split(seed, n))
			sizes := make([]int, 2+rng.Intn(12))
			nearSizes := make([]int, len(sizes)-1)
			for i := range sizes {
				sizes[i] = rng.Intn(2500)
				if i < len(nearSizes) {
					nearSizes[i] = max(0, sizes[i]+rng.Intn(41)-20)
				}
			}
			want := CollectSetsSized(s, sizes, 1, seed)
			near := CollectSetsSized(s, nearSizes, 1, seed)
			near[0] = nil
			other := CollectSetsSized(s, sizes, 1, seed+1)
			for _, c := range []struct {
				name string
				near []*dist.Empirical
			}{{"siblings", near}, {"other streams", other}, {"none", nil}} {
				var wantDrawn int64
				for i, m := range sizes {
					k := m
					if i < len(c.near) && c.name == "siblings" {
						k = c.near[i].DeriveDraws(m)
					}
					wantDrawn += int64(k)
				}
				for _, workers := range []int{1, 2, 4} {
					got, drawn := CollectSetsNear(s, sizes, workers, seed, c.near)
					for i := range sizes {
						if err := sameEmpirical(got[i], want[i]); err != nil {
							t.Fatalf("n=%d seed=%d %s workers=%d set %d: %v", n, seed, c.name, workers, i, err)
						}
					}
					if drawn != wantDrawn {
						t.Fatalf("n=%d seed=%d %s workers=%d: drew %d samples, want %d", n, seed, c.name, workers, drawn, wantDrawn)
					}
				}
			}
			// The generic fork path and a sampler that cannot fork draw
			// every set in full, whatever the near sets.
			var total int64
			for _, m := range sizes {
				total += int64(m)
			}
			for name, mk := range map[string]func() dist.Sampler{
				"generic fork": func() dist.Sampler { return forkOnly{s} },
				"no fork": func() dist.Sampler {
					return dist.NewCountingSampler(dist.NewSampler(forkTestShape(n, seed), par.NewRand(seed)))
				},
			} {
				want := CollectSetsSized(mk(), sizes, 2, seed)
				got, drawn := CollectSetsNear(mk(), sizes, 2, seed, near)
				for i := range sizes {
					if err := sameEmpirical(got[i], want[i]); err != nil {
						t.Fatalf("n=%d seed=%d %s set %d: %v", n, seed, name, i, err)
					}
				}
				if drawn != total {
					t.Fatalf("n=%d seed=%d %s: drew %d samples, want all %d", n, seed, name, drawn, total)
				}
			}
		}
	}
}
