package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"khist/internal/par"
)

// deriveTestShape returns one of four shapes over [n] by seed: skewed,
// flat, an uneven histogram and a comb, so the alias tables hold full
// columns, split columns and columns of probability 0.
func deriveTestShape(n int, seed uint64) *Distribution {
	switch seed % 4 {
	case 0:
		return Zipf(n, 1.1)
	case 1:
		return Uniform(n)
	case 2:
		return RandomKHistogram(n, min(n, 5), par.NewRand(seed))
	default:
		w := make([]float64, n)
		for v := 0; v < max(n/4, 1); v += 2 {
			w[v] = 1
		}
		return mustFromWeights(w)
	}
}

// sameSet reports the first difference between two tabulations: domain,
// sample count, occurrence counts, prefix sums, fingerprint or draw
// marker.
func sameSet(got, want *Empirical) error {
	switch {
	case got.n != want.n || got.m != want.m:
		return fmt.Errorf("shape (n=%d, m=%d), want (n=%d, m=%d)", got.n, got.m, want.n, want.m)
	case !slices.Equal(got.occ, want.occ):
		return fmt.Errorf("occurrence counts differ")
	case !slices.Equal(got.cumHits, want.cumHits) || !slices.Equal(got.cumColl, want.cumColl):
		return fmt.Errorf("prefix sums differ")
	case got.Fingerprint() != want.Fingerprint():
		return fmt.Errorf("fingerprint %016x, want %016x", got.Fingerprint(), want.Fingerprint())
	case got.fork != want.fork:
		return fmt.Errorf("draw marker %+v, want %+v", got.fork, want.fork)
	case got.SizeBytes() != want.SizeBytes():
		return fmt.Errorf("SizeBytes %d, want %d", got.SizeBytes(), want.SizeBytes())
	}
	return nil
}

// wantDraws is the samples a derivation of m draws from a redraw-free
// set of from draws makes: the difference, or m when that is no less.
func wantDraws(from, m int) int {
	d := m - from
	if d < 0 {
		d = -d
	}
	return min(d, m)
}

// A set built from a cached set of the same stream must equal a fresh
// draw of its size in every field, draw marker included, whichever way
// it goes: extended, trimmed, the same size, or drawn afresh because
// the difference is no smaller than the size. Derived sets seed further
// derivations, so a chain of them is checked too. It must draw exactly
// the difference.
func TestDeriveMatchesFreshDraw(t *testing.T) {
	sizes := []int{0, 1, 2, 350, 1986, 2000, 2010}
	// A walk that trims and extends in turn, through both ends.
	chain := []int{350, 2000, 1986, 2010, 2, 1, 0, 1986, 350, 2000}
	for _, n := range []int{1, 2, 3, 255, 256, 300, 4096, 65536} {
		for seed := uint64(0); seed < 20; seed++ {
			s := NewSampler(deriveTestShape(n, seed), nil).(*aliasSampler)
			stream := par.Split(seed, n)
			fresh := make(map[int]*Empirical, len(sizes))
			for _, m := range sizes {
				fresh[m] = NewEmpiricalFromFork(s, stream, m)
			}
			for _, from := range sizes {
				for _, m := range sizes {
					got, drawn := NewEmpiricalFromForkNear(s, stream, m, fresh[from])
					if err := sameSet(got, fresh[m]); err != nil {
						t.Fatalf("n=%d seed=%d %d -> %d: %v", n, seed, from, m, err)
					}
					if want := wantDraws(from, m); drawn != want || fresh[from].DeriveDraws(m) != want {
						t.Fatalf("n=%d seed=%d %d -> %d: drew %d (DeriveDraws %d), want %d",
							n, seed, from, m, drawn, fresh[from].DeriveDraws(m), want)
					}
				}
			}
			var prev *Empirical
			for step, m := range chain {
				got, _ := NewEmpiricalFromForkNear(s, stream, m, prev)
				if err := sameSet(got, fresh[m]); err != nil {
					t.Fatalf("n=%d seed=%d chain step %d (%d samples): %v", n, seed, step, m, err)
				}
				prev = got
			}
		}
	}
}

// Only a set the fused kernel drew on the same stream and domain seeds
// a derivation: a set tabulated from samples or counts, decoded from a
// peer's bytes or drawn on another stream is never read, and the set
// is drawn afresh.
func TestDeriveNeedsMarkedSetOfSameStream(t *testing.T) {
	const n, m = 256, 2000
	s := NewSampler(Zipf(n, 1.1), nil).(*aliasSampler)
	const stream = 77
	near := NewEmpiricalFromFork(s, stream, m-10)
	want := NewEmpiricalFromFork(s, stream, m)
	decoded, err := DecodeEmpiricalBundle(EncodeEmpiricalBundle([]*Empirical{near}), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := NewSampler(Zipf(n+1, 1.1), nil).(*aliasSampler)
	for _, c := range []struct {
		name string
		near *Empirical
	}{
		{"nil", nil},
		{"decoded from the wire", decoded[0]},
		{"tabulated from counts", NewEmpiricalFromCounts(near.occ)},
		{"tabulated from samples", NewEmpiricalFromSampler(s.Fork(stream), m-10)},
		{"another stream", NewEmpiricalFromFork(s, stream+1, m-10)},
		{"another domain", NewEmpiricalFromFork(other, stream, m-10)},
	} {
		got, drawn := NewEmpiricalFromForkNear(s, stream, m, c.near)
		if err := sameSet(got, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if drawn != m {
			t.Errorf("%s: drew %d samples, want a fresh draw of %d", c.name, drawn, m)
		}
	}
	if _, drawn := NewEmpiricalFromForkNear(s, stream, m, near); drawn != 10 {
		t.Errorf("marked set of the same stream: drew %d samples, want 10", drawn)
	}
}

// Derivations across the kernel's rare branches, reached by placing the
// word that takes them (as in TestTabulateForkRareBranches) on draw j of
// a set: Int31n's rejection at n = 3 and Float64's resample. An
// extension that passes over the redraw, and one from a set that holds
// it, must equal the fresh draw and the generic fork path. A trim from
// a set that holds the redraw cannot place its draws, so it must draw
// afresh, whether the redraw lies in the part kept or the part cut.
func TestDeriveRareBranches(t *testing.T) {
	d, err := FromWeights([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(d, nil).(*aliasSampler)
	const j = 60
	for _, c := range []struct {
		name   string
		word   uint64
		offset int // 0 places the Intn word, 1 the Float64 word
	}{
		{"Int31n", (1<<31 - 1) << 33, 0},
		{"Float64", math.MaxUint64 - 1<<10 + 1, 1}, // the first word whose Float64 rounds to 1.0
	} {
		seed := seedWithWord(c.word, 2*j+c.offset)
		fork := func(m int) *Empirical { return NewEmpiricalFromSampler(s.Fork(seed), m) }
		fresh := func(m int) *Empirical {
			e := NewEmpiricalFromFork(s, seed, m)
			if !slices.Equal(e.occ, fork(m).occ) {
				t.Fatalf("%s: kernel and fork path differ at %d samples", c.name, m)
			}
			return e
		}
		if before, after := fresh(j), fresh(j+1); before.DeriveDraws(j-5) != 5 || after.DeriveDraws(j-5) != j-5 {
			t.Fatalf("%s: the word at draw %d is not a redraw", c.name, j)
		}
		for _, p := range []struct {
			from, to  int
			wantDrawn int
		}{
			{j - 10, j + 10, 20},     // extend over the redraw
			{j, j + 1, 1},            // extend into it
			{j + 1, j + 30, 29},      // extend from a set holding it
			{2 * j, 2*j + 50, 50},    // extend well past it
			{j - 40, 2 * j, j + 40},  // extend far over it
			{j + 10, j + 5, j + 5},   // trim a set holding it; the redraw is kept
			{j + 10, j - 5, j - 5},   // trim; the redraw is cut
			{j + 1, j, j},            // trim just the redrawn draw
			{2*j + 50, 2 * j, 2 * j}, // trim far past it
			{j - 30, j - 40, 10},     // trim before the redraw
			{j + 40, j + 40, 0},      // same size: a copy, exact with or without a redraw
			{j - 40, j - 40, 0},      // same size, redraw-free
		} {
			name := fmt.Sprintf("%s %d -> %d", c.name, p.from, p.to)
			near := fresh(p.from)
			got, drawn := NewEmpiricalFromForkNear(s, seed, p.to, near)
			if err := sameSet(got, fresh(p.to)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if !slices.Equal(got.occ, fork(p.to).occ) {
				t.Errorf("%s: derived counts differ from the fork path", name)
			}
			if drawn != p.wantDrawn {
				t.Errorf("%s: drew %d samples, want %d", name, drawn, p.wantDrawn)
			}
		}
	}
}
