package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"khist/internal/par"
)

// seedWithWord returns the seed of the stream whose output word k,
// counting from 0, is z.
func seedWithWord(z uint64, k int) uint64 { return par.Unmix(z) - par.Gamma*uint64(k+1) }

// The fused kernel's rare branches, reached by placing the word that
// takes them on the first, a middle and the last draw of a set: Int31n's
// rejection (and the last word it keeps) at n = 3, and Float64's
// resample (and the last word below it). Draw j reads word 2j for Intn
// and word 2j+1 for Float64 when no earlier draw redrew. Each set must
// equal the generic fork path's, which draws through math/rand.
func TestTabulateForkRareBranches(t *testing.T) {
	d, err := FromWeights([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(d, nil).(*aliasSampler)
	// Int31n(3) keeps v = word>>33 up to limit = 2^31-3 and redraws
	// 2^31-2 and 2^31-1.
	var intnWords []uint64
	for _, v := range []uint64{1<<31 - 3, 1<<31 - 2, 1<<31 - 1} {
		intnWords = append(intnWords, v<<33, v<<33|(1<<33-1))
	}
	// Float64 keeps word>>1 up to 2^63-2^9-1 and resamples from
	// 2^63-2^9 up, where the quotient rounds to 1.0: words from
	// 2^64-2^10, the first of them a tie that rounds up. On the last
	// draw a skipped resample shows only when the redrawn coin keeps a
	// split column's own outcome, so several resampled words are placed.
	floatWords := []uint64{math.MaxUint64 - 1<<10, math.MaxUint64 - 1<<10 + 1}
	for k := uint64(0); k < 8; k++ {
		floatWords = append(floatWords, math.MaxUint64-k<<7)
	}
	const m = 101
	for _, c := range []struct {
		name   string
		words  []uint64
		offset int // 0 places the Intn word, 1 the Float64 word
	}{{"Int31n", intnWords, 0}, {"Float64", floatWords, 1}} {
		for _, j := range []int{0, m / 2, m - 1} {
			for _, w := range c.words {
				name := fmt.Sprintf("%s word %#x at draw %d", c.name, w, j)
				seed := seedWithWord(w, 2*j+c.offset)
				// The word must land where it was placed under
				// math/rand's own draw sequence.
				src := par.NewSource(seed)
				r := rand.New(src)
				for k := 0; k < j; k++ {
					r.Intn(s.n)
					r.Float64()
				}
				if c.offset == 1 {
					r.Intn(s.n)
				}
				if got := src.Uint64(); got != w {
					t.Fatalf("%s: placed word is %#x", name, got)
				}
				got := NewEmpiricalFromFork(s, seed, m)
				want := NewEmpiricalFromSampler(s.Fork(seed), m)
				if got.m != want.m || !slices.Equal(got.occ, want.occ) {
					t.Errorf("%s: kernel counts %v, fork path %v", name, got.occ, want.occ)
				}
			}
		}
	}
}

// aliasPick must be the comparison f < p, on the cases where a sign
// test could go wrong: equal operands, the table's extreme
// probabilities 0 and 1, f = 0, neighbouring doubles and subnormals.
func TestAliasPick(t *testing.T) {
	const i, alt = 1, 2
	tiny := math.SmallestNonzeroFloat64
	half := math.Nextafter(0.5, 1)
	for _, c := range []struct {
		name string
		f, p float64
		want int
	}{
		{"f == p", 0.5, 0.5, alt},
		{"f == p subnormal", 3 * tiny, 3 * tiny, alt},
		{"p = 0, f = 0", 0, 0, alt},
		{"p = 0", 0.25, 0, alt},
		{"p = 1, f = 0", 0, 1, i},
		{"p = 1, largest f", 1 - 0x1p-53, 1, i},
		{"f = 0", 0, 0.5, i},
		{"f = 0, p subnormal", 0, tiny, i},
		{"f one ulp below p", 0.5, half, i},
		{"f one ulp above p", half, 0.5, alt},
		{"subnormal f one ulp below p", 2 * tiny, 3 * tiny, i},
		{"subnormal f one ulp above p", 3 * tiny, 2 * tiny, alt},
	} {
		got := aliasPick(c.f, c.p, i, alt)
		if got != c.want {
			t.Errorf("%s: aliasPick(%v, %v) = %d, want %d", c.name, c.f, c.p, got, c.want)
		}
		if lt := c.f < c.p; lt != (got == i) {
			t.Errorf("%s: aliasPick(%v, %v) = %d, but f < p is %v", c.name, c.f, c.p, got, lt)
		}
	}
}

// remainder31 must be v % n over the whole Int31n domain, past the
// n <= 65536 that the kernel's equivalence tests can tabulate.
func TestRemainder31(t *testing.T) {
	rng := par.NewRand(1)
	ns := []uint64{1, 2, 3, 255, 256, 300, 1<<20 + 7, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1}
	for k := 0; k < 100; k++ {
		ns = append(ns, uint64(rng.Int31n(1<<31-1))+1)
	}
	for _, n := range ns {
		recip := ^uint64(0)/n + 1
		vs := []uint64{0, 1, n - 1, n, 1<<31 - 1 - (1<<31)%n, 1<<31 - 1}
		for k := 0; k < 1000; k++ {
			vs = append(vs, uint64(rng.Int31()))
		}
		for _, v := range vs {
			if got := remainder31(v, n, recip); got != v%n {
				t.Fatalf("remainder31(%d, %d) = %d, want %d", v, n, got, v%n)
			}
		}
	}
}
