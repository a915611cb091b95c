package collision

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortMedian is the reference the selection median must match: sort a
// copy, take the middle element or the mean of the two middle ones.
func sortMedian(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// randomSlice returns n values drawn to stress selection: many ties, runs
// of zeros, already sorted and reversed inputs, and collision-estimate
// ratios whose neighbours differ in the last bits.
func randomSlice(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	switch rng.Intn(5) {
	case 0: // heavy ties around zero
		for i := range vals {
			vals[i] = float64(rng.Intn(3))
		}
	case 1: // collision ratios c / C(m, 2) with a shared denominator
		m := float64(2 + rng.Intn(400))
		denom := m * (m - 1) / 2
		for i := range vals {
			vals[i] = float64(rng.Intn(40)) / denom
		}
	case 2: // sorted, with zeros in front
		for i := range vals {
			vals[i] = math.Max(0, float64(i-n/4)) * 0.1
		}
	case 3: // reversed
		for i := range vals {
			vals[i] = float64(n - i)
		}
	default: // continuous, mixed signs
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
	}
	return vals
}

// The selection median equals the sort-based median bit for bit on odd
// and even lengths 1..300, and Median leaves its argument untouched.
func TestMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(300)
		vals := randomSlice(rng, n)
		orig := append([]float64(nil), vals...)
		want := sortMedian(vals)
		if got := Median(vals); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Median = %v, sort reference = %v (%v)", n, got, want, orig)
		}
		if !slices.Equal(vals, orig) {
			t.Fatalf("n=%d: Median modified its argument", n)
		}
		if got := MedianInPlace(vals); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: MedianInPlace = %v, sort reference = %v (%v)", n, got, want, orig)
		}
	}
}
