package learn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"khist/internal/collision"
	"khist/internal/dist"
)

// refCost is the interval cost straight from its definition:
// c(I) = z_I - y_I^2/|I|, with z the median second-moment estimate.
func refCost(es *estimator, iv dist.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	y := es.weights.FractionIn(iv)
	return collision.MedianSecondMoment(es.sets, iv) - y*y/float64(iv.Len())
}

// Every table entry, stored or evaluated on read, equals refCost bit for
// bit: equal and ragged set sizes, odd and even set counts, and more sets
// than the kernel's stack scratch holds.
func TestCostTableMatchesDefinition(t *testing.T) {
	defer func(saved int) { costTableBytes = saved }(costTableBytes)
	rng := rand.New(rand.NewSource(7))
	d := dist.PerturbMultiplicative(dist.RandomKHistogram(40, 4, rng), 0.4, rng)
	s := dist.NewSampler(d, rng)
	for _, r := range []int{1, 2, 5, 6, maxStackSets + 3} {
		for _, ragged := range []bool{false, true} {
			sets := make([]*dist.Empirical, r)
			for j := range sets {
				m := 60
				if ragged {
					m += 7 * j
				}
				sets[j] = dist.NewEmpiricalFromSampler(s, m)
			}
			es := &estimator{weights: dist.NewEmpiricalFromSampler(s, 200), sets: sets}
			ends := candidateEndpoints(es.weights, 40)
			for _, capBytes := range []int{maxCostTableBytes, 8 * len(ends), 0} {
				costTableBytes = capBytes
				tab := newCostTable(es, ends, 2)
				buf := make([]float64, len(ends))
				for i := range ends {
					row := tab.row(i, buf)
					for j := i; j < len(ends); j++ {
						want := refCost(es, tab.interval(i, j))
						got := tab.cost(i, j)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("r=%d ragged=%t cap=%d: cost(%d, %d) = %v, want %v",
								r, ragged, capBytes, i, j, got, want)
						}
						if j > i && math.Float64bits(row[j-i-1]) != math.Float64bits(want) {
							t.Fatalf("r=%d ragged=%t cap=%d: row(%d)[%d] = %v, want %v",
								r, ragged, capBytes, i, j-i-1, row[j-i-1], want)
						}
					}
				}
			}
		}
	}
}

// The cap admits whole rows, in order, and never more bytes than it
// names.
func TestCostTableCap(t *testing.T) {
	defer func(saved int) { costTableBytes = saved }(costTableBytes)
	rng := rand.New(rand.NewSource(8))
	s := dist.NewSampler(dist.Uniform(30), rng)
	es := &estimator{
		weights: dist.NewEmpiricalFromSampler(s, 100),
		sets:    []*dist.Empirical{dist.NewEmpiricalFromSampler(s, 50)},
	}
	ends := make([]int, 31)
	for i := range ends {
		ends[i] = i
	}
	for _, tc := range []struct{ capBytes, rows int }{
		{maxCostTableBytes, 30}, // all 465 entries
		{8 * (30 + 29), 2},
		{8*(30+29) - 1, 1},
		{8 * 29, 0},
		{0, 0},
	} {
		costTableBytes = tc.capBytes
		tab := newCostTable(es, ends, 1)
		if tab.tabled != tc.rows || 8*len(tab.flat) > tc.capBytes {
			t.Errorf("cap %d bytes: %d rows in %d bytes, want %d rows", tc.capBytes, tab.tabled, 8*len(tab.flat), tc.rows)
		}
	}
}

// kernelCase is one set layout for TestCostTableKernelCases.
type kernelCase struct {
	name string
	sets []*dist.Empirical
}

// kernelCases returns the cost kernel's edge cases over [n] (n >= 40):
// equal and ragged set sizes at set counts on both sides of the change
// masks' word boundaries and past the stack scratch; identical sets,
// whose estimates tie at every entry; a set whose count never changes
// because its samples are distinct; sets too small to estimate, alone
// and beside others; and layouts placed with craftedSet for the median's
// moves: four sets of the lower half jump above the rest at one endpoint,
// so the median passes several distinct values in one step; every
// estimate stays 0 for a stretch of a row; and even set counts whose two
// middle values are equal, differ, or change between the two.
func kernelCases(s dist.Sampler, n int) []kernelCase {
	var cases []kernelCase
	for _, r := range []int{1, 2, 13, 63, 64, 65, maxStackSets + 3} {
		for _, ragged := range []bool{false, true} {
			sets := make([]*dist.Empirical, r)
			for j := range sets {
				m := 60
				if ragged {
					m += 7 * j
				}
				sets[j] = dist.NewEmpiricalFromSampler(s, m)
			}
			cases = append(cases, kernelCase{fmt.Sprintf("r=%d/ragged=%t", r, ragged), sets})
		}
	}
	a, b := dist.NewEmpiricalFromSampler(s, 60), dist.NewEmpiricalFromSampler(s, 60)
	big := dist.NewEmpiricalFromSampler(s, 90)
	distinct := make([]int, n)
	for v := range distinct {
		distinct[v] = v
	}
	flat := dist.NewEmpirical(distinct, n)
	flatMate := dist.NewEmpiricalFromSampler(s, n)
	tiny := dist.NewEmpirical([]int{n / 2}, n)
	return append(cases,
		kernelCase{"ties/equal", []*dist.Empirical{a, a, b, a, b, a}},
		kernelCase{"ties/ragged", []*dist.Empirical{a, big, a, big, b}},
		kernelCase{"unchanging/equal", []*dist.Empirical{flat, flatMate, flatMate, flat, flatMate}},
		kernelCase{"unchanging/ragged", []*dist.Empirical{flat, a, big, b}},
		kernelCase{"tiny/alone", []*dist.Empirical{tiny, tiny}},
		kernelCase{"tiny/ragged", []*dist.Empirical{tiny, a, b}},
		kernelCase{"advance/several", []*dist.Empirical{
			craftedSet(n, 20, [2]int{30, 6}), craftedSet(n, 20, [2]int{30, 6}),
			craftedSet(n, 20, [2]int{30, 6}), craftedSet(n, 20, [2]int{30, 6}),
			craftedSet(n, 20, [2]int{1, 2}), craftedSet(n, 20, [2]int{2, 3}), craftedSet(n, 20, [2]int{3, 4}),
		}},
		kernelCase{"zeros/stretch", []*dist.Empirical{
			craftedSet(n, 20, [2]int{28, 2}), craftedSet(n, 20, [2]int{29, 3}),
			craftedSet(n, 20, [2]int{30, 4}), craftedSet(n, 20, [2]int{31, 5}), craftedSet(n, 20, [2]int{32, 6}),
		}},
		kernelCase{"even/middle-equal", []*dist.Empirical{
			craftedSet(n, 20, [2]int{7, 2}), craftedSet(n, 20, [2]int{7, 3}),
			craftedSet(n, 20, [2]int{7, 3}), craftedSet(n, 20, [2]int{7, 4}),
		}},
		kernelCase{"even/middle-distinct", []*dist.Empirical{
			craftedSet(n, 20, [2]int{7, 2}), craftedSet(n, 20, [2]int{7, 3}),
			craftedSet(n, 20, [2]int{7, 4}), craftedSet(n, 20, [2]int{7, 5}),
		}},
		kernelCase{"even/staggered", []*dist.Empirical{
			craftedSet(n, 20, [2]int{2, 2}), craftedSet(n, 20, [2]int{6, 3}, [2]int{20, 2}),
			craftedSet(n, 20, [2]int{10, 4}), craftedSet(n, 20, [2]int{14, 5}, [2]int{22, 3}),
			craftedSet(n, 20, [2]int{18, 2}, [2]int{26, 6}), craftedSet(n, 20, [2]int{6, 3}, [2]int{20, 2}),
		}},
	)
}

// craftedSet returns a set of m samples over [n]: for each run {v, c},
// c copies of value v, and distinct singletons from the top of the
// domain down for the rest, so its collisions sit at the runs' values.
func craftedSet(n, m int, runs ...[2]int) *dist.Empirical {
	used := make(map[int]bool)
	var samples []int
	for _, run := range runs {
		used[run[0]] = true
		for range run[1] {
			samples = append(samples, run[0])
		}
	}
	for v := n - 1; len(samples) < m; v-- {
		if !used[v] {
			samples = append(samples, v)
		}
	}
	return dist.NewEmpirical(samples, n)
}

// Every entry of the cost kernel equals refCost bit for bit on the
// kernelCases layouts, at every table cap: stored rows, rows evaluated on
// read, single entries read past the cap, and fills that start anywhere
// in a row (lo > i+1, as cost(i, j) past the cap does).
func TestCostTableKernelCases(t *testing.T) {
	defer func(saved int) { costTableBytes = saved }(costTableBytes)
	const n = 40
	rng := rand.New(rand.NewSource(11))
	d := dist.PerturbMultiplicative(dist.RandomKHistogram(n, 4, rng), 0.4, rng)
	s := dist.NewSampler(d, rng)
	weights := dist.NewEmpiricalFromSampler(s, 200)
	ends := candidateEndpoints(weights, n)
	for _, tc := range kernelCases(s, n) {
		es := &estimator{weights: weights, sets: tc.sets}
		want := make([][]float64, len(ends))
		for i := range ends {
			want[i] = make([]float64, len(ends))
			for j := i + 1; j < len(ends); j++ {
				want[i][j] = refCost(es, dist.Interval{Lo: ends[i], Hi: ends[j]})
			}
		}
		check := func(capBytes int, what string, i, j int, got float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s cap=%d: %s c(%d, %d) = %v, want %v", tc.name, capBytes, what, i, j, got, want[i][j])
			}
		}
		for _, capBytes := range []int{maxCostTableBytes, 8 * len(ends), 0} {
			costTableBytes = capBytes
			tab := newCostTable(es, ends, 2)
			buf := make([]float64, len(ends))
			for i := range ends {
				for j := i + 1; j < len(ends); j++ {
					check(capBytes, "cost", i, j, tab.cost(i, j))
				}
				for k, got := range tab.row(i, buf) {
					check(capBytes, "row", i, i+1+k, got)
				}
				for lo := i + 1; lo < len(ends); lo++ {
					out := buf[:len(ends)-lo]
					tab.fill(i, lo, out)
					for k, got := range out {
						check(capBytes, fmt.Sprintf("fill from %d:", lo), i, lo+k, got)
					}
				}
			}
		}
	}
}
