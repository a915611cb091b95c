package learn

import (
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
	y := es.y(iv)
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
