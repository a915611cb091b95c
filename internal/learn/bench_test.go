package learn

import (
	"fmt"
	"math/rand"
	"testing"

	"khist/internal/collision"
	"khist/internal/dist"
)

// BenchmarkFromTabulated prices one fast learner run on a cached bundle
// at the shape of the serving benchmark's sweep learns: n = 256, every
// set capped at 350 samples, r = 13 collision sets, eps = 0.2. The
// k=K/par=P rows fill the cost table and run over it, as FromTabulated
// does; their /prefilled rows run over a table filled before the timer
// starts, as a learn on a bundle whose table is cached does. The
// ns/candidate metric divides wall time by CandidatesScanned, the
// candidate comparisons over all iterations.
func BenchmarkFromTabulated(b *testing.B) {
	const n, setCap, r = 256, 350, 13
	sizes := make([]int, r+1)
	for i := range sizes {
		sizes[i] = setCap
	}
	sets := benchSets(n, sizes)
	bench := func(b *testing.B, learn func() (*Result, error)) {
		var scanned int64
		for b.Loop() {
			res, err := learn()
			if err != nil {
				b.Fatal(err)
			}
			scanned += res.CandidatesScanned
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/candidate")
	}
	for _, k := range []int{2, 4} {
		for _, workers := range []int{1, 2} {
			opts := Options{K: k, Eps: 0.2, Parallelism: workers}
			name := fmt.Sprintf("k=%d/par=%d", k, workers)
			b.Run(name, func(b *testing.B) {
				bench(b, func() (*Result, error) { return FromTabulated(n, sets[0], sets[1:], opts, true) })
			})
			b.Run(name+"/prefilled", func(b *testing.B) {
				tab, err := NewTable(n, sets[0], sets[1:], true, workers)
				if err != nil {
					b.Fatal(err)
				}
				bench(b, func() (*Result, error) { return tab.Run(opts) })
			})
		}
	}
}

// benchSets draws the benchmarks' sample sets, set i of size sizes[i],
// from a perturbed 6-histogram over [n].
func benchSets(n int, sizes []int) []*dist.Empirical {
	d := dist.PerturbMultiplicative(
		dist.RandomKHistogram(n, 6, rand.New(rand.NewSource(1))), 0.3,
		rand.New(rand.NewSource(2)))
	return collision.CollectSetsSized(dist.NewSampler(d, rand.New(rand.NewSource(3))), sizes, 1, 4)
}

// BenchmarkCostTableFill prices newCostTable alone, on one worker, with
// the weight set and fast endpoints of BenchmarkFromTabulated: n = 256
// and 350 weight samples. The shapes are that benchmark's sweep learn
// (r = 13 sets of 350 samples), ragged set sizes, r = 24 sets (the
// learner's r at n = 2^16; an even count, so two middle values) and
// r = 65 sets (two mask words and heap scratch). The ns/entry metric
// divides wall time by the entries filled.
func BenchmarkCostTableFill(b *testing.B) {
	const n, setCap = 256, 350
	for _, tc := range []struct {
		name   string
		r      int
		ragged bool
	}{
		{"sweep/r=13", 13, false},
		{"ragged/r=13", 13, true},
		{"equal/r=24", 24, false},
		{"equal/r=65", 65, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sizes := make([]int, tc.r+1)
			for i := range sizes {
				sizes[i] = setCap
				if tc.ragged {
					sizes[i] -= 9 * i
				}
			}
			sets := benchSets(n, sizes)
			es := &estimator{weights: sets[0], sets: sets[1:]}
			ends := candidateEndpoints(es.weights, n)
			var entries int
			for b.Loop() {
				entries += len(newCostTable(es, ends, 1).flat)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		})
	}
}
