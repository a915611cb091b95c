package collision

import (
	"fmt"
	"testing"

	"khist/internal/dist"
	"khist/internal/par"
)

// BenchmarkCollectSetsSized prices drawing and tabulating one tester's
// collision sets at the shape of the serving benchmark's ingest_mix
// tests: n = 256, r = ceil(16 ln 6n^2) = 207 sets of m = 2000 samples.
// The shape axis sets how often the alias coin goes each way: never on
// uniform (every column is full), on most columns for zipf and the
// 3-piece histogram, and on every empty column of the comb.
// path=alias is the fused kernel every alias sampler takes; path=fork
// is the generic Forkable path (draw a sample slice, then tabulate it)
// on the same sampler. path=derive/delta=D builds the same sets from a
// bundle of the same streams whose sets hold m-D samples (CollectSetsNear):
// delta=-14 trims 14 draws off each set, delta=+10 extends each by 10,
// as a server's bundle miss does from a cached sibling. ns/sample
// divides wall time by the r*m samples of the sets built, so the rows
// compare at equal output.
func BenchmarkCollectSetsSized(b *testing.B) {
	const n, r, m = 256, 207, 2000
	sizes := make([]int, r)
	for i := range sizes {
		sizes[i] = m
	}
	threePiece, err := dist.KHistogramFromSpec(n, []int{60, 170}, []float64{0.2, 0.5, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		d    *dist.Distribution
	}{{"zipf", dist.Zipf(n, 1.1)}, {"uniform", dist.Uniform(n)}, {"3piece", threePiece}, {"comb", comb(n)}} {
		s := dist.NewSampler(shape.d, par.NewRand(1)).(dist.Forkable)
		for _, path := range []struct {
			name string
			s    dist.Sampler
		}{{"alias", s}, {"fork", forkOnly{s}}} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("shape=%s/path=%s/par=%d", shape.name, path.name, workers), func(b *testing.B) {
					seed := uint64(0)
					for b.Loop() {
						seed++
						CollectSetsSized(path.s, sizes, workers, seed)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(r*m)*seed), "ns/sample")
				})
			}
		}
		for _, delta := range []int{-14, +10} {
			nearSizes := make([]int, r)
			for i := range nearSizes {
				nearSizes[i] = m - delta
			}
			const seed = 1
			near := CollectSetsSized(s, nearSizes, 1, seed)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("shape=%s/path=derive/delta=%+d/par=%d", shape.name, delta, workers), func(b *testing.B) {
					for b.Loop() {
						CollectSetsNear(s, sizes, workers, seed, near)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(r*m)*float64(b.N)), "ns/sample")
				})
			}
		}
	}
}
