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
// path=alias is the fused kernel every alias sampler takes; path=fork
// is the generic Forkable path (draw a sample slice, then tabulate it)
// on the same sampler. ns/sample divides wall time by the r*m draws.
func BenchmarkCollectSetsSized(b *testing.B) {
	const n, r, m = 256, 207, 2000
	sizes := make([]int, r)
	for i := range sizes {
		sizes[i] = m
	}
	s := dist.NewSampler(dist.Zipf(n, 1.1), par.NewRand(1)).(dist.Forkable)
	for _, path := range []struct {
		name string
		s    dist.Sampler
	}{{"alias", s}, {"fork", forkOnly{s}}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("path=%s/par=%d", path.name, workers), func(b *testing.B) {
				seed := uint64(0)
				for b.Loop() {
					seed++
					CollectSetsSized(path.s, sizes, workers, seed)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(r*m)*seed), "ns/sample")
			})
		}
	}
}
