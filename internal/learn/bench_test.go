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
// ns/candidate metric divides wall time by CandidatesScanned, the
// candidate comparisons over all iterations.
func BenchmarkFromTabulated(b *testing.B) {
	const n, setCap, r = 256, 350, 13
	d := dist.PerturbMultiplicative(
		dist.RandomKHistogram(n, 6, rand.New(rand.NewSource(1))), 0.3,
		rand.New(rand.NewSource(2)))
	sizes := make([]int, r+1)
	for i := range sizes {
		sizes[i] = setCap
	}
	sets := collision.CollectSetsSized(dist.NewSampler(d, rand.New(rand.NewSource(3))), sizes, 1, 4)
	for _, k := range []int{2, 4} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/par=%d", k, workers), func(b *testing.B) {
				opts := Options{K: k, Eps: 0.2, Parallelism: workers}
				var scanned int64
				for b.Loop() {
					res, err := FromTabulated(n, sets[0], sets[1:], opts, true)
					if err != nil {
						b.Fatal(err)
					}
					scanned += res.CandidatesScanned
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/candidate")
			})
		}
	}
}
