package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"khist/internal/dist"
)

// BenchmarkScanRects prices one rectangle scan at the sweep workload's
// learn2d shape: a 16x16 rect grid (K 3) tabulated from 3000 draws, the
// default coordinate cap (every coordinate, 17 per axis) and the prefix
// arrays of the learner's starting paint. The ns/candidate metric divides
// wall time by the candidates scanned.
func BenchmarkScanRects(b *testing.B) {
	const rows, cols = 16, 16
	g := RandomRectHistogram(rows, cols, 3, rand.New(rand.NewSource(1)))
	s := dist.NewSampler(g.Flatten(), nil).(dist.Forkable)
	emp, err := NewEmpirical2DFromCounts(rows, cols, dist.NewEmpiricalFromFork(s, 1, 3000))
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := candidateCoords(emp, 48)
	w := cols + 1
	sumH2 := make([]float64, (rows+1)*w)
	sumEH := make([]float64, (rows+1)*w)
	const h = 1.0 / (rows * cols)
	for y := 0; y < rows; y++ {
		var rh2, reh float64
		for x := 0; x < cols; x++ {
			rh2 += h * h
			reh += float64(emp.occ[y*cols+x]) * h
			sumH2[(y+1)*w+x+1] = sumH2[y*w+x+1] + rh2
			sumEH[(y+1)*w+x+1] = sumEH[y*w+x+1] + reh
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", workers), func(b *testing.B) {
			var scanned int64
			for b.Loop() {
				scanned += scanRects(emp, xs, ys, sumH2, sumEH, w, float64(emp.M()), workers).scanned
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/candidate")
		})
	}
}
