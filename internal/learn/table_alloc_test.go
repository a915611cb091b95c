//go:build !race

package learn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"khist/internal/dist"
)

// TestTableRunAllocs pins what a run on a filled table allocates: its
// clips (four floats per endpoint), the partition and the histograms,
// nothing that grows with the E^2 costs it reads. At E = 257 and 1025
// endpoints a run must stay under 64 bytes per endpoint plus 16 KiB. The
// race detector instruments allocations, so this runs without -race only.
func TestTableRunAllocs(t *testing.T) {
	for _, n := range []int{256, 1024} {
		s := dist.NewSampler(goldenShapes(n)[1], rand.New(rand.NewSource(1)))
		weights := dist.NewEmpiricalFromSampler(s, 2000)
		sets := make([]*dist.Empirical, 13)
		for i := range sets {
			sets[i] = dist.NewEmpiricalFromSampler(s, 500)
		}
		for _, fast := range []bool{true, false} {
			tab, err := NewTable(n, weights, sets, fast, 1)
			if err != nil {
				t.Fatal(err)
			}
			ends := len(tab.costs.ends)
			for _, workers := range []int{1, 2} {
				opts := Options{K: 4, Eps: 0.2, Parallelism: workers}
				if _, err := tab.Run(opts); err != nil {
					t.Fatal(err)
				}
				const runs = 5
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					tab.Run(opts)
				}
				runtime.ReadMemStats(&after)
				perRun := (after.TotalAlloc - before.TotalAlloc) / runs
				limit := uint64(64*ends + 16<<10)
				name := fmt.Sprintf("n=%d fast=%t par=%d", n, fast, workers)
				if perRun > limit {
					t.Errorf("%s: a run on a filled table allocated %d bytes, want at most %d for %d endpoints (the table stores %d bytes of costs)",
						name, perRun, limit, ends, 8*len(tab.costs.flat))
				}
			}
		}
	}
}
