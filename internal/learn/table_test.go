package learn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"khist/internal/dist"
)

// TestSharedTableMatchesFromTabulated fills one Table per bundle, scan
// mode and table cap, and runs it for a grid of K, Eps and an Iterations
// override, serially and then from 8 goroutines at once: every Result
// must deep-equal FromTabulated's on the same sets. The caps are the
// golden test's, so stored rows, partly stored tables and rows evaluated
// on read are all shared.
func TestSharedTableMatchesFromTabulated(t *testing.T) {
	defer func(saved int) { costTableBytes = saved }(costTableBytes)
	var grid []Options
	for _, k := range []int{1, 2, 3, 5} {
		for _, eps := range []float64{0.1, 0.2, 0.3} {
			grid = append(grid, Options{K: k, Eps: eps})
		}
	}
	grid = append(grid, Options{K: 2, Eps: 0.2, Iterations: 3})
	for i := range grid {
		grid[i].Parallelism = 1 + i%3
	}

	for _, bc := range []struct {
		name string
		n, r int
	}{
		{"n=128/r=9", 128, 9},
		{"n=97/r=8/ragged", 97, 8},
	} {
		d := goldenShapes(bc.n)[3]
		s := dist.NewSampler(d, rand.New(rand.NewSource(int64(bc.n))))
		weights := dist.NewEmpiricalFromSampler(s, 300)
		sets := make([]*dist.Empirical, bc.r)
		for j := range sets {
			m := 200
			if bc.r%2 == 0 {
				m += 23 * j
			}
			sets[j] = dist.NewEmpiricalFromSampler(s, m)
		}
		for _, capBytes := range []int{maxCostTableBytes, 64 << 10, 1 << 10, 0} {
			costTableBytes = capBytes
			for _, fast := range []bool{true, false} {
				name := fmt.Sprintf("%s/cap=%d/fast=%t", bc.name, capBytes, fast)
				want := make([]*Result, len(grid))
				for i, opts := range grid {
					res, err := FromTabulated(bc.n, weights, sets, opts, fast)
					if err != nil {
						t.Fatalf("%s: FromTabulated(%+v): %v", name, opts, err)
					}
					want[i] = res
				}
				tab, err := NewTable(bc.n, weights, sets, fast, 2)
				if err != nil {
					t.Fatalf("%s: NewTable: %v", name, err)
				}
				check := func(who string, i int) {
					res, err := tab.Run(grid[i])
					if err != nil {
						t.Errorf("%s %s: Run(%+v): %v", name, who, grid[i], err)
						return
					}
					if !reflect.DeepEqual(res, want[i]) {
						t.Errorf("%s %s: Run(%+v) differs from FromTabulated", name, who, grid[i])
					}
				}
				for i := range grid {
					check("serial", i)
				}
				// The grid split across 8 goroutines, all on the one table.
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < len(grid); i += 8 {
							check(fmt.Sprintf("goroutine %d", g), i)
						}
					}(g)
				}
				wg.Wait()
			}
		}
	}
}

// NewTable rejects what FromTabulated rejects, with the same errors, and
// Run validates its options.
func TestNewTableValidation(t *testing.T) {
	s := dist.NewSampler(dist.Uniform(16), rand.New(rand.NewSource(5)))
	weights := dist.NewEmpiricalFromSampler(s, 50)
	sets := []*dist.Empirical{dist.NewEmpiricalFromSampler(s, 40)}
	other := dist.NewEmpiricalFromSampler(dist.NewSampler(dist.Uniform(8), rand.New(rand.NewSource(6))), 40)
	for _, tc := range []struct {
		name    string
		n       int
		weights *dist.Empirical
		sets    []*dist.Empirical
		want    error
	}{
		{"tiny domain", 1, weights, sets, ErrTinyDomain},
		{"no weights", 16, nil, sets, ErrNoSamples},
		{"no sets", 16, weights, nil, ErrNoSamples},
		{"nil set", 16, weights, []*dist.Empirical{nil}, ErrNoSamples},
		{"weights domain", 8, weights, []*dist.Empirical{other}, ErrDomainMismatch},
		{"set domain", 16, weights, []*dist.Empirical{other}, ErrDomainMismatch},
	} {
		if _, err := NewTable(tc.n, tc.weights, tc.sets, true, 1); err != tc.want {
			t.Errorf("%s: NewTable error %v, want %v", tc.name, err, tc.want)
		}
	}
	tab, err := NewTable(16, weights, sets, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Run(Options{K: 0, Eps: 0.2}); err != ErrBadK {
		t.Errorf("Run with K=0: error %v, want ErrBadK", err)
	}
	if tab.SizeBytes() <= 8*int64(len(tab.costs.flat)) {
		t.Errorf("SizeBytes %d does not cover the %d stored costs", tab.SizeBytes(), len(tab.costs.flat))
	}
}
