package grid

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"khist/internal/dist"
)

func TestRectBasics(t *testing.T) {
	r := Rect{1, 2, 4, 5}
	if r.Area() != 9 {
		t.Errorf("Area = %d, want 9", r.Area())
	}
	if r.Empty() {
		t.Error("non-empty reported empty")
	}
	if !r.Contains(1, 2) || r.Contains(4, 2) || r.Contains(1, 5) {
		t.Error("Contains boundary behaviour wrong")
	}
	if (Rect{3, 3, 3, 9}).Area() != 0 {
		t.Error("degenerate rect has area")
	}
	c := Rect{-2, -2, 100, 100}.Clamp(8, 6)
	if c != (Rect{0, 0, 6, 8}) {
		t.Errorf("Clamp = %v", c)
	}
	if (Rect{5, 5, 2, 2}).Clamp(8, 8).Area() != 0 {
		t.Error("inverted rect clamp")
	}
	if r.String() == "" {
		t.Error("String")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 4, nil); err == nil {
		t.Error("rows=0: want error")
	}
	if _, err := NewGrid(2, 2, []float64{0.25, 0.25, 0.25}); err == nil {
		t.Error("short pmf: want error")
	}
	if _, err := NewGrid(2, 2, []float64{0.5, 0.5, 0.5, 0.5}); err == nil {
		t.Error("mass 2: want error")
	}
	if _, err := NewGrid(2, 2, []float64{-0.5, 0.5, 0.5, 0.5}); err == nil {
		t.Error("negative: want error")
	}
	if _, err := NewGrid(2, 2, []float64{math.NaN(), 0.5, 0.25, 0.25}); err == nil {
		t.Error("NaN: want error")
	}
	if _, err := FromWeights2D(2, 2, []float64{0, 0, 0, 0}); err == nil {
		t.Error("zero weights: want error")
	}
}

func TestGridRectStatistics(t *testing.T) {
	// 2x3 grid with distinct masses.
	pmf := []float64{0.1, 0.2, 0.3, 0.05, 0.15, 0.2}
	g, err := NewGrid(2, 3, pmf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 2 || g.Cols() != 3 || g.Cells() != 6 {
		t.Fatal("shape accessors")
	}
	if g.P(1, 0) != 0.2 || g.P(2, 1) != 0.2 {
		t.Error("P indexing wrong")
	}
	// Rectangle [1,3) x [0,2): cells (1,0),(2,0),(1,1),(2,1).
	r := Rect{1, 0, 3, 2}
	if w := g.Weight(r); math.Abs(w-(0.2+0.3+0.15+0.2)) > 1e-12 {
		t.Errorf("Weight = %v", w)
	}
	wantSq := 0.2*0.2 + 0.3*0.3 + 0.15*0.15 + 0.2*0.2
	if s := g.SumSquares(r); math.Abs(s-wantSq) > 1e-12 {
		t.Errorf("SumSquares = %v, want %v", s, wantSq)
	}
	if g.Weight(Rect{0, 0, 0, 2}) != 0 {
		t.Error("empty rect weight")
	}
	if w := g.Weight(Rect{-5, -5, 99, 99}); math.Abs(w-1) > 1e-12 {
		t.Error("clamped whole-grid weight != 1")
	}
}

// Property: prefix-based rect statistics match direct summation.
func TestGridPrefixMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		w := make([]float64, rows*cols)
		for i := range w {
			w[i] = rng.Float64() + 0.01
		}
		g, err := FromWeights2D(rows, cols, w)
		if err != nil {
			t.Fatal(err)
		}
		x0, y0 := rng.Intn(cols+1), rng.Intn(rows+1)
		x1, y1 := x0+rng.Intn(cols+1-x0), y0+rng.Intn(rows+1-y0)
		r := Rect{x0, y0, x1, y1}
		var dw, dsq float64
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				p := g.P(x, y)
				dw += p
				dsq += p * p
			}
		}
		if math.Abs(g.Weight(r)-dw) > 1e-9 || math.Abs(g.SumSquares(r)-dsq) > 1e-9 {
			t.Fatalf("prefix mismatch on %v", r)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	g := Uniform2D(3, 4)
	d := g.Flatten()
	if d.N() != 12 {
		t.Fatal("flatten domain")
	}
	for i := 0; i < 12; i++ {
		x, y := g.CellOf(i)
		if g.P(x, y) != d.P(i) {
			t.Fatalf("CellOf/P mismatch at %d", i)
		}
	}
}

func TestRandomRectHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		rows := 2 + rng.Intn(14)
		cols := 2 + rng.Intn(14)
		k := 1 + rng.Intn(8)
		g := RandomRectHistogram(rows, cols, k, rng)
		// Valid distribution.
		if math.Abs(g.Weight(Rect{0, 0, cols, rows})-1) > 1e-9 {
			t.Fatal("mass != 1")
		}
		// At most k distinct constant regions: count distinct values as a
		// proxy (guillotine pieces have a.s. distinct values).
		vals := map[float64]bool{}
		for y := 0; y < rows; y++ {
			for x := 0; x < cols; x++ {
				vals[g.P(x, y)] = true
			}
		}
		if len(vals) > k {
			t.Fatalf("%d distinct values for k=%d", len(vals), k)
		}
	}
}

func TestRectHistogramPaintSemantics(t *testing.T) {
	h, err := NewRectHistogram(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Eval(0, 0) != 0 {
		t.Error("empty histogram non-zero")
	}
	h.Add(Rect{0, 0, 4, 4}, 1)
	h.Add(Rect{1, 1, 3, 3}, 2)
	if h.Eval(0, 0) != 1 || h.Eval(2, 2) != 2 || h.Eval(3, 3) != 1 {
		t.Error("paint order wrong")
	}
	// Render agrees with Eval everywhere.
	v := h.Render()
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if v[y*4+x] != h.Eval(x, y) {
				t.Fatalf("Render/Eval mismatch at (%d,%d)", x, y)
			}
		}
	}
	// Clamping and empty adds.
	before := h.Len()
	h.Add(Rect{2, 2, 2, 9}, 7)
	if h.Len() != before {
		t.Error("empty add recorded")
	}
	h.Add(Rect{-3, -3, 1, 1}, 5)
	if h.Eval(0, 0) != 5 {
		t.Error("clamped add not applied")
	}
	if h.TotalMass() <= 0 || h.String() == "" {
		t.Error("accessors")
	}
}

func TestRectHistogramL2Sq(t *testing.T) {
	g := Uniform2D(4, 4)
	h, _ := NewRectHistogram(4, 4)
	h.Add(Rect{0, 0, 4, 4}, 1.0/16)
	if got := h.L2SqTo(g); got > 1e-18 {
		t.Errorf("exact cover error %v", got)
	}
	empty, _ := NewRectHistogram(4, 4)
	want := 16 * (1.0 / 16) * (1.0 / 16)
	if got := empty.L2SqTo(g); math.Abs(got-want) > 1e-12 {
		t.Errorf("empty cover error %v, want %v", got, want)
	}
}

func TestEmpirical2D(t *testing.T) {
	// 2x3 grid; samples at flattened cells.
	e, err := NewEmpirical2D(2, 3, []int{0, 0, 4, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.M() != 6 {
		t.Fatal("M")
	}
	// Cell 4 = (x=1, y=1); cell 5 = (2,1).
	if h := e.Hits(Rect{1, 1, 3, 2}); h != 4 {
		t.Errorf("Hits = %d, want 4", h)
	}
	if h := e.Hits(Rect{0, 0, 1, 1}); h != 2 {
		t.Errorf("Hits corner = %d, want 2", h)
	}
	if f := e.FractionIn(Rect{0, 0, 3, 2}); math.Abs(f-1) > 1e-12 {
		t.Errorf("FractionIn whole = %v", f)
	}
	if _, err := NewEmpirical2D(2, 3, []int{6}); err == nil {
		t.Error("out of range sample: want error")
	}
	if _, err := NewEmpirical2D(0, 3, nil); err == nil {
		t.Error("bad shape: want error")
	}
}

func TestGreedy2DValidation(t *testing.T) {
	g := Uniform2D(8, 8)
	s := dist.NewSampler(g.Flatten(), rand.New(rand.NewSource(3)))
	if _, err := Greedy2D(s, Options2D{Rows: 8, Cols: 8, K: 0, Eps: 0.1}); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := Greedy2D(s, Options2D{Rows: 8, Cols: 8, K: 2, Eps: 0}); err == nil {
		t.Error("eps=0: want error")
	}
	if _, err := Greedy2D(s, Options2D{Rows: 4, Cols: 8, K: 2, Eps: 0.1}); err == nil {
		t.Error("shape mismatch: want error")
	}
	if _, err := Greedy2D(s, Options2D{Rows: 0, Cols: 8, K: 2, Eps: 0.1}); err == nil {
		t.Error("rows=0: want error")
	}
	emp, err := NewEmpirical2DFromCounts(8, 8, dist.NewEmpiricalFromFork(s.(dist.Forkable), 1, 500))
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range []int{-1, 1} {
		opts := Options2D{Rows: 8, Cols: 8, K: 2, Eps: 0.1, MaxCoords: mc}
		if _, err := Greedy2D(s, opts); !errors.Is(err, ErrBadCoords) {
			t.Errorf("Greedy2D max_coords=%d: err %v, want %v", mc, err, ErrBadCoords)
		}
		if _, err := Greedy2DFromTabulated(emp, opts); !errors.Is(err, ErrBadCoords) {
			t.Errorf("Greedy2DFromTabulated max_coords=%d: err %v, want %v", mc, err, ErrBadCoords)
		}
	}
}

// The smallest legal coordinate cap keeps only the grid edges, so each
// iteration scans the one whole-grid rectangle.
func TestGreedy2DSmallestCoordinateCap(t *testing.T) {
	g := RandomRectHistogram(16, 16, 3, rand.New(rand.NewSource(12)))
	s := dist.NewSampler(g.Flatten(), nil).(dist.Forkable)
	emp, err := NewEmpirical2DFromCounts(16, 16, dist.NewEmpiricalFromFork(s, 1, 3000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy2DFromTabulated(emp, Options2D{Rows: 16, Cols: 16, K: 3, Eps: 0.25, MaxCoords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesScanned != int64(res.Iterations) {
		t.Errorf("max_coords=2: %d candidates over %d iterations, want one per iteration", res.CandidatesScanned, res.Iterations)
	}
}

func TestGreedy2DLearnsRectHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomRectHistogram(16, 16, 4, rng)
	s := dist.NewSampler(g.Flatten(), rand.New(rand.NewSource(5)))
	res, err := Greedy2D(s, Options2D{
		Rows: 16, Cols: 16, K: 4, Eps: 0.1,
		Samples: 30000, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: best constant fit.
	flat, _ := NewRectHistogram(16, 16)
	flat.Add(Rect{0, 0, 16, 16}, 1.0/256)
	base := flat.L2SqTo(g)
	got := res.Hist.L2SqTo(g)
	if got > base/4 {
		t.Errorf("2D learner error %v vs flat baseline %v: insufficient improvement", got, base)
	}
	if res.SamplesUsed != 30000 || res.CandidatesScanned <= 0 || res.Iterations <= 0 {
		t.Error("result metadata")
	}
}

func TestGreedy2DDeterministic(t *testing.T) {
	g := RandomRectHistogram(12, 12, 3, rand.New(rand.NewSource(7)))
	run := func() *Result2D {
		s := dist.NewSampler(g.Flatten(), rand.New(rand.NewSource(8)))
		res, err := Greedy2D(s, Options2D{
			Rows: 12, Cols: 12, K: 3, Eps: 0.2,
			Samples: 5000, Rand: rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	ea, eb := a.Hist.Entries(), b.Hist.Entries()
	if len(ea) != len(eb) {
		t.Fatal("same-seed runs differ in length")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same-seed runs differ")
		}
	}
}

func TestThinSorted(t *testing.T) {
	a := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := thinSorted(a, 5)
	if len(th) > 5 {
		t.Fatalf("thinned to %d, want <= 5", len(th))
	}
	if th[0] != 0 || th[len(th)-1] != 10 {
		t.Error("endpoints not kept")
	}
	// No-op cases.
	if len(thinSorted(a, 20)) != len(a) {
		t.Error("over-budget thinning changed input")
	}
	if len(thinSorted([]int{3}, 1)) != 1 {
		t.Error("single element")
	}
}

// Default options: Samples and MaxCoords derive automatically.
func TestGreedy2DDefaults(t *testing.T) {
	g := RandomRectHistogram(10, 10, 2, rand.New(rand.NewSource(50)))
	s := dist.NewSampler(g.Flatten(), rand.New(rand.NewSource(51)))
	res, err := Greedy2D(s, Options2D{Rows: 10, Cols: 10, K: 2, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != 200*2/0.2 {
		t.Errorf("default sample budget = %d", res.SamplesUsed)
	}
	if res.Hist.Len() == 0 {
		t.Error("no rectangles painted")
	}
}

// A set counted by the fused draw kernel must tabulate exactly as the
// sample slice drawn from the same fork: occurrence counts, prefix
// array, sample count and retained bytes.
func TestEmpirical2DFromCountsMatchesSamples(t *testing.T) {
	for _, c := range []struct{ rows, cols, k, m int }{{1, 1, 1, 10}, {3, 5, 2, 0}, {12, 12, 3, 5000}, {16, 16, 4, 4000}} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := RandomRectHistogram(c.rows, c.cols, c.k, rand.New(rand.NewSource(int64(seed))))
			s := dist.NewSampler(g.Flatten(), nil).(dist.Forkable)
			got, err := NewEmpirical2DFromCounts(c.rows, c.cols, dist.NewEmpiricalFromFork(s, seed, c.m))
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewEmpirical2D(c.rows, c.cols, dist.DrawBatch(s.Fork(seed), c.m))
			if err != nil {
				t.Fatal(err)
			}
			if got.M() != want.M() || !slices.Equal(got.occ, want.occ) || !slices.Equal(got.cum, want.cum) || got.SizeBytes() != want.SizeBytes() {
				t.Fatalf("%dx%d m=%d seed %d: counts-built tabulation differs from the sample-built one", c.rows, c.cols, c.m, seed)
			}
		}
	}
	e := dist.NewEmpiricalFromCounts([]int64{1, 2, 3, 4, 5, 6})
	if _, err := NewEmpirical2DFromCounts(2, 2, e); err != ErrBadShape {
		t.Errorf("6 counts over a 2x2 grid: err %v, want %v", err, ErrBadShape)
	}
	if _, err := NewEmpirical2DFromCounts(0, 6, e); err != ErrBadShape {
		t.Errorf("0 rows: err %v, want %v", err, ErrBadShape)
	}
}
