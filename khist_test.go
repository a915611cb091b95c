package khist_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"khist"
	"khist/internal/grid"
)

// End-to-end: generate a k-histogram, learn it from samples through the
// public API, verify the recovered histogram is close, and confirm both
// testers accept it.
func TestEndToEndLearnAndTest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := khist.RandomKHistogram(96, 4, rng)

	res, err := khist.Learn(
		khist.NewSampler(d, rand.New(rand.NewSource(2))),
		khist.LearnOptions{K: 4, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 100000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if errSq := res.Tiling.L2SqTo(d); errSq > 0.01 {
		t.Errorf("learned histogram error %v", errSq)
	}
	if res.SamplesUsed <= 0 || res.Iterations <= 0 {
		t.Error("result metadata missing")
	}

	topts := khist.TestOptions{K: 4, Eps: 0.25, SampleScale: 0.02, MaxSamplesPerSet: 4000}
	l2, err := khist.TestKHistogramL2(khist.NewSampler(d, rand.New(rand.NewSource(3))), topts)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Accept {
		t.Error("l2 tester rejected a true 4-histogram")
	}
	l1, err := khist.TestKHistogramL1(khist.NewSampler(d, rand.New(rand.NewSource(4))), topts)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.Accept {
		t.Error("l1 tester rejected a true 4-histogram")
	}
}

// End-to-end on the far side: a staircase is far from every 4-histogram;
// the learner must still get within its additive guarantee of the (large)
// optimum, and the offline DP must certify the distance.
func TestEndToEndFarInstance(t *testing.T) {
	d := khist.Zipf(128, 1.2)
	opt, err := khist.OptimalL2Error(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := khist.Learn(
		khist.NewSampler(d, rand.New(rand.NewSource(5))),
		khist.LearnOptions{K: 4, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 100000},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tiling.L2SqTo(d)
	if got > opt+0.05 {
		t.Errorf("learned error %v vs optimal %v", got, opt)
	}
}

// The public constructors and distances must round-trip coherently.
func TestPublicSurface(t *testing.T) {
	d, err := khist.NewDistribution([]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if khist.L1(d, khist.Uniform(4)) != 0 {
		t.Error("NewDistribution/Uniform mismatch")
	}
	w, err := khist.FromWeights([]float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.P(2)-0.5) > 1e-12 {
		t.Error("FromWeights mis-normalized")
	}
	g := khist.Geometric(16, 0.5)
	z := khist.Zipf(16, 1)
	if khist.L2Sq(g, z) <= 0 || khist.TV(g, z) <= 0 || khist.L2(g, z) <= 0 {
		t.Error("distances degenerate")
	}
	spec, err := khist.KHistogramFromSpec(8, []int{4}, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	h := khist.HistogramOf(spec)
	if h.Pieces() > 2 {
		t.Errorf("HistogramOf pieces = %d", h.Pieces())
	}
	mix, err := khist.Mixture([]*khist.Distribution{g, z}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mix.N() != 16 {
		t.Error("mixture domain")
	}
	bf, err := khist.BestFit(spec, []int{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if bf.L2SqTo(spec) > 1e-18 {
		t.Error("BestFit on exact boundaries not exact")
	}
	tl, err := khist.NewTiling([]int{0, 8}, []float64{0.125})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Pieces() != 1 {
		t.Error("NewTiling")
	}
}

func TestPublicSamplers(t *testing.T) {
	d := khist.Uniform(8)
	cs := khist.NewCountingSampler(khist.NewSampler(d, rand.New(rand.NewSource(6))))
	for i := 0; i < 10; i++ {
		cs.Sample()
	}
	if cs.Count() != 10 {
		t.Error("counting sampler")
	}
	bs := khist.NewBudgetSampler(khist.NewSampler(d, rand.New(rand.NewSource(7))), 5)
	for i := 0; i < 6; i++ {
		bs.Sample()
	}
	if !bs.Exceeded() {
		t.Error("budget sampler")
	}
	e := khist.NewEmpirical([]int{1, 1, 2}, 8)
	if e.Hits(khist.Interval{Lo: 0, Hi: 8}) != 3 {
		t.Error("empirical hits")
	}
}

func TestPublicOfflineBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := khist.RandomKHistogram(64, 3, rng)
	for name, f := range map[string]func() (*khist.Tiling, error){
		"OptimalL2":   func() (*khist.Tiling, error) { return khist.OptimalL2(d, 3) },
		"OptimalL1":   func() (*khist.Tiling, error) { return khist.OptimalL1(d, 3) },
		"GreedyMerge": func() (*khist.Tiling, error) { return khist.GreedyMerge(d, 3) },
	} {
		h, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.L2SqTo(d) > 1e-12 {
			t.Errorf("%s: error %v on exact histogram", name, h.L2SqTo(d))
		}
	}
	if e, err := khist.OptimalL1Error(d, 3); err != nil || e > 1e-12 {
		t.Errorf("OptimalL1Error = %v, %v", e, err)
	}
	emp := khist.NewEmpirical([]int{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if _, err := khist.EquiWidth(emp, 4); err != nil {
		t.Error(err)
	}
	if _, err := khist.EquiDepth(emp, 4); err != nil {
		t.Error(err)
	}
}

func TestPublicUniformity(t *testing.T) {
	u := khist.NewSampler(khist.Uniform(256), rand.New(rand.NewSource(9)))
	res, err := khist.TestUniformity(u, nil, 0.3, 0.05, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Error("uniformity tester rejected uniform")
	}
}

// The learner must honor the sub-linearity promise through the public API:
// for a large domain, its draw count is a small fraction of n when the
// constants are scaled to practical values.
func TestSublinearSampling(t *testing.T) {
	n := 1 << 16
	d := khist.RandomKHistogram(n, 2, rand.New(rand.NewSource(10)))
	opts := khist.LearnOptions{
		K: 2, Eps: 0.3, SampleScale: 0.001, MaxSamplesPerSet: 500, Iterations: 2,
	}
	cs := khist.NewCountingSampler(khist.NewSampler(d, rand.New(rand.NewSource(11))))
	if _, err := khist.Learn(cs, opts); err != nil {
		t.Fatal(err)
	}
	if cs.Count() >= int64(n) {
		t.Errorf("drew %d samples on a domain of %d: not sub-linear", cs.Count(), n)
	}
}

func TestPublicIdentityAndDistance(t *testing.T) {
	q := khist.Zipf(128, 1.1)
	id, err := khist.TestIdentity(
		khist.NewSampler(q, rand.New(rand.NewSource(20))), q, nil, 0.25, 0.2, 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !id.Accept {
		t.Error("identity tester rejected p == q")
	}
	d := khist.RandomKHistogram(64, 3, rand.New(rand.NewSource(21)))
	est, err := khist.EstimateDistance(
		khist.NewSampler(d, rand.New(rand.NewSource(22))),
		khist.LearnOptions{K: 3, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if est.DistSq > 0.005 {
		t.Errorf("distance estimate %v on an exact histogram", est.DistSq)
	}
	if est.Histogram.Pieces() > 3 {
		t.Errorf("distance estimator returned %d pieces", est.Histogram.Pieces())
	}
}

func TestPublicReduce(t *testing.T) {
	p := khist.Zipf(64, 1.0)
	fine, err := khist.OptimalL2(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := khist.ReduceL2(fine, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pieces() > 4 {
		t.Errorf("reduced pieces = %d", r.Pieces())
	}
}

func TestPublicStreaming(t *testing.T) {
	m, err := khist.NewMaintainer(khist.StreamOptions{
		N: 64, K: 3, Eps: 0.2, ReservoirSize: 8000,
		Rand: rand.New(rand.NewSource(23)),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := khist.RandomKHistogram(64, 3, rand.New(rand.NewSource(24)))
	s := khist.NewSampler(d, rand.New(rand.NewSource(25)))
	for i := 0; i < 50000; i++ {
		m.Observe(s.Sample())
	}
	h, err := m.Extract()
	if err != nil {
		t.Fatal(err)
	}
	if h.L2SqTo(d) > 0.02 {
		t.Errorf("streaming extraction error %v", h.L2SqTo(d))
	}
	r, err := khist.NewReservoir(10, rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(3)
	if r.Len() != 1 {
		t.Error("reservoir")
	}
	cm, err := khist.NewCountMin(0.01, 0.01, rand.New(rand.NewSource(27)))
	if err != nil {
		t.Fatal(err)
	}
	cm.Add(5, 2)
	if cm.Estimate(5) < 2 {
		t.Error("countmin underestimates")
	}
	dy, err := khist.NewDyadic(64, 4, 256, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	dy.Add(7, 3)
	if dy.RangeEstimate(khist.Interval{Lo: 0, Hi: 8}) < 3 {
		t.Error("dyadic underestimates")
	}
}

func TestPublic2D(t *testing.T) {
	g := khist.RandomRectHistogram(12, 12, 3, rand.New(rand.NewSource(30)))
	s := khist.NewSampler(g.Flatten(), rand.New(rand.NewSource(31)))
	res, err := khist.Learn2D(s, khist.Options2D{
		Rows: 12, Cols: 12, K: 3, Eps: 0.1,
		Samples: 20000, Rand: rand.New(rand.NewSource(32)),
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := khist.FromWeights2D(12, 12, g.Flatten().PMF())
	if err != nil {
		t.Fatal(err)
	}
	_ = flat
	if res.Hist.L2SqTo(g) > 0.01 {
		t.Errorf("2D learner error %v", res.Hist.L2SqTo(g))
	}
	u := khist.Uniform2D(4, 4)
	if u.Weight(khist.Rect{X0: 0, Y0: 0, X1: 4, Y1: 4}) != 1 {
		t.Error("Uniform2D mass")
	}
	if _, err := khist.NewGrid(2, 2, []float64{0.25, 0.25, 0.25, 0.25}); err != nil {
		t.Error(err)
	}
}

// A coordinate cap of 1 or below 0 is an error, not an unthinned scan;
// 2 is the smallest cap.
func TestPublic2DMaxCoords(t *testing.T) {
	g := khist.RandomRectHistogram(12, 12, 3, rand.New(rand.NewSource(33)))
	for _, tc := range []struct {
		maxCoords int
		want      error
	}{{-1, grid.ErrBadCoords}, {1, grid.ErrBadCoords}, {2, nil}} {
		s := khist.NewSampler(g.Flatten(), rand.New(rand.NewSource(34)))
		_, err := khist.Learn2D(s, khist.Options2D{Rows: 12, Cols: 12, K: 3, Eps: 0.2, Samples: 2000, MaxCoords: tc.maxCoords})
		if !errors.Is(err, tc.want) {
			t.Errorf("max_coords=%d: err %v, want %v", tc.maxCoords, err, tc.want)
		}
	}
}
