package learn

import (
	"math"
	"math/rand"
	"testing"

	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/vopt"
)

func TestOptionsValidate(t *testing.T) {
	s := dist.NewSampler(dist.Uniform(16), rand.New(rand.NewSource(1)))
	cases := []struct {
		name string
		opts Options
	}{
		{"k=0", Options{K: 0, Eps: 0.1}},
		{"eps=0", Options{K: 2, Eps: 0}},
		{"eps=1", Options{K: 2, Eps: 1}},
		{"eps nan", Options{K: 2, Eps: math.NaN()}},
		{"negative scale", Options{K: 2, Eps: 0.1, SampleScale: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Greedy(s, tc.opts); err == nil {
				t.Error("want error")
			}
			if _, err := FastGreedy(s, tc.opts); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestTinyDomain(t *testing.T) {
	s := dist.NewSampler(dist.Uniform(1), rand.New(rand.NewSource(1)))
	if _, err := Greedy(s, Options{K: 1, Eps: 0.1}); err != ErrTinyDomain {
		t.Errorf("err = %v, want ErrTinyDomain", err)
	}
}

func TestDeriveParams(t *testing.T) {
	o := Options{K: 4, Eps: 0.1}
	p := o.derive(1024)
	lnInv := math.Log(10.0)
	wantXi := 0.1 / (4 * lnInv)
	if math.Abs(p.xi-wantXi) > 1e-12 {
		t.Errorf("xi = %v, want %v", p.xi, wantXi)
	}
	if want := int(math.Ceil(4 * lnInv)); p.q != want {
		t.Errorf("q = %d, want %d", p.q, want)
	}
	if p.ell < 2 || p.m < 2 || p.r < 1 {
		t.Error("degenerate parameters")
	}
	// Paper formulas.
	nf := 1024.0
	if want := int(math.Ceil(math.Log(12*nf*nf) / (2 * wantXi * wantXi))); p.ell != want {
		t.Errorf("ell = %d, want %d", p.ell, want)
	}
	if want := int(math.Ceil(math.Log(6 * nf * nf))); p.r != want {
		t.Errorf("r = %d, want %d", p.r, want)
	}
	if want := int(math.Ceil(24 / (wantXi * wantXi))); p.m != want {
		t.Errorf("m = %d, want %d", p.m, want)
	}
}

func TestDeriveScaleAndCaps(t *testing.T) {
	base := Options{K: 4, Eps: 0.1}.derive(256)
	scaled := Options{K: 4, Eps: 0.1, SampleScale: 0.5}.derive(256)
	if scaled.ell >= base.ell || scaled.m >= base.m {
		t.Error("SampleScale=0.5 did not shrink sample sets")
	}
	capped := Options{K: 4, Eps: 0.1, MaxSamplesPerSet: 100}.derive(256)
	if capped.ell != 100 || capped.m != 100 {
		t.Errorf("cap not applied: ell=%d m=%d", capped.ell, capped.m)
	}
	it := Options{K: 4, Eps: 0.1, Iterations: 3}.derive(256)
	if it.q != 3 {
		t.Errorf("Iterations override ignored: q=%d", it.q)
	}
	// Large eps: ln(1/eps) < 1 is clamped to 1.
	big := Options{K: 2, Eps: 0.9}.derive(256)
	if big.q != 2 {
		t.Errorf("q = %d, want 2 with clamped log", big.q)
	}
}

func TestSampleComplexityAccounting(t *testing.T) {
	opts := Options{K: 2, Eps: 0.25, SampleScale: 0.02, MaxSamplesPerSet: 5000}
	d := dist.RandomKHistogram(64, 2, rand.New(rand.NewSource(2)))
	cs := dist.NewCountingSampler(dist.NewSampler(d, rand.New(rand.NewSource(3))))
	res, err := Greedy(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != cs.Count() {
		t.Errorf("reported %d samples, counter saw %d", res.SamplesUsed, cs.Count())
	}
	if got, want := res.SamplesUsed, opts.SampleComplexity(64); got != want {
		t.Errorf("SamplesUsed = %d, predicted %d", got, want)
	}
	// Sample complexity is independent of n's magnitude beyond the log
	// factor: doubling n must grow the prediction by far less than 2x.
	small := opts.SampleComplexity(64)
	large := opts.SampleComplexity(128)
	if float64(large) > 1.5*float64(small) {
		t.Errorf("sample complexity grew superlogarithmically: %d -> %d", small, large)
	}
	if opts2 := (Options{K: 0, Eps: 0.1}); opts2.SampleComplexity(64) != 0 {
		t.Error("invalid options should predict 0 samples")
	}
}

// Learning an exact k-histogram with enough samples should land close to
// zero error — the central Theorem 1 guarantee with H* error = 0.
func TestGreedyRecoversExactHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		n := 48
		k := 3
		d := dist.RandomKHistogram(n, k, rng)
		s := dist.NewSampler(d, rand.New(rand.NewSource(int64(10+trial))))
		res, err := Greedy(s, Options{
			K: k, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 40000,
		})
		if err != nil {
			t.Fatal(err)
		}
		errSq := res.Tiling.L2SqTo(d)
		if errSq > 0.01 {
			t.Errorf("trial %d: ||p-H||^2 = %v on an exact %d-histogram", trial, errSq, k)
		}
	}
}

func TestFastGreedyRecoversExactHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		n := 48
		k := 3
		d := dist.RandomKHistogram(n, k, rng)
		s := dist.NewSampler(d, rand.New(rand.NewSource(int64(20+trial))))
		res, err := FastGreedy(s, Options{
			K: k, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 40000,
		})
		if err != nil {
			t.Fatal(err)
		}
		errSq := res.Tiling.L2SqTo(d)
		if errSq > 0.01 {
			t.Errorf("trial %d: fast ||p-H||^2 = %v on an exact %d-histogram", trial, errSq, k)
		}
	}
}

// Theorem 1 shape: the learner's error tracks the offline optimum within a
// modest additive term on non-histogram inputs.
func TestGreedyNearOptimalOnRoughDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k := 64, 4
	d := dist.PerturbMultiplicative(dist.RandomKHistogram(n, k, rng), 0.25, rng)
	opt, err := vopt.OptimalL2Error(d, k)
	if err != nil {
		t.Fatal(err)
	}
	s := dist.NewSampler(d, rand.New(rand.NewSource(7)))
	res, err := Greedy(s, Options{K: k, Eps: 0.1, SampleScale: 0.05, MaxSamplesPerSet: 40000})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tiling.L2SqTo(d)
	// Theorem 1 allows opt + 5 eps with paper constants; with scaled-down
	// samples we allow a loose additive slack, still far below the trivial
	// error (||p - uniform||^2).
	if got > opt+0.05 {
		t.Errorf("greedy error %v, optimal %v: additive gap too large", got, opt)
	}
}

// The fast variant must scan far fewer candidates than the full scan when
// samples are sparse relative to the domain.
func TestFastGreedyScansFewerCandidates(t *testing.T) {
	d := dist.RandomKHistogram(512, 3, rand.New(rand.NewSource(8)))
	mk := func() dist.Sampler { return dist.NewSampler(d, rand.New(rand.NewSource(9))) }
	opts := Options{K: 3, Eps: 0.2, SampleScale: 0.002, MaxSamplesPerSet: 200, Iterations: 3}
	full, err := Greedy(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FastGreedy(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.CandidatesScanned >= full.CandidatesScanned {
		t.Errorf("fast scanned %d candidates, full scanned %d",
			fast.CandidatesScanned, full.CandidatesScanned)
	}
}

// The returned priority histogram must flatten to the returned tiling:
// they are two representations of the same function.
func TestPriorityMatchesTiling(t *testing.T) {
	d := dist.RandomKHistogram(48, 4, rand.New(rand.NewSource(11)))
	s := dist.NewSampler(d, rand.New(rand.NewSource(12)))
	res, err := Greedy(s, Options{K: 4, Eps: 0.2, SampleScale: 0.02, MaxSamplesPerSet: 20000})
	if err != nil {
		t.Fatal(err)
	}
	flat := res.Priority.Flatten()
	for i := 0; i < d.N(); i++ {
		if math.Abs(flat.Eval(i)-res.Tiling.Eval(i)) > 1e-12 {
			t.Fatalf("priority and tiling disagree at %d: %v vs %v",
				i, flat.Eval(i), res.Tiling.Eval(i))
		}
	}
}

// Determinism: same seed, same result.
func TestLearnerDeterministic(t *testing.T) {
	d := dist.Zipf(64, 1.1)
	opts := Options{K: 3, Eps: 0.2, SampleScale: 0.02, MaxSamplesPerSet: 20000}
	run1, err := Greedy(dist.NewSampler(d, rand.New(rand.NewSource(13))), opts)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := Greedy(dist.NewSampler(d, rand.New(rand.NewSource(13))), opts)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := run1.Tiling.Bounds(), run2.Tiling.Bounds()
	if len(b1) != len(b2) {
		t.Fatal("same-seed runs returned different partitions")
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("same-seed runs returned different boundaries")
		}
	}
}

// The learner must be sublinear in samples: budget well below the domain
// size must not be exceeded for large n with scaled constants.
func TestLearnerHonorsPredictedBudget(t *testing.T) {
	d := dist.RandomKHistogram(4096, 2, rand.New(rand.NewSource(14)))
	opts := Options{K: 2, Eps: 0.3, SampleScale: 0.001, MaxSamplesPerSet: 300, Iterations: 2}
	budget := opts.SampleComplexity(4096)
	bs := dist.NewBudgetSampler(dist.NewSampler(d, rand.New(rand.NewSource(15))), budget)
	if _, err := FastGreedy(bs, opts); err != nil {
		t.Fatal(err)
	}
	if bs.Exceeded() {
		t.Errorf("drew more than the predicted %d samples", budget)
	}
}

func TestEstimatorStatistics(t *testing.T) {
	d := dist.MustNew([]float64{0.5, 0.25, 0.25, 0})
	s := dist.NewSampler(d, rand.New(rand.NewSource(16)))
	es := newEstimator(s, params{xi: 0.1, q: 1, ell: 50000, r: 9, m: 20000}, 1, 1)
	tab := newCostTable(es, []int{0, 1, 2, 3, 4}, 1)
	// y estimates interval weight.
	iv := dist.Interval{Lo: 0, Hi: 2}
	if got := es.weights.FractionIn(iv); math.Abs(got-0.75) > 0.02 {
		t.Errorf("y = %v, want ~0.75", got)
	}
	// z estimates sum of squared masses: 0.25 + 0.0625 = 0.3125.
	if got := collision.MedianSecondMoment(es.sets, iv); math.Abs(got-0.3125) > 0.02 {
		t.Errorf("z = %v, want ~0.3125", got)
	}
	// cost approximates SSE of best constant on the interval:
	// sum p_i^2 - p(I)^2/|I| = 0.3125 - 0.28125 = 0.03125.
	if got := tab.cost(0, 2); math.Abs(got-0.03125) > 0.03 {
		t.Errorf("cost = %v, want ~0.03125", got)
	}
	// value estimates the per-element mean.
	if got := tab.value(0, 2); math.Abs(got-0.375) > 0.02 {
		t.Errorf("value = %v, want ~0.375", got)
	}
	// Degenerate intervals.
	if tab.cost(2, 2) != 0 {
		t.Error("empty interval cost != 0")
	}
	if tab.value(2, 2) != 0 {
		t.Error("empty interval value != 0")
	}
}

func TestPartitionCommit(t *testing.T) {
	d := dist.Uniform(16)
	s := dist.NewSampler(d, rand.New(rand.NewSource(17)))
	es := newEstimator(s, params{xi: 0.2, q: 1, ell: 2000, r: 5, m: 1000}, 1, 1)
	// Every position is an endpoint, so endpoint indices are positions.
	ends := make([]int, 17)
	for i := range ends {
		ends[i] = i
	}
	part := newPartition(newCostTable(es, ends, 1))
	if part.tiles() != 1 {
		t.Fatalf("fresh partition has %d tiles", part.tiles())
	}
	part.commit(4, 9)
	wantBounds := []int{0, 4, 9, 16}
	if len(part.bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", part.bounds, wantBounds)
	}
	for i := range wantBounds {
		if part.bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", part.bounds, wantBounds)
		}
	}
	// Committing an interval flush against the domain edge produces no
	// empty clips.
	part.commit(0, 4)
	for i := 1; i < len(part.bounds); i++ {
		if part.bounds[i] <= part.bounds[i-1] {
			t.Fatalf("degenerate tile in bounds %v", part.bounds)
		}
	}
	// Spanning commit removes interior boundaries.
	part.commit(1, 15)
	if got := part.tiles(); got != 3 {
		t.Fatalf("after spanning commit: %d tiles, want 3 (%v)", got, part.bounds)
	}
	// tileIndex sanity across all positions.
	for pos := 0; pos < 16; pos++ {
		j := part.tileIndex(pos)
		if !(part.bounds[j] <= pos && pos < part.bounds[j+1]) {
			t.Fatalf("tileIndex(%d) = %d out of tile", pos, j)
		}
	}
}

func TestCandidateEndpoints(t *testing.T) {
	e := dist.NewEmpirical([]int{5, 5, 9}, 20)
	eps := candidateEndpoints(e, 20)
	want := map[int]bool{0: true, 4: true, 5: true, 6: true, 8: true, 9: true, 10: true, 20: true}
	if len(eps) != len(want) {
		t.Fatalf("endpoints = %v", eps)
	}
	for _, v := range eps {
		if !want[v] {
			t.Fatalf("unexpected endpoint %d in %v", v, eps)
		}
	}
	for i := 1; i < len(eps); i++ {
		if eps[i] <= eps[i-1] {
			t.Fatal("endpoints not sorted/deduped")
		}
	}
	// Samples at the domain edge clamp rather than escape.
	e2 := dist.NewEmpirical([]int{0, 19}, 20)
	for _, v := range candidateEndpoints(e2, 20) {
		if v < 0 || v > 20 {
			t.Fatalf("endpoint %d outside [0,20]", v)
		}
	}
}

// The parallel scan must produce byte-identical results to the serial
// scan at every worker count.
func TestParallelScanMatchesSerial(t *testing.T) {
	d := dist.PerturbMultiplicative(
		dist.RandomKHistogram(128, 4, rand.New(rand.NewSource(40))), 0.25,
		rand.New(rand.NewSource(41)))
	run := func(workers int) *Result {
		s := dist.NewSampler(d, rand.New(rand.NewSource(42)))
		res, err := Greedy(s, Options{
			K: 4, Eps: 0.15, SampleScale: 0.02, MaxSamplesPerSet: 20000,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8} {
		par := run(workers)
		sb, pb := serial.Tiling.Bounds(), par.Tiling.Bounds()
		if len(sb) != len(pb) {
			t.Fatalf("workers=%d: different piece counts", workers)
		}
		for i := range sb {
			if sb[i] != pb[i] {
				t.Fatalf("workers=%d: bounds differ at %d: %v vs %v", workers, i, sb, pb)
			}
		}
		sv, pv := serial.Tiling.Values(), par.Tiling.Values()
		for i := range sv {
			if sv[i] != pv[i] {
				t.Fatalf("workers=%d: values differ", workers)
			}
		}
		if serial.CandidatesScanned != par.CandidatesScanned {
			t.Fatalf("workers=%d: scanned %d vs %d", workers,
				par.CandidatesScanned, serial.CandidatesScanned)
		}
	}
}

// FromSamples validates its inputs and produces sane output.
func TestFromSamples(t *testing.T) {
	d := dist.RandomKHistogram(64, 3, rand.New(rand.NewSource(43)))
	s := dist.NewSampler(d, rand.New(rand.NewSource(44)))
	weights := dist.Draw(s, 4000)
	sets := make([][]int, 7)
	for i := range sets {
		sets[i] = dist.Draw(s, 2000)
	}
	res, err := FromSamples(64, weights, sets, Options{K: 3, Eps: 0.1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiling.L2SqTo(d) > 0.01 {
		t.Errorf("FromSamples error %v", res.Tiling.L2SqTo(d))
	}
	if res.Ell != 4000 || res.R != 7 || res.M != 2000 {
		t.Errorf("metadata Ell=%d R=%d M=%d", res.Ell, res.R, res.M)
	}
	// Validation paths.
	if _, err := FromSamples(64, nil, sets, Options{K: 3, Eps: 0.1}, true); err != ErrNoSamples {
		t.Error("empty weights: want ErrNoSamples")
	}
	if _, err := FromSamples(64, weights, nil, Options{K: 3, Eps: 0.1}, true); err != ErrNoSamples {
		t.Error("no sets: want ErrNoSamples")
	}
	if _, err := FromSamples(64, weights, [][]int{{1}}, Options{K: 3, Eps: 0.1}, true); err != ErrNoSamples {
		t.Error("tiny set: want ErrNoSamples")
	}
	if _, err := FromSamples(1, weights, sets, Options{K: 3, Eps: 0.1}, true); err != ErrTinyDomain {
		t.Error("tiny domain: want ErrTinyDomain")
	}
	if _, err := FromSamples(64, weights, sets, Options{K: 0, Eps: 0.1}, true); err == nil {
		t.Error("bad options: want error")
	}
}
