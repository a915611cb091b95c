package learn

import (
	"sort"

	"khist/internal/dist"
	"khist/internal/histogram"
	"khist/internal/par"
)

// Result is the output of a learner run.
type Result struct {
	// Priority is the priority histogram exactly as Algorithm 1 builds it:
	// one batch of (J, I_L, I_R) entries per iteration, later batches at
	// higher priority.
	Priority *histogram.Priority
	// Tiling is the flattened, canonical tiling histogram equivalent to
	// Priority. Most callers want this.
	Tiling *histogram.Tiling
	// SamplesUsed is the total number of oracle draws consumed.
	SamplesUsed int64
	// Iterations is the number of greedy iterations performed (q).
	Iterations int
	// CandidatesScanned counts the candidates compared across all
	// iterations: q times the number of candidate intervals. Each
	// comparison reads the interval's cost from a table filled once per
	// run, so this is the running time's per-iteration term.
	CandidatesScanned int64
	// Ell, R, M expose the derived sample-set sizes (weight samples,
	// number of collision sets, samples per collision set) for
	// sample-complexity experiments.
	Ell, R, M int
}

// Greedy runs Algorithm 1: q = k ln(1/eps) iterations, each scanning every
// interval [a, b) of the domain and committing the one that minimizes the
// estimated best-fit SSE of the induced tiling. Sample complexity
// O~((k/eps)^2 log n); running time O(n^2 r) once to tabulate the
// interval costs (r = ln(6 n^2) collision sets), then O(n^2) comparisons
// per iteration.
func Greedy(s dist.Sampler, opts Options) (*Result, error) {
	return run(s, opts, false)
}

// FastGreedy runs the Theorem 2 variant: identical to Greedy except that
// candidate interval endpoints are restricted to the set T' of sampled
// values and their immediate neighbours, E <= 3*ell+2 of them, reducing
// the scan from C(n+1, 2) intervals to C(E, 2), at an additive error of
// 8 eps instead of 5 eps. Sample complexity is Greedy's,
// O~((k/eps)^2 log n). The cost table takes O(E r) prefix gathers, one
// sort of r values per row and one move per collision-count change,
// O(E^2 r^2) in the worst case and about E^2 times the sets changed per
// entry in practice; each iteration then makes O(E^2) comparisons. Since ell is itself O~((k/eps)^2 log n), the running
// time is about the square of the sample complexity. The table holds at
// most 8 MiB; rows past the cap are recomputed on every iteration
// instead.
func FastGreedy(s dist.Sampler, opts Options) (*Result, error) {
	return run(s, opts, true)
}

func run(s dist.Sampler, opts Options, fast bool) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := s.N()
	if n < 2 {
		return nil, ErrTinyDomain
	}
	p := opts.derive(n)
	es := newEstimator(s, p, opts.workers(), opts.rng().Uint64())
	return runWithEstimator(es, n, p.q, opts, fast)
}

// FromSamples runs the greedy learner on pre-collected samples instead of
// a live oracle: weightSamples plays the role of the ell weight-estimate
// draws and each element of collisionSets the role of one of the r
// collision sets. This is how the streaming layer (internal/stream)
// extracts a histogram from its reservoir without re-sampling. fast
// selects the Theorem 2 candidate restriction.
//
// Options' sample-size fields (SampleScale, MaxSamplesPerSet) are ignored;
// K, Eps and Iterations control the greedy itself.
func FromSamples(n int, weightSamples []int, collisionSets [][]int, opts Options, fast bool) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, ErrTinyDomain
	}
	if len(weightSamples) < 2 || len(collisionSets) == 0 {
		return nil, ErrNoSamples
	}
	weights := dist.NewEmpirical(weightSamples, n)
	sets := make([]*dist.Empirical, len(collisionSets))
	for i, set := range collisionSets {
		if len(set) < 2 {
			return nil, ErrNoSamples
		}
		sets[i] = dist.NewEmpirical(set, n)
	}
	return FromTabulated(n, weights, sets, opts, fast)
}

// FromTabulated runs the greedy learner on already-tabulated sample sets:
// weights plays the role of the ell weight-estimate draws and sets the
// role of the r collision sets. This is the zero-copy entry point of the
// serving layer: tabulated Empiricals are immutable, so one cached bundle
// is shared by any number of concurrent learner runs, and for a fixed
// bundle the result is bit-identical at every Parallelism.
//
// The tabulations are read, never written; callers may share them across
// goroutines. Options' sample-size fields (SampleScale, MaxSamplesPerSet)
// are ignored, exactly as in FromSamples.
func FromTabulated(n int, weights *dist.Empirical, sets []*dist.Empirical, opts Options, fast bool) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, ErrTinyDomain
	}
	if weights == nil || weights.M() < 2 || len(sets) == 0 {
		return nil, ErrNoSamples
	}
	if weights.N() != n {
		return nil, ErrDomainMismatch
	}
	for _, e := range sets {
		if e == nil || e.M() < 2 {
			return nil, ErrNoSamples
		}
		if e.N() != n {
			return nil, ErrDomainMismatch
		}
	}
	es := &estimator{weights: weights, sets: sets}
	q := opts.Iterations
	if q <= 0 {
		q = opts.derive(n).q
	}
	return runWithEstimator(es, n, q, opts, fast)
}

func runWithEstimator(es *estimator, n, q int, opts Options, fast bool) (*Result, error) {
	// Candidate endpoints. Full scan: every position. Fast scan: T', the
	// sampled values and their +-1 neighbours (plus the domain ends so the
	// scan can always express "everything left/right of a sample").
	var endpoints []int
	if fast {
		endpoints = candidateEndpoints(es.weights, n)
	} else {
		endpoints = make([]int, n+1)
		for i := range endpoints {
			endpoints[i] = i
		}
	}

	workers := par.Workers(opts.workers(), len(endpoints))
	tab := newCostTable(es, endpoints, workers)
	part := newPartition(tab, es)
	prio := histogram.NewPriority(n)
	prio.Add(dist.Whole(n), es.value(dist.Whole(n)))

	// One row buffer per scan worker, for the rows the table evaluates
	// on read; a fully tabled run needs none.
	bufs := make([][]float64, workers)
	if tab.tabled < len(endpoints)-1 {
		for w := range bufs {
			bufs[w] = make([]float64, len(endpoints)-1)
		}
	}
	cl := newClips(len(endpoints))
	var scanned int64
	for it := 0; it < q; it++ {
		cl.update(part)
		sc := scanCandidates(tab, cl, bufs)
		scanned += sc.scanned
		bestA, bestB := sc.a, sc.b
		if bestA < 0 {
			break // no candidates (degenerate endpoint set)
		}
		// Capture the pre-commit neighbour extents for the priority
		// histogram mirror: I_L and I_R are clips of the tiles J cuts.
		loA := part.bounds[part.tileIndex(bestA)]
		hiB := part.bounds[part.tileIndex(bestB-1)+1]
		part.commit(bestA, bestB)

		// Mirror the commit into the priority histogram, paper-style: the
		// chosen J and the recomputed neighbours I_L, I_R all enter at the
		// next priority level.
		pri := prio.MaxPri() + 1
		ja := tab.interval(bestA, bestB)
		prio.AddAt(ja, es.value(ja), pri)
		if loA < bestA {
			il := tab.interval(loA, bestA)
			prio.AddAt(il, es.value(il), pri)
		}
		if hiB > bestB {
			ir := tab.interval(bestB, hiB)
			prio.AddAt(ir, es.value(ir), pri)
		}
	}

	tiling, err := histogram.NewTiling(part.positions(), part.values)
	if err != nil {
		return nil, err
	}
	return &Result{
		Priority:          prio,
		Tiling:            tiling.Canonical(),
		SamplesUsed:       es.samplesUsed(),
		Iterations:        q,
		CandidatesScanned: scanned,
		Ell:               es.weights.M(),
		R:                 len(es.sets),
		M:                 setSize(es.sets),
	}, nil
}

// candidateEndpoints builds the Theorem 2 endpoint set: every distinct
// sampled value and its immediate neighbours, clamped to the domain, plus
// 0 and n, sorted and deduplicated. (The paper's closed-interval set T'
// translates to half-open endpoints by also including value+1, which the
// +-1 expansion covers.)
func candidateEndpoints(weights *dist.Empirical, n int) []int {
	distinct := weights.DistinctValues()
	set := make(map[int]struct{}, 3*len(distinct)+2)
	add := func(v int) {
		if v < 0 {
			v = 0
		}
		if v > n {
			v = n
		}
		set[v] = struct{}{}
	}
	add(0)
	add(n)
	for _, v := range distinct {
		add(v - 1)
		add(v)
		add(v + 1)
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// setSize returns the common size of the collision sets. FromSamples
// allows ragged sets; for those it returns the minimum, the size the
// estimator's median guarantees are limited by, so Result.M never
// overstates the per-set sample budget.
func setSize(sets []*dist.Empirical) int {
	if len(sets) == 0 {
		return 0
	}
	m := sets[0].M()
	for _, e := range sets[1:] {
		if e.M() < m {
			m = e.M()
		}
	}
	return m
}
