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
	// comparison reads the interval's cost from a table filled before
	// the first iteration, so this is the running time's per-iteration
	// term.
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
// most 8 MiB of costs; rows past the cap are recomputed on every
// iteration instead.
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
	es := newEstimator(s, opts.derive(n), opts.workers(), opts.rng().Uint64())
	return newTable(es, n, fast, opts.workers()).Run(opts)
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
// role of the r collision sets. It is NewTable followed by Table.Run, so
// a caller that learns repeatedly on one bundle can fill the table once
// and run it for every K, Eps and Iterations. For a fixed bundle the
// result is bit-identical at every Parallelism.
//
// The tabulations are read, never written; callers may share them across
// goroutines. Options' sample-size fields (SampleScale, MaxSamplesPerSet)
// are ignored, exactly as in FromSamples.
func FromTabulated(n int, weights *dist.Empirical, sets []*dist.Empirical, opts Options, fast bool) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t, err := NewTable(n, weights, sets, fast, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return t.Run(opts)
}

// Table is the greedy learner's cost table for one bundle of tabulated
// sample sets and one scan mode, fast (Theorem 2) or full: the cost of
// every candidate interval, and the weight prefix that tile values are
// read from. An interval's cost depends only on the sample sets, never
// on K, Eps or Iterations, so one Table serves every run on its bundle.
// It keeps no reference to the sets it was filled from and is never
// written once NewTable returns: any number of goroutines may Run it at
// once.
type Table struct {
	costs   *costTable
	n       int
	samples int64 // the sets' total draws, Result.SamplesUsed
	ell, m  int   // Result.Ell and Result.M
}

// NewTable checks tabulated sample sets as FromTabulated does and fills
// their cost table for the fast or full scan, split across parallelism
// goroutines; the table is bit-identical at every parallelism. It holds
// at most 8 MiB of costs, and rows past the cap are recomputed by every
// run that reads them.
func NewTable(n int, weights *dist.Empirical, sets []*dist.Empirical, fast bool, parallelism int) (*Table, error) {
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
	return newTable(es, n, fast, par.Effective(parallelism)), nil
}

// newTable fills the cost table of es for the fast or full scan on
// workers goroutines.
func newTable(es *estimator, n int, fast bool, workers int) *Table {
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
	costs := newCostTable(es, endpoints, par.Workers(workers, len(endpoints)))
	if costs.tabled == len(endpoints)-1 {
		// Every cost is stored, so the kernel never runs again: drop the
		// prefixes only it reads.
		costs.coll, costs.masks, costs.denom = nil, nil, nil
	}
	return &Table{costs: costs, n: n, samples: es.samplesUsed(), ell: es.weights.M(), m: setSize(es.sets)}
}

// tableStructBytes is the Table and costTable structs with their slice
// headers, rounded up.
const tableStructBytes = 256

// SizeBytes returns the memory the table retains, the size a cache that
// keeps it should charge.
func (t *Table) SizeBytes() int64 {
	c := t.costs
	words := cap(c.ends) + cap(c.coll) + cap(c.hits) + cap(c.masks) + cap(c.denom) + cap(c.flat)
	return tableStructBytes + 8*int64(words)
}

// Run runs the greedy learner over the table: q = ceil(K ln(1/Eps))
// iterations, or Options.Iterations, each committing the candidate that
// most lowers the estimated cost. Only K, Eps, Iterations and
// Parallelism are read. The result equals FromTabulated's on the sets
// the table was filled from, bit for bit, at every Parallelism.
func (t *Table) Run(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	q := opts.Iterations
	if q <= 0 {
		q = opts.derive(t.n).q
	}
	tab := t.costs
	workers := par.Workers(opts.workers(), len(tab.ends))
	part := newPartition(tab)
	prio := histogram.NewPriority(t.n)
	prio.Add(dist.Whole(t.n), tab.value(0, len(tab.ends)-1))

	// One row buffer per scan worker, for the rows the table evaluates
	// on read; a fully tabled run needs none.
	bufs := make([][]float64, workers)
	if tab.tabled < len(tab.ends)-1 {
		for w := range bufs {
			bufs[w] = make([]float64, len(tab.ends)-1)
		}
	}
	cl := newClips(len(tab.ends))
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
		prio.AddAt(tab.interval(bestA, bestB), tab.value(bestA, bestB), pri)
		if loA < bestA {
			prio.AddAt(tab.interval(loA, bestA), tab.value(loA, bestA), pri)
		}
		if hiB > bestB {
			prio.AddAt(tab.interval(bestB, hiB), tab.value(bestB, hiB), pri)
		}
	}

	tiling, err := histogram.NewTiling(part.positions(), part.values)
	if err != nil {
		return nil, err
	}
	return &Result{
		Priority:          prio,
		Tiling:            tiling.Canonical(),
		SamplesUsed:       t.samples,
		Iterations:        q,
		CandidatesScanned: scanned,
		Ell:               t.ell,
		R:                 tab.r,
		M:                 t.m,
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
