// Package khist is a Go implementation of the algorithms in
//
//	Piotr Indyk, Reut Levi, Ronitt Rubinfeld.
//	"Approximating and Testing k-Histogram Distributions in Sub-linear
//	Time." PODS 2012.
//
// A discrete distribution p over [n] = {0, ..., n-1} is a k-histogram if
// its probability mass function is piecewise constant with at most k
// pieces. Given only i.i.d. sample access to p, this package can
//
//   - LEARN: construct a histogram H with ||p-H||_2^2 within an additive
//     O(eps) of the best tiling k-histogram, from O~((k/eps)^2 log n)
//     samples (Learn, LearnFull);
//   - TEST: decide whether p is a tiling k-histogram or eps-far from every
//     tiling k-histogram, in the l2 distance from O(eps^-4 ln^2 n) samples
//     (TestKHistogramL2) or in the l1 distance from O~(eps^-5 sqrt(kn))
//     samples (TestKHistogramL1).
//
// It also ships the offline baselines the paper compares against
// conceptually — the exact v-optimal dynamic program of Jagadish et al.
// (OptimalL2), its l1 counterpart (OptimalL1), greedy merging
// (GreedyMerge), and the classical sampled equi-width/equi-depth
// histograms (EquiWidth, EquiDepth) — plus distribution utilities,
// synthetic workload generators, and the Theorem 5 lower-bound instances
// (package internal/lower, surfaced through the experiment harness).
//
// # Quick start
//
//	d := khist.Zipf(1024, 1.1)                       // unknown distribution
//	s := khist.NewSampler(d, rand.New(rand.NewSource(1)))
//	res, err := khist.Learn(s, khist.LearnOptions{K: 8, Eps: 0.1})
//	if err != nil { ... }
//	fmt.Println(res.Tiling)                          // piecewise-constant sketch
//	fmt.Println(res.Tiling.L2SqTo(d))                // true squared error
//
// All randomized components take explicit *rand.Rand sources; identical
// seeds reproduce identical outputs. The sub-linear algorithms consume
// only the Sampler interface and never read a pmf.
//
// Learn, the property testers, and Learn2D execute on a batched,
// concurrency-safe sample plane: set the Parallelism field of
// LearnOptions, TestOptions, or Options2D to split sample drawing,
// tabulation, and candidate scanning across goroutines. Results are
// bit-identical for every worker count — streams are assigned to sample
// sets (split off one seed), never to workers. See the README's
// "Concurrency model" section for sharing rules.
package khist

import (
	"math/rand"

	"khist/internal/dist"
	"khist/internal/grid"
	"khist/internal/histogram"
	"khist/internal/histtest"
	"khist/internal/learn"
	"khist/internal/stream"
	"khist/internal/vopt"
)

// Core types, aliased from the internal engines so that the whole public
// surface lives in this one package.
type (
	// Distribution is an explicit probability mass function over [n] with
	// O(1) interval weights and second moments.
	Distribution = dist.Distribution
	// Interval is the half-open interval [Lo, Hi) over the domain.
	Interval = dist.Interval
	// Sampler yields i.i.d. draws from an unknown distribution; it is the
	// only access the sub-linear algorithms have.
	Sampler = dist.Sampler
	// BatchSampler is a Sampler with a fast bulk-draw path (SampleInto).
	BatchSampler = dist.BatchSampler
	// ForkableSampler is a Sampler that can hand out independent seeded
	// streams over the same distribution, enabling concurrent draws.
	ForkableSampler = dist.Forkable
	// CountingSampler wraps a Sampler with a draw counter.
	CountingSampler = dist.CountingSampler
	// BudgetSampler wraps a Sampler with a draw budget and overrun flag.
	BudgetSampler = dist.BudgetSampler
	// Empirical tabulates samples with O(1) interval hit and collision
	// counts.
	Empirical = dist.Empirical
	// Tiling is a tiling histogram: disjoint pieces covering [n].
	Tiling = histogram.Tiling
	// Priority is a priority histogram: overlapping prioritized pieces.
	Priority = histogram.Priority
	// LearnOptions configures Learn and LearnFull.
	LearnOptions = learn.Options
	// LearnResult is the output of Learn and LearnFull.
	LearnResult = learn.Result
	// TestOptions configures TestKHistogramL2 and TestKHistogramL1.
	TestOptions = histtest.Options
	// TestResult is the output of the property testers.
	TestResult = histtest.Result
	// UniformityResult is the output of TestUniformity.
	UniformityResult = histtest.UniformityResult
	// IdentityResult is the output of TestIdentity.
	IdentityResult = histtest.IdentityResult
	// DistanceEstimate is the output of EstimateDistance.
	DistanceEstimate = learn.DistanceEstimate
	// StreamOptions configures a streaming histogram Maintainer.
	StreamOptions = stream.MaintainerOptions
	// Maintainer consumes an element stream in one pass with bounded
	// memory and extracts near-v-optimal histograms on demand.
	Maintainer = stream.Maintainer
	// Reservoir is a uniform fixed-capacity stream sample.
	Reservoir = stream.Reservoir
	// CountMin is a conservative-update count-min frequency sketch.
	CountMin = stream.CountMin
	// Dyadic answers approximate range-count queries over a stream.
	Dyadic = stream.Dyadic
	// Grid is an explicit distribution over a 2D grid with O(1)
	// rectangle statistics.
	Grid = grid.Grid
	// Rect is a half-open rectangle over a grid.
	Rect = grid.Rect
	// RectHistogram is a priority rectangle histogram (2D analogue of
	// Priority).
	RectHistogram = grid.RectHistogram
	// Options2D configures Learn2D.
	Options2D = grid.Options2D
	// Result2D is the output of Learn2D.
	Result2D = grid.Result2D
	// Empirical2D tabulates grid samples with O(1) rectangle hit counts.
	Empirical2D = grid.Empirical2D
)

// Distribution constructors and generators.

// NewDistribution validates pmf as a distribution over [len(pmf)].
func NewDistribution(pmf []float64) (*Distribution, error) { return dist.New(pmf) }

// FromWeights normalizes non-negative weights into a distribution.
func FromWeights(w []float64) (*Distribution, error) { return dist.FromWeights(w) }

// Uniform returns the uniform distribution over [n].
func Uniform(n int) *Distribution { return dist.Uniform(n) }

// Zipf returns the Zipf distribution with exponent s over [n].
func Zipf(n int, s float64) *Distribution { return dist.Zipf(n, s) }

// Geometric returns the truncated geometric distribution with ratio r.
func Geometric(n int, r float64) *Distribution { return dist.Geometric(n, r) }

// RandomKHistogram returns a random tiling k-histogram distribution.
func RandomKHistogram(n, k int, rng *rand.Rand) *Distribution {
	return dist.RandomKHistogram(n, k, rng)
}

// KHistogramFromSpec builds the tiling k-histogram with the given interior
// boundaries and piece masses.
func KHistogramFromSpec(n int, interior []int, masses []float64) (*Distribution, error) {
	return dist.KHistogramFromSpec(n, interior, masses)
}

// KHistogramFromSpecMust is KHistogramFromSpec but panics on error, for
// literals known valid at compile time (tests, examples, table-driven
// setups).
func KHistogramFromSpecMust(n int, interior []int, masses []float64) *Distribution {
	d, err := dist.KHistogramFromSpec(n, interior, masses)
	if err != nil {
		panic(err)
	}
	return d
}

// Mixture returns the normalized mixture of the given distributions.
func Mixture(ds []*Distribution, weights []float64) (*Distribution, error) {
	return dist.Mixture(ds, weights)
}

// Samplers.

// NewSampler returns an O(1)-per-draw alias-method sampler for d.
func NewSampler(d *Distribution, rng *rand.Rand) Sampler { return dist.NewSampler(d, rng) }

// NewCountingSampler wraps s with a draw counter.
func NewCountingSampler(s Sampler) *CountingSampler { return dist.NewCountingSampler(s) }

// NewBudgetSampler wraps s with a hard draw budget.
func NewBudgetSampler(s Sampler, budget int64) *BudgetSampler {
	return dist.NewBudgetSampler(s, budget)
}

// SampleInto fills dst with draws from s, using the sampler's bulk path
// when it has one.
func SampleInto(s Sampler, dst []int) { dist.SampleInto(s, dst) }

// DrawBatch collects m draws from s into a new slice via the sampler's
// bulk path when available.
func DrawBatch(s Sampler, m int) []int { return dist.DrawBatch(s, m) }

// TryFork returns an independent sampler forked from s with the given
// stream seed, or nil when s cannot fork. Samplers from NewSampler fork
// in O(1) by sharing their alias tables.
func TryFork(s Sampler, seed uint64) Sampler { return dist.TryFork(s, seed) }

// NewEmpirical tabulates samples over domain size n.
func NewEmpirical(samples []int, n int) *Empirical { return dist.NewEmpirical(samples, n) }

// NewEmpiricalParallel tabulates samples over domain size n with the
// counting pass split across workers; the result is identical to
// NewEmpirical at every worker count.
func NewEmpiricalParallel(samples []int, n, workers int) *Empirical {
	return dist.NewEmpiricalParallel(samples, n, workers)
}

// Distances.

// L1 returns ||p - q||_1.
func L1(p, q *Distribution) float64 { return dist.L1(p, q) }

// L2 returns ||p - q||_2.
func L2(p, q *Distribution) float64 { return dist.L2(p, q) }

// L2Sq returns ||p - q||_2^2, the v-optimal ("least squares") criterion.
func L2Sq(p, q *Distribution) float64 { return dist.L2Sq(p, q) }

// TV returns the total variation distance ||p - q||_1 / 2.
func TV(p, q *Distribution) float64 { return dist.TV(p, q) }

// Histogram constructors.

// NewTiling builds a tiling histogram from bounds and per-piece values.
func NewTiling(bounds []int, values []float64) (*Tiling, error) {
	return histogram.NewTiling(bounds, values)
}

// BestFit returns the l2-optimal tiling histogram for p with the given
// piece boundaries (each piece's value is its mean mass).
func BestFit(p *Distribution, bounds []int) (*Tiling, error) {
	return histogram.BestFit(p, bounds)
}

// HistogramOf returns the exact minimal tiling representation of p.
func HistogramOf(p *Distribution) *Tiling { return histogram.FromDistribution(p) }

// Learning (the paper's Section 3).

// Learn runs the fast greedy learner (Theorem 2): additive error 8*eps
// against the best tiling K-histogram, from O~((K/eps)^2 log n)
// samples. Its running time is about the square of that. The candidate
// endpoints are the ell = O~((K/eps)^2 log n) weight samples and their
// neighbours, E <= 3*ell + 2 of them. A run fills a table of the costs
// of all C(E, 2) candidate intervals once: O(E*r) prefix gathers over
// r = ln(6 n^2) collision sets, then one sort of r values per row and
// one move per collision-count change: O(E^2 r^2) in the worst case, and
// about E^2 times the sets changed per entry in practice. Each of the
// K ln(1/eps) iterations then makes O(E^2) comparisons. This is the
// variant to use by default.
func Learn(s Sampler, opts LearnOptions) (*LearnResult, error) {
	return learn.FastGreedy(s, opts)
}

// LearnFull runs Algorithm 1 verbatim (Theorem 1): additive error 5*eps,
// same sample complexity, but a full O(n^2) interval scan per iteration.
func LearnFull(s Sampler, opts LearnOptions) (*LearnResult, error) {
	return learn.Greedy(s, opts)
}

// Testing (the paper's Section 4).

// TestKHistogramL2 tests whether the sampled distribution is a tiling
// K-histogram versus eps-far in l2 (Theorem 3), from O(eps^-4 ln^2 n)
// samples.
func TestKHistogramL2(s Sampler, opts TestOptions) (*TestResult, error) {
	return histtest.TestTilingL2(s, opts)
}

// TestKHistogramL1 tests whether the sampled distribution is a tiling
// K-histogram versus eps-far in l1 (Theorem 4), from O~(eps^-5 sqrt(Kn))
// samples.
func TestKHistogramL1(s Sampler, opts TestOptions) (*TestResult, error) {
	return histtest.TestTilingL1(s, opts)
}

// TestUniformity is the collision-based uniformity tester (the k=1
// special case the paper builds on). rng seeds the draw stream so
// repeated calls sharing one *rand.Rand use fresh streams (nil = fixed
// seed); scale multiplies the sample-size formula; maxSamples caps it
// (0 = no cap).
func TestUniformity(s Sampler, rng *rand.Rand, eps, scale float64, maxSamples int) (*UniformityResult, error) {
	return histtest.TestUniformityL1(s, rng, eps, scale, maxSamples)
}

// TestIdentity tests whether the sampled distribution equals the known
// distribution q versus being eps-far in l2 (the Identity Testing problem
// of the paper's related work, via the same collision machinery). rng
// seeds the per-set streams so repeated calls sharing one *rand.Rand use
// fresh streams (nil = fixed seed); workers splits drawing and estimation
// across goroutines without affecting the verdict (0 or 1 = serial).
func TestIdentity(s Sampler, q *Distribution, rng *rand.Rand, eps, scale float64, maxSamples, workers int) (*IdentityResult, error) {
	return histtest.TestIdentityL2(s, q, rng, eps, scale, maxSamples, workers)
}

// EstimateDistance estimates the squared l2 distance of the sampled
// distribution from the best tiling K-histogram, from samples alone:
// learn, project to K pieces, measure against fresh samples.
func EstimateDistance(s Sampler, opts LearnOptions) (*DistanceEstimate, error) {
	return learn.EstimateDistanceL2(s, opts)
}

// ReduceL2 returns the best at-most-k-piece approximation of a tiling
// histogram in the squared l2 sense (exact dynamic program over the
// histogram's own boundaries).
func ReduceL2(h *Tiling, k int) (*Tiling, error) { return histogram.ReduceL2(h, k) }

// Offline baselines (full-pmf algorithms).

// OptimalL2 returns the exact v-optimal tiling histogram with at most k
// pieces (Jagadish et al. dynamic program, O(n^2 k)).
func OptimalL2(p *Distribution, k int) (*Tiling, error) { return vopt.OptimalL2(p, k) }

// OptimalL2Error returns the minimal ||p - H||_2^2 over k-piece tilings.
func OptimalL2Error(p *Distribution, k int) (float64, error) { return vopt.OptimalL2Error(p, k) }

// OptimalL1 returns the l1-optimal tiling histogram with at most k pieces.
func OptimalL1(p *Distribution, k int) (*Tiling, error) { return vopt.OptimalL1(p, k) }

// OptimalL1Error returns the minimal ||p - H||_1 over k-piece tilings
// (unconstrained values).
func OptimalL1Error(p *Distribution, k int) (float64, error) { return vopt.OptimalL1Error(p, k) }

// GreedyMerge returns the bottom-up greedy-merge k-piece histogram.
func GreedyMerge(p *Distribution, k int) (*Tiling, error) { return vopt.GreedyMerge(p, k) }

// EquiWidth returns the equal-width k-piece histogram of the samples.
func EquiWidth(e *Empirical, k int) (*Tiling, error) { return vopt.EquiWidth(e, k) }

// EquiDepth returns the empirical-quantile k-piece histogram of the
// samples (Chaudhuri-Motwani-Narasayya style).
func EquiDepth(e *Empirical, k int) (*Tiling, error) { return vopt.EquiDepth(e, k) }

// Streaming (one-pass, bounded memory; the TGIK02-style substrate the
// paper's Section 3 descends from).

// NewMaintainer returns a streaming histogram maintainer: feed it stream
// elements with Observe and call Extract at any time for a
// near-v-optimal k-histogram of the stream's empirical distribution.
func NewMaintainer(opts StreamOptions) (*Maintainer, error) {
	return stream.NewMaintainer(opts)
}

// NewReservoir returns a uniform reservoir sample of the given capacity.
func NewReservoir(capacity int, rng *rand.Rand) (*Reservoir, error) {
	return stream.NewReservoir(capacity, rng)
}

// NewCountMin returns a count-min sketch sized for additive error eps*N
// per point query with failure probability delta.
func NewCountMin(eps, delta float64, rng *rand.Rand) (*CountMin, error) {
	return stream.NewCountMinForError(eps, delta, rng)
}

// NewDyadic returns a dyadic range-count sketch over [0, n) with
// depth x width counters per level.
func NewDyadic(n, depth, width int, rng *rand.Rand) (*Dyadic, error) {
	return stream.NewDyadic(n, depth, width, rng)
}

// Two-dimensional extension (the TGIK02 multidimensional setting the
// paper's Section 3 descends from).

// NewGrid validates a row-major pmf over a rows x cols grid.
func NewGrid(rows, cols int, pmf []float64) (*Grid, error) { return grid.NewGrid(rows, cols, pmf) }

// FromWeights2D normalizes row-major non-negative weights into a Grid.
func FromWeights2D(rows, cols int, w []float64) (*Grid, error) {
	return grid.FromWeights2D(rows, cols, w)
}

// Uniform2D returns the uniform distribution over a grid.
func Uniform2D(rows, cols int) *Grid { return grid.Uniform2D(rows, cols) }

// RandomRectHistogram returns a random k-rectangle guillotine-tiling
// distribution over a grid.
func RandomRectHistogram(rows, cols, k int, rng *rand.Rand) *Grid {
	return grid.RandomRectHistogram(rows, cols, k, rng)
}

// Learn2D learns a rectangle histogram of an unknown 2D distribution from
// samples of its row-major flattening (Grid.Flatten provides a sampler
// source).
func Learn2D(s Sampler, opts Options2D) (*Result2D, error) { return grid.Greedy2D(s, opts) }
