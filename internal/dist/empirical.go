package dist

import (
	"fmt"

	"khist/internal/par"
)

// Empirical tabulates a multiset of samples from [n] so that the interval
// statistics the paper's algorithms consume are O(1) per query after the
// O(n + m) construction:
//
//   - Hits(I): the number of samples landing in I (prefix sums of the
//     occurrence counts);
//   - SelfCollisions(I): coll(S_I) = sum_{i in I} C(occ_i, 2), the number
//     of unordered sample pairs that collide on an element of I (prefix
//     sums of per-element pair counts) — the Goldreich-Ron collision
//     statistic of the paper's Section 2.
type Empirical struct {
	n       int
	m       int
	occ     []int64
	cumHits []int64 // cumHits[i] = samples with value < i; length n+1
	cumColl []int64 // cumColl[i] = sum of C(occ_v, 2) for v < i; length n+1
	fork    forkMark
}

// forkMark is the draw marker of a set the fused alias kernel drew
// (tabulateFork, or a derivation from such a set): the seed of its
// stream and the SplitMix64 state after its last draw, from which the
// stream goes on. drawn is false on every other set (tabulated from a
// sample slice or from counts, drawn through a generic fork, or decoded
// from a peer's bytes), so no such set ever seeds a derivation; see
// NewEmpiricalFromForkNear.
type forkMark struct {
	drawn bool
	seed  uint64
	end   uint64
}

// NewEmpirical tabulates samples over domain size n. It panics if any
// sample lies outside [0, n): samples are produced by Samplers over the
// same domain, so an out-of-range value is an internal invariant
// violation, not an input error.
func NewEmpirical(samples []int, n int) *Empirical {
	if n < 0 {
		panic("dist: negative domain size")
	}
	occ := make([]int64, n)
	for _, v := range samples {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("dist: sample %d outside domain [0,%d)", v, n))
		}
		occ[v]++
	}
	return tabulate(occ)
}

// tabulate builds the tabulation of the multiset whose occurrence
// counts over [0, len(occ)) are occ. It takes ownership of occ (no
// copy), derives m as the sum of the counts, and builds the prefix
// sums. Every constructor ends here. It panics on a negative count,
// which only NewEmpiricalFromCounts can be handed.
func tabulate(occ []int64) *Empirical {
	n := len(occ)
	e := &Empirical{
		n:       n,
		occ:     occ,
		cumHits: make([]int64, n+1),
		cumColl: make([]int64, n+1),
	}
	for v, c := range occ {
		if c < 0 {
			panic(fmt.Sprintf("dist: negative occurrence count %d at %d", c, v))
		}
		e.cumHits[v+1] = e.cumHits[v] + c
		e.cumColl[v+1] = e.cumColl[v] + c*(c-1)/2
	}
	e.m = int(e.cumHits[n])
	return e
}

// tabulateDrawn is tabulate for a set the fused kernel drew: it also
// sets the draw marker, the stream's seed and its state after the last
// draw.
func tabulateDrawn(occ []int64, seed, end uint64) *Empirical {
	e := tabulate(occ)
	e.fork = forkMark{drawn: true, seed: seed, end: end}
	return e
}

// parallelTabulateMin is the sample count below which NewEmpiricalParallel
// falls back to the serial construction: under it, goroutine startup costs
// more than the counting pass saves.
const parallelTabulateMin = 1 << 15

// NewEmpiricalParallel is NewEmpirical with the counting pass split across
// workers: each worker counts a contiguous chunk of samples into a private
// occurrence array and the arrays are merged across the domain in
// parallel. Counts are integers, so the merge is exact and the result is
// identical to NewEmpirical for every worker count. Small inputs
// (len(samples) < 2^15) and workers <= 1 fall back to the serial
// construction.
func NewEmpiricalParallel(samples []int, n, workers int) *Empirical {
	if workers <= 1 || len(samples) < parallelTabulateMin || n < 1 {
		return NewEmpirical(samples, n)
	}
	workers = par.Workers(workers, len(samples))
	parts := make([][]int64, workers)
	bad := make([]int, workers) // index of an out-of-range sample per worker, or -1
	chunk := (len(samples) + workers - 1) / workers
	par.For(workers, workers, func(w int) {
		bad[w] = -1
		lo := w * chunk
		hi := min(lo+chunk, len(samples))
		occ := make([]int64, n)
		for i := lo; i < hi; i++ {
			v := samples[i]
			if v < 0 || v >= n {
				if bad[w] < 0 {
					bad[w] = i
				}
				continue
			}
			occ[v]++
		}
		parts[w] = occ
	})
	for _, i := range bad {
		if i >= 0 {
			// Panic from the calling goroutine, matching NewEmpirical.
			panic(fmt.Sprintf("dist: sample %d outside domain [0,%d)", samples[i], n))
		}
	}
	// Merge across the domain: each position is owned by one iteration.
	occ := make([]int64, n)
	par.For(workers, n, func(v int) {
		var c int64
		for _, part := range parts {
			c += part[v]
		}
		occ[v] = c
	})
	return tabulate(occ)
}

// NewEmpiricalFromCounts tabulates a multiset given directly as
// occurrence counts over [0, len(occ)) — the form streaming sketches
// hold — skipping the per-sample counting pass. It panics on a
// negative count (sketch projections never produce one). The counts
// are copied; the caller's slice stays independent.
func NewEmpiricalFromCounts(occ []int64) *Empirical {
	return tabulate(append([]int64(nil), occ...))
}

// NewEmpiricalFromSampler draws m samples from s and tabulates them,
// using the sampler's bulk path when it has one.
func NewEmpiricalFromSampler(s Sampler, m int) *Empirical {
	return NewEmpirical(DrawBatch(s, m), s.N())
}

// N returns the domain size.
func (e *Empirical) N() int { return e.n }

// M returns the total number of tabulated samples.
func (e *Empirical) M() int { return e.m }

// Occ returns the occurrence count of element v (0 if v is outside the
// domain).
func (e *Empirical) Occ(v int) int64 {
	if v < 0 || v >= e.n {
		return 0
	}
	return e.occ[v]
}

// Hits returns |S_I|, the number of samples landing in the interval, in
// O(1). The interval is clipped to the domain.
func (e *Empirical) Hits(iv Interval) int64 {
	iv = iv.Intersect(Whole(e.n))
	if iv.Empty() {
		return 0
	}
	return e.cumHits[iv.Hi] - e.cumHits[iv.Lo]
}

// SelfCollisions returns coll(S_I) = sum_{i in I} C(occ_i, 2), the number
// of colliding sample pairs inside the interval, in O(1). The interval is
// clipped to the domain.
func (e *Empirical) SelfCollisions(iv Interval) int64 {
	iv = iv.Intersect(Whole(e.n))
	if iv.Empty() {
		return 0
	}
	return e.cumColl[iv.Hi] - e.cumColl[iv.Lo]
}

// FractionIn returns |S_I| / m, the empirical weight estimate of the
// interval (0 when no samples were tabulated).
func (e *Empirical) FractionIn(iv Interval) float64 {
	if e.m == 0 {
		return 0
	}
	return float64(e.Hits(iv)) / float64(e.m)
}

// Distribution returns the empirical distribution of the samples: the
// occurrence counts normalized by m. It returns an error when no samples
// were tabulated.
func (e *Empirical) Distribution() (*Distribution, error) {
	w := make([]float64, e.n)
	for v, c := range e.occ {
		w[v] = float64(c)
	}
	return FromWeights(w)
}

// DistinctValues returns the sampled values with at least one occurrence,
// in increasing order. This is the paper's set T of Theorem 2, from which
// the fast learner builds its candidate endpoints.
func (e *Empirical) DistinctValues() []int {
	var out []int
	for v, c := range e.occ {
		if c > 0 {
			out = append(out, v)
		}
	}
	return out
}
