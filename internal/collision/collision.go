// Package collision implements the Goldreich-Ron collision statistics that
// power every algorithm in the paper (Section 2, Lemma 1): counting
// pairwise collisions among samples restricted to an interval yields
// unbiased estimates of second moments of the sampled distribution.
//
// Two distinct estimators appear in the paper and both live here:
//
//   - The observed collision probability coll(S_I) / C(|S_I|, 2) estimates
//     the conditional squared norm ||p_I||_2^2 (Equations 1-2). The testers
//     use it to decide whether an interval is flat, since a flat interval
//     has ||p_I||_2^2 = 1/|I|.
//
//   - The scaled collision count coll(S_I) / C(|S|, 2) estimates the
//     absolute second moment sum_{l in I} p_l^2 (Lemma 1). The greedy
//     learner uses it to score candidate intervals.
//
// Both are amplified by taking the median over r independent sample sets
// (median-of-means style), which converts the constant success probability
// of Chebyshev into high probability via Chernoff.
package collision

import (
	"khist/internal/dist"
	"khist/internal/par"
)

// Pairs returns C(m, 2) as a float64, the number of unordered pairs among
// m items. It returns 0 for m < 2.
func Pairs(m int64) float64 {
	if m < 2 {
		return 0
	}
	return float64(m) * float64(m-1) / 2
}

// ObservedCollisionProb returns coll(S_I) / C(|S_I|, 2), the observed
// collision probability of the samples falling in I, together with |S_I|.
// If fewer than two samples land in I the estimate is reported as 0 with
// ok = false (the statistic is undefined); the paper's testers treat such
// intervals as light and accept them before consulting this value.
func ObservedCollisionProb(e *dist.Empirical, iv dist.Interval) (est float64, hits int64, ok bool) {
	hits = e.Hits(iv)
	if hits < 2 {
		return 0, hits, false
	}
	return float64(e.SelfCollisions(iv)) / Pairs(hits), hits, true
}

// SecondMomentEstimate returns coll(S_I) / C(|S|, 2), the Lemma-1 estimator
// of the absolute second moment sum_{l in I} p_l^2. Unlike the observed
// collision probability, it is defined (as 0) even when no samples land in
// I, provided the full sample set has at least two samples.
func SecondMomentEstimate(e *dist.Empirical, iv dist.Interval) float64 {
	denom := Pairs(int64(e.M()))
	if denom == 0 {
		return 0
	}
	return float64(e.SelfCollisions(iv)) / denom
}

// MedianSecondMoment returns the median over the given tabulated sample
// sets of the Lemma-1 second-moment estimator for the interval. This is
// the z_I statistic of Algorithm 1 (Step 4).
func MedianSecondMoment(sets []*dist.Empirical, iv dist.Interval) float64 {
	vals := make([]float64, len(sets))
	for i, e := range sets {
		vals[i] = SecondMomentEstimate(e, iv)
	}
	return MedianInPlace(vals)
}

// MedianCollisionProb returns the median over sample sets of the observed
// collision probability of I, skipping sets where fewer than two samples
// hit I. ok is false when every set is skipped. This is the z_I statistic
// of the flatness tests (Algorithms 3 and 4).
func MedianCollisionProb(sets []*dist.Empirical, iv dist.Interval) (est float64, ok bool) {
	vals := make([]float64, 0, len(sets))
	for _, e := range sets {
		if v, _, defined := ObservedCollisionProb(e, iv); defined {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return MedianInPlace(vals), true
}

// MedianCollisionProbParallel is MedianCollisionProb with the per-set
// statistics evaluated across workers. Values are collected in set order
// before the median, so the result is identical to the serial form for
// every worker count. The per-set work is a handful of prefix-sum
// lookups, so parallelism only pays off for the testers' large set counts
// (r = 16 ln(6 n^2)); below minParallelSets the serial form is used.
func MedianCollisionProbParallel(sets []*dist.Empirical, iv dist.Interval, workers int) (est float64, ok bool) {
	if workers <= 1 || len(sets) < minParallelSets {
		return MedianCollisionProb(sets, iv)
	}
	vals := make([]float64, len(sets))
	defined := make([]bool, len(sets))
	par.For(workers, len(sets), func(i int) {
		vals[i], _, defined[i] = ObservedCollisionProb(sets[i], iv)
	})
	kept := vals[:0]
	for i, v := range vals {
		if defined[i] {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return 0, false
	}
	return MedianInPlace(kept), true
}

// minParallelSets is the set count below which the parallel median
// helpers run serially: each per-set statistic is O(1), so spawning
// goroutines for a few dozen sets costs more than it saves.
const minParallelSets = 128

// Median returns the median of vals (the mean of the two middle order
// statistics for even length). It returns 0 for an empty slice and does
// not modify its argument.
func Median(vals []float64) float64 {
	if len(vals) < 2 {
		return MedianInPlace(vals)
	}
	return MedianInPlace(append([]float64(nil), vals...))
}

// MedianInPlace is Median for a caller that owns vals: it permutes vals
// instead of copying it. It selects the middle order statistics in
// expected O(len(vals)) time, and the value is the one a sort would give,
// bit for bit, for any input without NaNs. (+0 and -0 compare equal, so
// when both meet in the middle, which one comes back is unspecified, as
// with a sort.)
func MedianInPlace(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	k := len(vals) / 2
	hi := selectKth(vals, k)
	if len(vals)%2 == 1 {
		return hi
	}
	// Selection left the k smallest values in vals[:k]; the largest of
	// them is the other middle order statistic.
	lo := vals[0]
	for _, v := range vals[1:k] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// selectCutoff is the range length at or below which selectKth finishes
// with an insertion sort instead of partitioning further.
const selectCutoff = 12

// selectKth permutes s so that s[k] holds its k-th smallest value (from
// 0), with no larger value before it and no smaller one after it, and
// returns that value. It is Hoare's FIND: partition around a
// median-of-three pivot, keep the side that holds position k.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for hi-lo >= selectCutoff {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= pivot <= s[i:hi+1], and anything between the
		// two ranges equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		v := s[i]
		j := i
		for ; j > lo && v < s[j-1]; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
	return s[k]
}

// CollectSets draws r independent sample sets of size m from the sampler
// and tabulates each into an Empirical. This matches the sampling pattern
// of Algorithm 1 Step 3 and Algorithm 2 Step 1. All draws come
// sequentially from s's own stream; use CollectSetsSized for the batched,
// concurrent form.
func CollectSets(s dist.Sampler, r, m int) []*dist.Empirical {
	sets := make([]*dist.Empirical, r)
	for i := range sets {
		sets[i] = dist.NewEmpiricalFromSampler(s, m)
	}
	return sets
}

// CollectSetsSized is the batched, concurrency-ready form of CollectSets:
// it draws len(sizes) sample sets, set i of size sizes[i], and tabulates
// each into an Empirical.
//
// When s is Forkable, set i is drawn from an independent stream seeded
// with par.Split(seed, i); the sets depend only on (distribution, seed),
// never on the worker count, so drawing and tabulating proceed
// concurrently across workers with bit-identical results at any
// parallelism degree. Each set goes through dist.NewEmpiricalFromFork,
// so an alias sampler's draws are counted straight into the set. When
// s cannot fork (counting and budget wrappers, custom oracles), every
// draw comes sequentially from s's single stream — again independent
// of the worker count — and only tabulation runs in parallel.
func CollectSetsSized(s dist.Sampler, sizes []int, workers int, seed uint64) []*dist.Empirical {
	sets := make([]*dist.Empirical, len(sizes))
	if f, ok := s.(dist.Forkable); ok {
		par.For(workers, len(sizes), func(i int) {
			sets[i] = dist.NewEmpiricalFromFork(f, par.Split(seed, i), sizes[i])
		})
		return sets
	}
	raw := make([][]int, len(sizes))
	for i, m := range sizes {
		raw[i] = dist.DrawBatch(s, m)
	}
	n := s.N()
	par.For(workers, len(sizes), func(i int) {
		sets[i] = dist.NewEmpirical(raw[i], n)
	})
	return sets
}
