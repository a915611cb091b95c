package histtest

import (
	"math"
	"math/rand"

	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/par"
)

// flatL2 is testFlatness-l2 (Algorithm 3). An interval I is accepted as
// flat when either
//
//  1. some sample set barely hits it (|S^i_I|/m < eps^2/2), so by Fact 1
//     its weight is below eps^2 and its possible contribution to
//     ||p - p'||_2^2 is at most p(I)^2 <= eps^2 p(I); or
//  2. the median observed collision probability z_I is within the noise
//     allowance of the uniform minimum 1/|I|:
//     z_I <= 1/|I| + max_i eps^2 / (2 phat_i(I)), with phat_i = 2|S^i_I|/m.
//
// Rejection certifies ||p_I||_2^2 > 1/|I|, i.e. the conditional
// distribution is provably non-uniform, so I contains a piece boundary.
//
// With workers > 1 the per-set hit fractions and collision statistics are
// evaluated concurrently across the r sets; the light-interval decision
// and the median fold in set order, so the verdict is identical at every
// worker count.
func flatL2(sets []*dist.Empirical, iv dist.Interval, eps float64, workers int) bool {
	if iv.Len() <= 1 {
		return true // single elements are trivially flat
	}
	threshold := eps * eps / 2
	minFrac := minHitFraction(sets, iv, workers)
	if minFrac < threshold {
		return true // light interval: accept (Step 2)
	}
	z, ok := collision.MedianCollisionProbParallel(sets, iv, workers)
	if !ok {
		return true // no set had two hits; certainly light
	}
	// max_i eps^2/(2 phat_i) = eps^2 / (2 * 2 * min_i |S^i_I|/m).
	allowance := eps * eps / (4 * minFrac)
	return z <= 1/float64(iv.Len())+allowance
}

// minHitFraction returns min_i |S^i_I| / m_i over the sample sets,
// splitting the per-set lookups across workers. The minimum is
// order-independent, so any worker count gives the same value.
func minHitFraction(sets []*dist.Empirical, iv dist.Interval, workers int) float64 {
	if workers <= 1 || len(sets) < minParallelFlatSets {
		minFrac := math.Inf(1)
		for _, e := range sets {
			if frac := float64(e.Hits(iv)) / float64(e.M()); frac < minFrac {
				minFrac = frac
			}
		}
		return minFrac
	}
	return par.MapReduce(workers, len(sets),
		func(i int) float64 { return float64(sets[i].Hits(iv)) / float64(sets[i].M()) },
		math.Inf(1),
		func(acc, x float64, _ int) float64 { return math.Min(acc, x) })
}

// minParallelFlatSets mirrors collision.minParallelSets: below it the
// per-set statistics are too cheap to be worth goroutines.
const minParallelFlatSets = 128

// flatL1 is testFlatness-l1 (Algorithm 4). The light test compares each
// set's hit count against 16^3 sqrt(|I|) / eps^4 (the paper's 16/delta^2
// multiplied out with delta = eps^2/16: enough samples for a
// delta-multiplicative collision estimate on a near-uniform interval); the
// collision test allows a (1 + eps^2/4) multiplicative slack over the
// uniform minimum.
//
// The light threshold is applied as a fraction of the set size m: with the
// paper's m = 2^13 sqrt(kn) eps^-5 the cutoff 16^3 sqrt(|I|)/eps^4 equals
// m * (eps/2) sqrt(|I|/(kn)) exactly, and the fractional form stays
// meaningful when SampleScale shrinks m below the worst-case formula.
func flatL1(sets []*dist.Empirical, iv dist.Interval, eps float64, k, n, workers int) bool {
	if iv.Len() <= 1 {
		return true
	}
	lightFrac := eps / 2 * math.Sqrt(float64(iv.Len())/(float64(k)*float64(n)))
	if minHitFraction(sets, iv, workers) < lightFrac {
		return true // light interval: accept (Step 1)
	}
	z, ok := collision.MedianCollisionProbParallel(sets, iv, workers)
	if !ok {
		return true
	}
	return z <= (1+eps*eps/4)/float64(iv.Len())
}

// UniformityResult reports a uniformity-tester run.
type UniformityResult struct {
	Accept      bool
	SamplesUsed int64
	// CollisionProb is the observed collision probability the verdict was
	// based on.
	CollisionProb float64
	// Threshold is the accept cutoff applied to CollisionProb.
	Threshold float64
}

// TestUniformityL1 is the Goldreich-Ron / Batu et al. collision-based
// uniformity tester, included as the k = 1 baseline the paper builds on:
// a uniform distribution is exactly a tiling 1-histogram. It draws
// m = ceil(scale * 16 sqrt(n) / eps^4) samples and accepts iff the
// observed collision probability is at most (1 + eps^2/4) / n.
//
// rng seeds the draw stream: when s is forkable the samples come from an
// independent stream seeded from rng, so repeated tester calls sharing
// one *rand.Rand use fresh streams each time. A nil rng falls back to a
// fixed seed, making the call reproducible in isolation. Non-forkable
// samplers draw from their own stream and rng is not consulted.
//
// If p is uniform, E[coll prob] = 1/n; if p is eps-far from uniform in l1,
// then ||p||_2^2 >= (1 + eps^2)/n by Cauchy-Schwarz, so the statistic
// separates the cases with constant probability at this sample size.
func TestUniformityL1(s dist.Sampler, rng *rand.Rand, eps, scale float64, maxSamples int) (*UniformityResult, error) {
	if !(eps > 0 && eps < 1) || math.IsNaN(eps) {
		return nil, ErrBadEps
	}
	n := s.N()
	if n < 2 {
		return nil, ErrTinyDomain
	}
	if scale <= 0 {
		scale = 1
	}
	e4 := eps * eps * eps * eps
	m := int(math.Ceil(scale * 16 * math.Sqrt(float64(n)) / e4))
	if m < 2 {
		m = 2
	}
	if maxSamples > 0 && m > maxSamples {
		m = maxSamples
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	seed := rng.Uint64()
	var e *dist.Empirical
	if f, ok := s.(dist.Forkable); ok {
		e = dist.NewEmpiricalFromFork(f, seed, m)
	} else {
		e = dist.NewEmpiricalFromSampler(s, m)
	}
	z, _, ok := collision.ObservedCollisionProb(e, dist.Whole(n))
	threshold := (1 + eps*eps/4) / float64(n)
	res := &UniformityResult{
		SamplesUsed:   int64(m),
		CollisionProb: z,
		Threshold:     threshold,
	}
	if !ok {
		// Too few collisions to even measure: indistinguishable from
		// uniform at this sample size.
		res.Accept = true
		return res, nil
	}
	res.Accept = z <= threshold
	return res, nil
}
