package learn

import (
	"khist/internal/collision"
	"khist/internal/dist"
)

// estimator holds the sample sets of one learner run: the ell weight
// samples behind Algorithm 1's weight statistic
//
//	y(I) = |S_I| / ell            (Step 2; estimates the weight p(I))
//
// and the r collision sets behind its second-moment statistic z(I)
// (Step 4). costTable gathers both once per table and serves the
// interval cost built from them and each tile's value y(I)/|I|.
type estimator struct {
	weights *dist.Empirical   // the ell weight samples S
	sets    []*dist.Empirical // the r collision sample sets S^1..S^r
}

// newEstimator draws all sample sets for one learner run through the
// batched sample plane: the weight set (size ell) and the r collision
// sets (size m each) are drawn as r+1 independent tasks via
// collision.CollectSetsSized, so a forkable sampler fills them
// concurrently while non-forkable oracles fall back to sequential draws.
// Either way the sets are identical for every worker count.
func newEstimator(s dist.Sampler, p params, workers int, seed uint64) *estimator {
	sizes := make([]int, p.r+1)
	sizes[0] = p.ell
	for i := 1; i <= p.r; i++ {
		sizes[i] = p.m
	}
	all := collision.CollectSetsSized(s, sizes, workers, seed)
	return &estimator{weights: all[0], sets: all[1:]}
}

// samplesUsed returns the total number of draws the estimator consumed.
func (es *estimator) samplesUsed() int64 {
	total := int64(es.weights.M())
	for _, e := range es.sets {
		total += int64(e.M())
	}
	return total
}
