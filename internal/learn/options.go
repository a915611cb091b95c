// Package learn implements the paper's learning contribution (Section 3):
// greedy construction of a priority k-histogram whose squared l2 distance
// to the sampled distribution p is within an additive O(epsilon) of the
// best tiling k-histogram.
//
// Two algorithms are provided. Greedy is Algorithm 1: each of the
// q = k ln(1/eps) iterations scans every interval of [n] and commits the
// one minimizing the estimated cost. FastGreedy is the Theorem 2 variant:
// the scan is restricted to intervals whose endpoints are samples or
// neighbours of samples, while degrading the additive error from 5 eps to
// 8 eps.
//
// An interval's cost does not depend on the partition, so both fill a
// table of every candidate's cost before the first iteration, for E
// candidate endpoints (n+1 for Greedy, at most 3 ell + 2 for FastGreedy)
// and r collision sets: O(E r) prefix gathers, then along each row one
// sort of the r sets' values and one move per collision-count change. A
// move can pass up to r-1 values, so the fill is O(E^2 r^2) in the worst
// case; at n = 256 and r = 13 it makes about 3.6 moves per entry, of
// under one step each. Each iteration then makes O(E^2) comparisons.
// Both draw O~((k/eps)^2 log n) samples; since ell is of that order too,
// FastGreedy's running time is about the square of its sample
// complexity. The cost depends on the sample sets and the scan mode, not
// on k or eps, so NewTable fills a Table that any number of runs
// (Table.Run) share; FromTabulated fills one and runs it once. Each
// table is capped at 8 MiB of costs; rows past the cap are recomputed
// each iteration.
//
// Both consume only a dist.Sampler; they never read a pmf.
package learn

import (
	"errors"
	"math"
	"math/rand"

	"khist/internal/par"
)

// Errors returned by the learners.
var (
	ErrBadK           = errors.New("learn: k must be at least 1")
	ErrBadEps         = errors.New("learn: eps must lie in (0, 1)")
	ErrBadScale       = errors.New("learn: SampleScale must be positive")
	ErrTinyDomain     = errors.New("learn: domain must have at least 2 elements")
	ErrNoSamples      = errors.New("learn: FromSamples needs at least 2 weight samples and non-empty collision sets")
	ErrDomainMismatch = errors.New("learn: tabulated sample sets cover a different domain size")
)

// Options configures the greedy learners. The zero value is not valid: K
// and Eps must be set. All other fields default sensibly.
type Options struct {
	// K is the number of histogram pieces to compete against: the output
	// is compared to the best tiling K-histogram.
	K int
	// Eps is the accuracy parameter: the output's squared l2 error exceeds
	// the optimum by at most 5*Eps (Greedy) or 8*Eps (FastGreedy), with
	// the paper's constants.
	Eps float64
	// Rand seeds the learner's stream-splitting: one value is drawn from
	// it per run and fanned out (via par.Split) into an independent seed
	// per sample set, so forkable samplers can fill the sets
	// concurrently. If nil, a fixed-seed source is used so runs are
	// reproducible by default; pass a shared *rand.Rand to make repeated
	// runs draw distinct streams.
	Rand *rand.Rand
	// SampleScale multiplies the paper's sample-size formulas. The paper's
	// constants are worst-case; values well below 1 typically suffice in
	// practice and keep experiments fast. Zero means 1 (paper constants).
	SampleScale float64
	// Iterations overrides the number of greedy iterations q. Zero means
	// the paper's q = ceil(K * ln(1/Eps)).
	Iterations int
	// MaxSamplesPerSet caps each drawn sample set (both the weight-
	// estimate set and each collision set), guarding against accidental
	// multi-gigabyte runs when Eps is tiny. Zero means no cap.
	MaxSamplesPerSet int
	// Parallelism splits the learner's heavy phases — drawing and
	// tabulating the sample sets (when the sampler is forkable), filling
	// the interval-cost table, and the candidate scan — across this many
	// goroutines. Results are bit-identical to the serial run
	// at every worker count: sample streams are assigned per set, not per
	// worker, and scan ties break toward the lexicographically smallest
	// interval. Zero or one means serial.
	Parallelism int
}

// workers returns the effective parallelism degree of Parallelism.
func (o Options) workers() int { return par.Effective(o.Parallelism) }

func (o Options) validate() error {
	if o.K < 1 {
		return ErrBadK
	}
	if !(o.Eps > 0 && o.Eps < 1) || math.IsNaN(o.Eps) {
		return ErrBadEps
	}
	if o.SampleScale < 0 {
		return ErrBadScale
	}
	return nil
}

func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(1))
}

// params holds the derived sample-complexity parameters of Algorithm 1.
type params struct {
	xi  float64 // accuracy of per-interval estimates: eps / (k ln(1/eps))
	q   int     // greedy iterations: ceil(k ln(1/eps))
	ell int     // weight-estimate samples: ln(12 n^2) / (2 xi^2)
	r   int     // collision sample sets: ceil(ln(6 n^2))
	m   int     // samples per collision set: 24 / xi^2
}

// derive computes the paper's parameters for domain size n, applying
// SampleScale and MaxSamplesPerSet.
func (o Options) derive(n int) params {
	lnInv := math.Log(1 / o.Eps)
	if lnInv < 1 {
		lnInv = 1 // guard: the paper assumes eps < 1/e territory
	}
	xi := o.Eps / (float64(o.K) * lnInv)

	q := o.Iterations
	if q <= 0 {
		q = int(math.Ceil(float64(o.K) * lnInv))
	}

	scale := o.SampleScale
	if scale == 0 {
		scale = 1
	}
	nf := float64(n)
	ell := int(math.Ceil(scale * math.Log(12*nf*nf) / (2 * xi * xi)))
	r := int(math.Ceil(math.Log(6 * nf * nf)))
	m := int(math.Ceil(scale * 24 / (xi * xi)))

	if ell < 2 {
		ell = 2
	}
	if m < 2 {
		m = 2
	}
	if r < 1 {
		r = 1
	}
	if o.MaxSamplesPerSet > 0 {
		if ell > o.MaxSamplesPerSet {
			ell = o.MaxSamplesPerSet
		}
		if m > o.MaxSamplesPerSet {
			m = o.MaxSamplesPerSet
		}
	}
	return params{xi: xi, q: q, ell: ell, r: r, m: m}
}

// SampleComplexity returns the total number of samples the learner will
// draw for domain size n under these options, without drawing any. Useful
// for sample-complexity experiments and for sizing budgets.
func (o Options) SampleComplexity(n int) int64 {
	if err := o.validate(); err != nil {
		return 0
	}
	p := o.derive(n)
	return int64(p.ell) + int64(p.r)*int64(p.m)
}

// SetSizes returns the sample-set profile the learner would draw for
// domain size n under these options, without drawing: ell weight samples
// and r collision sets of m samples each. The serving layer uses it to
// key its sample-set cache and to draw the sets itself before calling
// FromTabulated.
func (o Options) SetSizes(n int) (ell, r, m int, err error) {
	if err := o.validate(); err != nil {
		return 0, 0, 0, err
	}
	if n < 2 {
		return 0, 0, 0, ErrTinyDomain
	}
	p := o.derive(n)
	return p.ell, p.r, p.m, nil
}
