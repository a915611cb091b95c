package dist

import (
	"math/rand"

	"khist/internal/par"
)

// Sampler yields i.i.d. draws from a distribution over [N()]. It is the
// only access the paper's sub-linear algorithms have to the unknown
// distribution: they never read a pmf.
//
// A Sampler is single-stream: its draws come from one internal RNG, so it
// must not be shared across goroutines. Samplers that also implement
// Forkable can hand out independent streams for concurrent use; see the
// README's "Concurrency model" section.
type Sampler interface {
	// Sample returns one draw from the distribution.
	Sample() int
	// N returns the domain size.
	N() int
}

// BatchSampler is implemented by samplers with a fast bulk-draw path that
// amortizes per-draw call overhead. SampleInto must be equivalent to
// len(dst) successive Sample calls (same stream, same values).
type BatchSampler interface {
	Sampler
	// SampleInto fills dst with consecutive draws.
	SampleInto(dst []int)
}

// Forkable is implemented by samplers that can produce an independent
// sampler over the same distribution, driven by its own seeded stream.
// Fork must not perturb the parent's stream, and forks must be usable
// concurrently with the parent and with each other. This is what lets the
// algorithms draw their sample sets in parallel while staying bit-
// reproducible: each set gets a stream seeded by par.Split of one base
// seed, so the sets do not depend on the worker count.
type Forkable interface {
	Sampler
	// Fork returns an independent sampler whose stream is seeded by seed.
	Fork(seed uint64) Sampler
}

// TryFork returns an independent sampler forked from s with the given
// stream seed, or nil when s cannot fork. Callers fall back to drawing
// serially from s itself when it returns nil.
func TryFork(s Sampler, seed uint64) Sampler {
	if f, ok := s.(Forkable); ok {
		return f.Fork(seed)
	}
	return nil
}

// SampleInto fills dst with draws from s, using the sampler's bulk path
// when it has one.
func SampleInto(s Sampler, dst []int) {
	if bs, ok := s.(BatchSampler); ok {
		bs.SampleInto(dst)
		return
	}
	for i := range dst {
		dst[i] = s.Sample()
	}
}

// DrawBatch collects m draws from s into a new slice via the sampler's
// bulk path when available. It is the allocation-owning form of
// SampleInto.
func DrawBatch(s Sampler, m int) []int {
	if m <= 0 {
		return []int{}
	}
	dst := make([]int, m)
	SampleInto(s, dst)
	return dst
}

// aliasSampler draws in O(1) via Walker's alias method: a fair die over n
// columns, each column holding at most two outcomes.
type aliasSampler struct {
	n     int
	prob  []float64 // acceptance probability of column i's primary outcome
	alias []int     // the column's secondary outcome
	rng   *rand.Rand
}

// NewSampler returns an O(1)-per-draw alias-method sampler for d, with
// O(n) deterministic setup. Identical (d, seed) pairs reproduce identical
// draw sequences.
func NewSampler(d *Distribution, rng *rand.Rand) Sampler {
	n := d.N()
	a := &aliasSampler{
		n:     n,
		prob:  make([]float64, n),
		alias: make([]int, n),
		rng:   rng,
	}

	// Vose's stable construction: scale each mass to mean 1, then
	// repeatedly pair a deficient ("small") column with a surplus
	// ("large") one. Worklists are LIFO slices, so the construction is
	// deterministic.
	total := d.cum[n]
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i := 0; i < n; i++ {
		scaled[i] = d.pmf[i] / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly-full columns up to rounding.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

func (a *aliasSampler) Sample() int {
	i := a.rng.Intn(a.n)
	if a.rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

func (a *aliasSampler) N() int { return a.n }

// SampleInto fills dst with consecutive draws from the sampler's stream,
// identical to len(dst) Sample calls but without the per-draw interface
// dispatch.
func (a *aliasSampler) SampleInto(dst []int) {
	rng, prob, alias := a.rng, a.prob, a.alias
	for j := range dst {
		i := rng.Intn(a.n)
		if rng.Float64() < prob[i] {
			dst[j] = i
		} else {
			dst[j] = alias[i]
		}
	}
}

// Fork returns an independent sampler over the same distribution: the
// alias tables (read-only after construction) are shared, only the stream
// is fresh. The parent's stream is untouched, so forks are safe to use
// concurrently with the parent and each other.
func (a *aliasSampler) Fork(seed uint64) Sampler {
	return &aliasSampler{n: a.n, prob: a.prob, alias: a.alias, rng: par.NewRand(seed)}
}

// tabulateFork draws m samples from the stream Fork(seed) would own and
// tabulates them: the draws of Fork(seed).SampleInto, made on the
// concrete SplitMix64 source (the same words, the same values) and
// counted straight into the set's occurrence array, so no sample slice
// is built and no draw dispatches through rand.Source.
func (a *aliasSampler) tabulateFork(seed uint64, m int) *Empirical {
	src := par.NewSource(seed)
	n, prob, alias := a.n, a.prob, a.alias
	occ := make([]int64, n)
	for j := 0; j < m; j++ {
		i := src.Intn(n)
		if src.Float64() < prob[i] {
			occ[i]++
		} else {
			occ[alias[i]]++
		}
	}
	return tabulate(occ)
}

// NewEmpiricalFromFork tabulates m draws from the fork of s seeded with
// seed; it equals NewEmpiricalFromSampler(s.Fork(seed), m). Samplers
// from NewSampler take the fused alias kernel, which counts each draw
// into the tabulation as it is made; any other Forkable draws through
// its fork.
func NewEmpiricalFromFork(s Forkable, seed uint64, m int) *Empirical {
	if a, ok := s.(*aliasSampler); ok {
		return a.tabulateFork(seed, m)
	}
	return NewEmpiricalFromSampler(s.Fork(seed), m)
}

// CountingSampler wraps a Sampler with a draw counter, for
// sample-complexity accounting in experiments and tests.
type CountingSampler struct {
	inner Sampler
	count int64
}

// NewCountingSampler wraps s with a draw counter starting at zero.
func NewCountingSampler(s Sampler) *CountingSampler {
	return &CountingSampler{inner: s}
}

// Sample draws from the wrapped sampler and increments the counter.
func (c *CountingSampler) Sample() int {
	c.count++
	return c.inner.Sample()
}

// N returns the wrapped sampler's domain size.
func (c *CountingSampler) N() int { return c.inner.N() }

// Count returns the number of draws since construction or the last Reset.
func (c *CountingSampler) Count() int64 { return c.count }

// Reset zeroes the draw counter.
func (c *CountingSampler) Reset() { c.count = 0 }

// BudgetSampler wraps a Sampler with a soft draw budget: draws past the
// budget still succeed (so callers need no error handling on the hot
// path) but latch the Exceeded flag.
type BudgetSampler struct {
	inner  Sampler
	budget int64
	drawn  int64
}

// NewBudgetSampler wraps s with the given draw budget.
func NewBudgetSampler(s Sampler, budget int64) *BudgetSampler {
	return &BudgetSampler{inner: s, budget: budget}
}

// Sample draws from the wrapped sampler, counting against the budget.
func (b *BudgetSampler) Sample() int {
	b.drawn++
	return b.inner.Sample()
}

// N returns the wrapped sampler's domain size.
func (b *BudgetSampler) N() int { return b.inner.N() }

// Exceeded reports whether more draws than the budget have been made.
func (b *BudgetSampler) Exceeded() bool { return b.drawn > b.budget }

// Drawn returns the number of draws made so far.
func (b *BudgetSampler) Drawn() int64 { return b.drawn }

// Draw collects m draws from s into a slice. It is DrawBatch under its
// historical name.
func Draw(s Sampler, m int) []int {
	return DrawBatch(s, m)
}
