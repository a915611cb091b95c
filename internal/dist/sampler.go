package dist

import (
	"math"
	"math/bits"
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
// tabulates them: the draws of Fork(seed).SampleInto (the same output
// words, the same values), counted straight into the set's occurrence
// array by drawCounts, so no sample slice is built. The set carries the
// draw marker (seed, end state). It needs n <= 2^31-1, where
// math/rand's Intn is its Int31n; NewEmpiricalFromFork checks that.
func (a *aliasSampler) tabulateFork(seed uint64, m int) *Empirical {
	occ := make([]int64, a.n)
	return tabulateDrawn(occ, seed, a.drawCounts(occ, seed, m))
}

// drawCounts is the fused kernel's word-to-sample loop: it makes m
// draws of the stream whose SplitMix64 state is state, counts each
// drawn value into occ, and returns the state after the last draw.
// tabulateFork and every derivation count through it, so a derived set
// and a fresh draw read the same words the same way.
//
// The loop keeps the SplitMix64 state in a local variable and takes
// each draw's two words straight from par.Mix, so the state never goes
// through memory and nothing is called. The first word is Int31n(n):
// its top 31 bits v, redrawn while v > limit = 2^31-1 - (2^31 mod n) so
// that the values kept fill whole multiples of n, then v mod n by
// remainder31, so no division runs per draw. The second word is
// Float64: its top 63 bits over 2^63, redrawn when that rounds to 1.0.
// The redraws are rare: Int31n's with probability below n/2^31 (never
// for a power of two), Float64's with probability 2^-54. Without one,
// draw j of a stream reads its words 2j+1 and 2j+2. The alias coin is
// aliasPick, which picks i or alias[i] without a conditional jump.
func (a *aliasSampler) drawCounts(occ []int64, state uint64, m int) uint64 {
	// Every slice cut to length n: their bounds checks then use the
	// register that holds n for the remainder, and alias[i] needs none.
	n := a.n
	prob, alias, occ := a.prob[:n], a.alias[:n], occ[:n]
	un := uint64(n)
	limit := uint64(1<<31 - 1 - (1<<31)%un)
	recip := ^uint64(0)/un + 1
	for j := 0; j < m; j++ {
		state += par.Gamma
		v := par.Mix(state) >> 33
		for v > limit {
			state += par.Gamma
			v = par.Mix(state) >> 33
		}
		i := int(remainder31(v, un, recip))
		state += par.Gamma
		f := unitFloat(par.Mix(state))
		for f == 1 {
			state += par.Gamma
			f = unitFloat(par.Mix(state))
		}
		occ[aliasPick(f, prob[i], i, alias[i])]++
	}
	return state
}

// derive builds the set of m draws on near's stream from near, whose
// DeriveDraws(m) is below m. An extension draws on from near's end
// state. A trim needs near drawn without a redraw: then its draw j read
// words 2j+1 and 2j+2, so draws m ... near.m-1 are redrawn from the
// state seed + 2m*Gamma and taken back out, and the trimmed set ends
// at that state. drawCounts only adds, so a trim counts the draws into
// near's negated counts and negates the sum back. It returns the set
// and the samples drawn.
func (a *aliasSampler) derive(near *Empirical, m int) (*Empirical, int) {
	occ := make([]int64, a.n)
	seed, end := near.fork.seed, near.fork.end
	d := m - near.m
	if d >= 0 {
		copy(occ, near.occ)
		end = a.drawCounts(occ, end, d)
		return tabulateDrawn(occ, seed, end), d
	}
	for v, c := range near.occ {
		occ[v] = -c
	}
	end = seed + 2*uint64(m)*par.Gamma
	a.drawCounts(occ, end, -d)
	for v, c := range occ {
		occ[v] = -c
	}
	return tabulateDrawn(occ, seed, end), -d
}

// remainder31 is v mod n for v and n below 2^32, given
// recip = ^uint64(0)/n + 1: the high word of (v*recip mod 2^64) * n,
// two multiplies in place of a division (Lemire, Kaser & Kurz, "Faster
// Remainder by Direct Computation", 2019, exact for 32-bit operands).
func remainder31(v, n, recip uint64) uint64 {
	hi, _ := bits.Mul64(v*recip, n)
	return hi
}

// unitFloat is math/rand's Float64 before its resample: the word's top
// 63 bits over 2^63. The division compiles to an exact multiply by
// 2^-63, and the conversion around it rounds the quotient on its own,
// so no fused multiply-subtract can form with the caller's f - p (the
// Go spec lets a compiler fuse x*y - z unless x*y is converted).
func unitFloat(w uint64) float64 {
	return float64(float64(int64(w>>1)) / (1 << 63))
}

// aliasPick is the alias coin without a branch: i when f < p, else
// alt. For finite f and p, with f never -0 (it is a draw in [0, 1)),
// the sign bit of the rounded difference f - p is set exactly when
// f < p: IEEE 754 rounds a nonzero exact difference to a nonzero value
// of the same sign (gradual underflow makes x - y == 0 only for
// x == y), and x - x is +0. The sign bit, spread over a word, masks
// the choice, and both outcomes are loaded whichever is picked.
func aliasPick(f, p float64, i, alt int) int {
	lt := int(int64(math.Float64bits(f-p)) >> 63)
	return alt ^ (alt^i)&lt
}

// NewEmpiricalFromFork tabulates m draws from the fork of s seeded with
// seed; it equals NewEmpiricalFromSampler(s.Fork(seed), m). Samplers
// from NewSampler take the fused alias kernel, which counts each draw
// into the tabulation as it is made; any other Forkable, and an alias
// sampler over n > 2^31-1 (where math/rand's Intn switches to Int63n),
// draws through its fork.
func NewEmpiricalFromFork(s Forkable, seed uint64, m int) *Empirical {
	e, _ := NewEmpiricalFromForkNear(s, seed, m, nil)
	return e
}

// NewEmpiricalFromForkNear returns exactly NewEmpiricalFromFork(s, seed,
// m), built from near when near is a set of the same stream: drawn by
// the fused kernel from the fork seeded with seed of a sampler over the
// same distribution as s (the caller vouches for the distribution; the
// seed and domain are checked). It then draws only the DeriveDraws(m)
// samples between near's size and m, through the kernel's own loop;
// otherwise, near nil included, it draws afresh, so it never draws more
// than NewEmpiricalFromFork. It also returns the samples it drew.
func NewEmpiricalFromForkNear(s Forkable, seed uint64, m int, near *Empirical) (*Empirical, int) {
	a, ok := s.(*aliasSampler)
	if !ok || a.n > 1<<31-1 {
		return NewEmpiricalFromSampler(s.Fork(seed), m), m
	}
	if near.DeriveDraws(m) >= m || near.n != a.n || near.fork.seed != seed {
		return a.tabulateFork(seed, m), m
	}
	return a.derive(near, m)
}

// DeriveDraws returns the samples NewEmpiricalFromForkNear draws to
// build a set of m samples on e's stream from e: |m - e.M()| when e
// carries the draw marker and, for a trim (m < e.M()), was drawn
// without a redraw, i.e. its end state is seed + 2*e.M()*Gamma; m, a
// fresh draw, when e is nil or unmarked, when a trim meets a redraw, or
// when the difference is no smaller than m.
func (e *Empirical) DeriveDraws(m int) int {
	if e == nil || !e.fork.drawn {
		return m
	}
	d := m - e.m
	if d < 0 {
		if e.fork.end != e.fork.seed+2*uint64(e.m)*par.Gamma {
			return m
		}
		d = -d
	}
	return min(d, m)
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
