package learn

import (
	"math"
	"math/bits"

	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/par"
)

// maxCostTableBytes bounds the costs one table stores. Every candidate
// interval of a table with up to ~1450 endpoints fits (the serving
// layer's default fast learns have a few hundred); above that, the first
// rows are tabled and the rest are evaluated when read.
const maxCostTableBytes = 8 << 20

// costTableBytes is the cap newCostTable applies. It is a variable only
// so tests can lower it and drive the partly-tabled and untabled paths.
var costTableBytes = maxCostTableBytes

// maxStackSets is the largest collision-set count whose estimates the
// kernel keeps in a stack array. Stack scratch is private to the
// goroutine, so concurrent rows never share a cache line through it.
const maxStackSets = 64

// costTable serves the greedy objective's interval cost
//
//	c([ends[i], ends[j])) = z_I - y_I^2/|I|
//
// for every pair of candidate endpoint indices i <= j. The cost depends
// only on the interval and the sample sets, never on the partition, and
// every interval the learner scores has endpoints in ends: candidates by
// construction, and clips and tiles because tile bounds are committed
// candidate endpoints. So one table, filled before the first iteration,
// answers every cost read of every run on its sample sets, whatever the
// run's k and eps. The same weight-hit prefix serves each tile's value
// (see value), so a filled table needs nothing from the sets.
//
// The fill gathers each set's collision prefix and the weight-hit prefix
// at every endpoint into contiguous rows, hoists each set's C(m, 2), and
// records which sets gain collisions between consecutive endpoints. Along
// a row every estimate only grows, so an entry updates just the sets that
// changed, and the median it reads only moves up: the kernel keeps the
// r estimates unsorted and counts how many lie below and at the median
// (see fill). It evaluates exactly the float expressions of the
// definition, so every entry is bit-identical to
//
//	collision.MedianSecondMoment(sets, I) - y*y/float64(|I|)
//
// with y = weights.FractionIn(I). Rows whose entries do not fit under
// costTableBytes are evaluated by the same kernel each time they are read.
// The gathered prefixes take (r+1) int64s per endpoint, at most a third of
// what the tabulated sets they are gathered from already hold, and the
// change masks ceil(r/64) words more.
type costTable struct {
	ends   []int
	r      int
	coll   []int64   // coll[j*r+s]: collisions of set s in [0, ends[j])
	hits   []int64   // hits[j]: weight samples in [0, ends[j])
	words  int       // ceil(r/64), the words of one change mask
	masks  []uint64  // masks[j*words:]: bit s set when coll of set s grows from ends[j-1] to ends[j]
	denom  []float64 // denom[s]: C(m_s, 2), or 1 when that is 0
	ell    float64   // weight sample count
	tabled int       // rows 0..tabled-1 are stored in flat
	flat   []float64 // row i holds c(i, j) for j = i+1..len(ends)-1
}

// newCostTable gathers the prefixes at every endpoint of ends (sorted,
// starting at 0 and ending at the domain size) and fills the rows that
// fit under costTableBytes, in parallel across workers. Each row is a
// pure function of the sample sets, so the table is identical at every
// worker count.
func newCostTable(es *estimator, ends []int, workers int) *costTable {
	r := len(es.sets)
	words := (r + 63) / 64
	t := &costTable{
		ends:  ends,
		r:     r,
		coll:  make([]int64, len(ends)*r),
		hits:  make([]int64, len(ends)),
		words: words,
		masks: make([]uint64, len(ends)*words),
		denom: make([]float64, r),
		ell:   float64(es.weights.M()),
	}
	for j, x := range ends {
		prefix := dist.Interval{Hi: x}
		t.hits[j] = es.weights.Hits(prefix)
		for s, e := range es.sets {
			t.coll[j*r+s] = e.SelfCollisions(prefix)
			if j > 0 && t.coll[j*r+s] != t.coll[(j-1)*r+s] {
				t.masks[j*words+s/64] |= 1 << (s % 64)
			}
		}
	}
	// A set's estimate is its collision count over its C(m, 2), or 0
	// when m < 2. Such a set has no collisions, and 0/1 is that 0.
	for s, e := range es.sets {
		t.denom[s] = collision.Pairs(int64(e.M()))
		if t.denom[s] == 0 {
			t.denom[s] = 1
		}
	}

	capEntries := costTableBytes / 8
	entries := 0
	for t.tabled < len(ends)-1 && entries+t.rowLen(t.tabled) <= capEntries {
		entries += t.rowLen(t.tabled)
		t.tabled++
	}
	t.flat = make([]float64, entries)
	par.ForWorker(workers, t.tabled, func(_, i int) {
		t.fill(i, i+1, t.flat[t.rowStart(i):t.rowStart(i)+t.rowLen(i)])
	})
	return t
}

// rowLen returns the number of entries in row i: one per j > i.
func (t *costTable) rowLen(i int) int { return len(t.ends) - 1 - i }

// rowStart returns the offset of row i in flat.
func (t *costTable) rowStart(i int) int {
	return i*(len(t.ends)-1) - i*(i-1)/2
}

// interval returns the domain interval [ends[i], ends[j]).
func (t *costTable) interval(i, j int) dist.Interval {
	return dist.Interval{Lo: t.ends[i], Hi: t.ends[j]}
}

// value returns the per-element histogram value the learner assigns to
// the tile [ends[i], ends[j]): its weight estimate y_I = |S_I|/ell over
// |I|, clamped at 0 (the paper's y_I is the interval's total weight; the
// histogram stores the per-element constant). It is the float expression
// of weights.FractionIn(I) / float64(|I|), so the bits match. An empty
// interval (j <= i) has value 0.
func (t *costTable) value(i, j int) float64 {
	if j <= i {
		return 0
	}
	v := float64(t.hits[j]-t.hits[i]) / t.ell / float64(t.ends[j]-t.ends[i])
	if v < 0 {
		return 0
	}
	return v
}

// cost returns c([ends[i], ends[j])); an empty interval (j <= i) costs 0.
func (t *costTable) cost(i, j int) float64 {
	if j <= i {
		return 0
	}
	if i < t.tabled {
		return t.flat[t.rowStart(i)+j-i-1]
	}
	var one [1]float64
	t.fill(i, j, one[:])
	return one[0]
}

// row returns c(i, j) for j = i+1..len(ends)-1, indexed by j-i-1: the
// stored row when it is tabled, else buf (of length at least rowLen(i))
// filled by the kernel.
func (t *costTable) row(i int, buf []float64) []float64 {
	if i < t.tabled {
		return t.flat[t.rowStart(i) : t.rowStart(i)+t.rowLen(i)]
	}
	out := buf[:t.rowLen(i)]
	t.fill(i, i+1, out)
	return out
}

// fill is the cost kernel: it writes c(i, j) for j = lo, lo+1, ... into
// out, for lo > i. Set s's estimate at j is its collision count in
// [ends[i], ends[j]) over denom[s], kept unsorted as its bit pattern:
// every estimate is a non-negative count over a denominator of at least
// 1, so it is at least +0, and the bit patterns order as the values do.
// The median needs only values, never which set holds them, so no set
// identity is kept: an orderStat tracks the lower median, the estimate
// at sorted position (r-1)/2, with the counts of estimates below and
// equal to it. A set whose count grows at j (its bit in masks[j]) updates
// those counts in O(1); when the median no longer holds, it moves up by
// O(r) passes. Estimates only grow along a row, so it never moves down.
// For even r the upper middle value is the median itself or, when the
// median's run ends at (r-1)/2, the least estimate above it. These are
// the values MedianInPlace selects and adds, so the median is bit for
// bit the one MedianSecondMoment returns.
func (t *costTable) fill(i, lo int, out []float64) {
	if len(out) == 0 {
		return
	}
	r, words, coll, masks, denom := t.r, t.words, t.coll, t.masks, t.denom
	base := coll[i*r : i*r+r]
	h0, x0 := t.hits[i], t.ends[i]
	var estBuf [maxStackSets]uint64
	var est []uint64
	if r <= maxStackSets {
		est = estBuf[:r]
	} else {
		est = make([]uint64, r)
	}

	row := coll[lo*r : lo*r+r]
	for s := range est {
		est[s] = math.Float64bits(float64(row[s]-base[s]) / denom[s])
	}
	med := newOrderStat(est, (r-1)/2)
	for k := range out {
		j := lo + k
		if k > 0 {
			row = coll[j*r : j*r+r]
			for w, m := range masks[j*words : j*words+words] {
				for ; m != 0; m &= m - 1 {
					s := w*64 + bits.TrailingZeros64(m)
					old, v := est[s], math.Float64bits(float64(row[s]-base[s])/denom[s])
					est[s] = v
					med = med.move(old, v)
				}
			}
			med = med.settle(est)
		}
		z := math.Float64frombits(med.z)
		if r%2 == 0 {
			// The upper middle value is z itself unless z's run ends at
			// position k.
			upper := med.z
			if med.below+med.eq == med.k+1 {
				upper = med.above(est)
			}
			z = (z + math.Float64frombits(upper)) / 2
		}
		y := float64(t.hits[j]-h0) / t.ell
		out[k] = z - y*y/float64(t.ends[j]-x0)
	}
}

// orderStat tracks the k-th smallest (from 0) of a multiset of estimate
// bit patterns: its value z, how many estimates lie below z and how many
// equal it. It holds the k-th smallest while below <= k < below+eq.
type orderStat struct {
	z         uint64
	below, eq int
	k         int
}

// newOrderStat returns the k-th smallest of est (k < len(est)).
func newOrderStat(est []uint64, k int) orderStat {
	o := orderStat{k: k} // z = +0, at or below every estimate
	for _, v := range est {
		o.eq += b2i(v == 0)
	}
	return o.settle(est)
}

// move accounts for one estimate growing from old to v (old <= v). An
// estimate can leave the values at or below z but never join them from
// above, so below+eq only falls; settle restores the invariant.
func (o orderStat) move(old, v uint64) orderStat {
	o.below += b2i(v < o.z) - b2i(old < o.z)
	o.eq += b2i(v == o.z) - b2i(old == o.z)
	return o
}

// settle moves z up to the k-th smallest of est after moves: while at
// most k estimates lie at or below z, z becomes the least estimate above
// it. The passes take a min and a count over every estimate without a
// branch on the data.
func (o orderStat) settle(est []uint64) orderStat {
	for o.below+o.eq <= o.k {
		next := o.above(est)
		o.below += o.eq
		o.z, o.eq = next, 0
		for _, v := range est {
			o.eq += b2i(v == next)
		}
	}
	return o
}

// above returns the least estimate above z; one must exist. The pass
// selects and takes a min on every estimate, with no branch on the data.
func (o orderStat) above(est []uint64) uint64 {
	next := uint64(math.MaxUint64)
	for _, v := range est {
		if v <= o.z {
			v = math.MaxUint64
		}
		next = min(next, v)
	}
	return next
}

// b2i returns 1 for true and 0 for false; the compiler lowers it to a
// flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
