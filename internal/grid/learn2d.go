package grid

import (
	"math"
	"math/rand"
	"sort"

	"khist/internal/dist"
	"khist/internal/par"
)

// Empirical2D tabulates flattened grid samples with a 2D prefix array, so
// rectangle hit counts are O(1) — the 2D analogue of dist.Empirical.
type Empirical2D struct {
	rows, cols int
	m          int
	occ        []int64
	cum        []int64 // (rows+1) x (cols+1)
}

// NewEmpirical2D tabulates row-major flattened samples over the grid.
func NewEmpirical2D(rows, cols int, samples []int) (*Empirical2D, error) {
	if rows <= 0 || cols <= 0 {
		return nil, ErrBadShape
	}
	occ := make([]int64, rows*cols)
	for _, s := range samples {
		if s < 0 || s >= len(occ) {
			return nil, ErrBadRect
		}
		occ[s]++
	}
	return newEmpirical2D(rows, cols, occ), nil
}

// NewEmpirical2DFromCounts tabulates the counts of a set drawn over the
// row-major flattened grid, cell (x, y) holding e.Occ(y*cols+x). It is
// how a set drawn by dist.NewEmpiricalFromFork, which counts each draw
// as it is made, becomes a grid tabulation without a sample slice.
func NewEmpirical2DFromCounts(rows, cols int, e *dist.Empirical) (*Empirical2D, error) {
	if rows <= 0 || cols <= 0 || e.N() != rows*cols {
		return nil, ErrBadShape
	}
	occ := make([]int64, rows*cols)
	for v := range occ {
		occ[v] = e.Occ(v)
	}
	return newEmpirical2D(rows, cols, occ), nil
}

// newEmpirical2D builds the prefix array over the occurrence counts,
// taking ownership of occ.
func newEmpirical2D(rows, cols int, occ []int64) *Empirical2D {
	e := &Empirical2D{rows: rows, cols: cols, occ: occ}
	w := cols + 1
	e.cum = make([]int64, (rows+1)*w)
	for y := 0; y < rows; y++ {
		var rowSum int64
		for x := 0; x < cols; x++ {
			rowSum += occ[y*cols+x]
			e.cum[(y+1)*w+x+1] = e.cum[y*w+x+1] + rowSum
		}
	}
	e.m = int(e.cum[rows*w+cols])
	return e
}

// M returns the number of tabulated samples.
func (e *Empirical2D) M() int { return e.m }

// Rows returns the grid height.
func (e *Empirical2D) Rows() int { return e.rows }

// Cols returns the grid width.
func (e *Empirical2D) Cols() int { return e.cols }

// SizeBytes returns the approximate heap bytes retained by the
// tabulation (occurrence grid plus the 2D prefix array), for the serving
// layer's cache accounting.
func (e *Empirical2D) SizeBytes() int64 {
	const structBytes = 64
	return structBytes + 8*int64(cap(e.occ)) + 8*int64(cap(e.cum))
}

// Hits returns the number of samples inside the rectangle in O(1).
func (e *Empirical2D) Hits(r Rect) int64 {
	r = r.Clamp(e.rows, e.cols)
	if r.Empty() {
		return 0
	}
	w := e.cols + 1
	return e.cum[r.Y1*w+r.X1] - e.cum[r.Y0*w+r.X1] - e.cum[r.Y1*w+r.X0] + e.cum[r.Y0*w+r.X0]
}

// FractionIn returns Hits/m.
func (e *Empirical2D) FractionIn(r Rect) float64 {
	if e.m == 0 {
		return 0
	}
	return float64(e.Hits(r)) / float64(e.m)
}

// Options2D configures the 2D greedy learner.
type Options2D struct {
	Rows, Cols int
	// K is the rectangle budget to compete against; the learner paints
	// q = K ln(1/Eps) rectangles, mirroring the 1D iteration count.
	K   int
	Eps float64
	// Samples is the number of draws tabulated for weight estimates.
	// Zero means 200 * K / Eps (a practical default; the TGIK02 setting
	// has no single closed form here because the sketch replaces
	// sampling).
	Samples int
	// MaxCoords caps the per-axis candidate coordinate count; the
	// coordinate sets are thinned evenly beyond it. Zero means 48. A cap
	// must keep both grid edges, so 1 and negative values are rejected.
	MaxCoords int
	// Iterations overrides q. Zero means ceil(K ln(1/Eps)).
	Iterations int
	// Rand seeds the draw stream: when the sampler is forkable the
	// samples come from an independent stream seeded from one value drawn
	// here, so repeated runs sharing a *rand.Rand use fresh streams. Nil
	// means a fixed-seed source.
	Rand *rand.Rand
	// Parallelism splits the rectangle candidate scan across this many
	// goroutines. Results are bit-identical to the serial scan at every
	// worker count (ties break toward the lexicographically smallest
	// coordinate tuple). Zero or one means serial.
	Parallelism int
}

// workers returns the effective parallelism degree of Parallelism.
func (o Options2D) workers() int { return par.Effective(o.Parallelism) }

// Result2D reports a 2D learner run.
type Result2D struct {
	Hist              *RectHistogram
	SamplesUsed       int64
	Iterations        int
	CandidatesScanned int64
}

// Greedy2D learns a rectangle histogram of an unknown grid distribution
// from samples: the 2D analogue of the paper's fast greedy. Each
// iteration scans candidate rectangles spanned by sampled coordinates and
// paints the one minimizing the estimated squared error
//
//	f(H) = ||H||_2^2 - 2 <p, H>   (= ||p - H||_2^2 - ||p||_2^2),
//
// where ||H||^2 is exact (H is the learner's own paint grid) and <p, H>
// is estimated by the empirical mean of H over the samples. Both deltas
// are O(1) per candidate from 2D prefix arrays rebuilt once per paint,
// so one iteration costs O(cells + candidates). The sampler must produce
// row-major flattened cells (Grid.Flatten provides one).
func Greedy2D(s dist.Sampler, opts Options2D) (*Result2D, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if s.N() != opts.Rows*opts.Cols {
		return nil, ErrBadShape
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}

	// Forkable samplers draw from an independent stream seeded from
	// opts.Rand, so repeated runs sharing a *rand.Rand draw fresh
	// streams, and count each draw into the set as it is made; the
	// draws never depend on the worker count. Other samplers draw from
	// their own stream.
	seed, m := rng.Uint64(), opts.SampleSize()
	var emp *Empirical2D
	var err error
	if f, ok := s.(dist.Forkable); ok {
		emp, err = NewEmpirical2DFromCounts(opts.Rows, opts.Cols, dist.NewEmpiricalFromFork(f, seed, m))
	} else {
		emp, err = NewEmpirical2D(opts.Rows, opts.Cols, dist.DrawBatch(s, m))
	}
	if err != nil {
		return nil, err
	}
	return Greedy2DFromTabulated(emp, opts)
}

// Validate checks the shape and algorithm parameters shared by Greedy2D
// and Greedy2DFromTabulated, so a caller can reject bad options before
// it draws.
func (o Options2D) Validate() error {
	if o.Rows <= 0 || o.Cols <= 0 {
		return ErrBadShape
	}
	if o.K < 1 {
		return ErrBadK
	}
	if !(o.Eps > 0 && o.Eps < 1) || math.IsNaN(o.Eps) {
		return ErrBadEps
	}
	if o.MaxCoords < 0 || o.MaxCoords == 1 {
		return ErrBadCoords
	}
	return nil
}

// SampleSize returns the number of draws Greedy2D tabulates under these
// options, without drawing: Samples when set, otherwise the 200*K/Eps
// default. The serving layer uses it to key its tabulation cache.
func (o Options2D) SampleSize() int {
	if o.Samples > 0 {
		return o.Samples
	}
	return int(200 * float64(o.K) / o.Eps)
}

// Greedy2DFromTabulated runs the 2D greedy learner on an
// already-tabulated sample set instead of drawing from a live oracle —
// the serving layer's entry point. The tabulation is read-only
// throughout, so one cached Empirical2D serves any number of concurrent
// runs, and for a fixed tabulation the result is bit-identical at every
// Parallelism.
func Greedy2DFromTabulated(emp *Empirical2D, opts Options2D) (*Result2D, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if emp == nil || emp.Rows() != opts.Rows || emp.Cols() != opts.Cols {
		return nil, ErrBadShape
	}
	if emp.M() < 2 {
		return nil, ErrNoSamples
	}
	lnInv := math.Log(1 / opts.Eps)
	if lnInv < 1 {
		lnInv = 1
	}
	q := opts.Iterations
	if q <= 0 {
		q = int(math.Ceil(float64(opts.K) * lnInv))
	}
	maxCoords := opts.MaxCoords
	if maxCoords == 0 {
		maxCoords = 48
	}

	xs, ys := candidateCoords(emp, maxCoords)

	rows, cols := opts.Rows, opts.Cols
	hist, err := NewRectHistogram(rows, cols)
	if err != nil {
		return nil, err
	}
	// Start from the best-fit constant over the whole grid, as in 1D.
	whole := Rect{0, 0, cols, rows}
	hist.Add(whole, 1/float64(rows*cols))

	// paint holds the current H values; the three prefix arrays give O(1)
	// rectangle sums of H, H^2 and occ*H. Each product is rounded on its
	// own (float64(...)) before it is summed, so no GOARCH fuses the two.
	paint := hist.Render()
	w := cols + 1
	sumH := make([]float64, (rows+1)*w)
	sumH2 := make([]float64, (rows+1)*w)
	sumEH := make([]float64, (rows+1)*w)
	rebuild := func() {
		for y := 0; y < rows; y++ {
			var rh, rh2, reh float64
			for x := 0; x < cols; x++ {
				v := paint[y*cols+x]
				rh += v
				rh2 += float64(v * v)
				reh += float64(float64(emp.occ[y*cols+x]) * v)
				sumH[(y+1)*w+x+1] = sumH[y*w+x+1] + rh
				sumH2[(y+1)*w+x+1] = sumH2[y*w+x+1] + rh2
				sumEH[(y+1)*w+x+1] = sumEH[y*w+x+1] + reh
			}
		}
	}
	rebuild()

	var scanned int64
	mf := float64(emp.M())
	workers := par.Workers(opts.workers(), len(xs))
	for it := 0; it < q; it++ {
		sc := scanRects(emp, xs, ys, sumH2, sumEH, w, mf, workers)
		scanned += sc.scanned
		if !sc.ok {
			break // degenerate coordinate sets
		}
		bestR := Rect{xs[sc.xi], ys[sc.yi], xs[sc.xj], ys[sc.yj]}
		hist.Add(bestR, sc.v)
		for y := bestR.Y0; y < bestR.Y1; y++ {
			for x := bestR.X0; x < bestR.X1; x++ {
				paint[y*cols+x] = sc.v
			}
		}
		rebuild()
	}
	return &Result2D{
		Hist:              hist,
		SamplesUsed:       int64(emp.M()),
		Iterations:        q,
		CandidatesScanned: scanned,
	}, nil
}

// rectOutcome is the winner of one rectangle scan: coordinate indexes
// into (xs, ys), the paint value, and the scan accounting.
type rectOutcome struct {
	delta   float64
	v       float64
	xi, xj  int
	yi, yj  int
	scanned int64
	ok      bool
}

// better reports whether candidate x beats y under the deterministic
// ordering: strictly smaller delta, ties broken toward the
// lexicographically smaller (xi, xj, yi, yj) — exactly the serial scan's
// iteration order, so merging stripe winners under this order reproduces
// the serial result at every worker count.
func (x rectOutcome) better(y rectOutcome) bool {
	if !y.ok {
		return x.ok
	}
	if !x.ok {
		return false
	}
	if x.delta != y.delta {
		return x.delta < y.delta
	}
	if x.xi != y.xi {
		return x.xi < y.xi
	}
	if x.xj != y.xj {
		return x.xj < y.xj
	}
	if x.yi != y.yi {
		return x.yi < y.yi
	}
	return x.yj < y.yj
}

// scanRects evaluates every candidate rectangle spanned by the coordinate
// sets and returns the cost-minimizing one. The scan is striped across
// workers by the left x coordinate; every input (the tabulation and the
// prefix arrays of the current paint) is read-only during the scan, so
// stripes share them without copies.
func scanRects(emp *Empirical2D, xs, ys []int, sumH2, sumEH []float64, w int, mf float64, workers int) rectOutcome {
	if workers <= 1 {
		return scanRectStripe(emp, xs, ys, sumH2, sumEH, w, mf, 0, 1)
	}
	results := make([]rectOutcome, workers)
	par.ForWorker(workers, workers, func(_, stripe int) {
		results[stripe] = scanRectStripe(emp, xs, ys, sumH2, sumEH, w, mf, stripe, workers)
	})
	var best rectOutcome
	var total int64
	for _, r := range results {
		total += r.scanned
		if r.better(best) {
			best = r
		}
	}
	best.scanned = total
	return best
}

// scanRectStripe scans the candidates whose left x coordinate index is
// congruent to stripe modulo stride. Striping balances work: small xi
// values span many candidate rectangles. The coordinates are sorted,
// distinct and inside the grid, so every candidate is its own clamp and
// has a positive area, and its prefix reads need no Rect: the y0 row's
// reads are hoisted out of the yj loop. The float expressions are those
// of Empirical2D.Hits and rectSum, evaluated in the same order; a
// product that feeds a sum is converted with float64(...), which rounds
// it, so no GOARCH fuses the two. A stripe visits candidates in
// increasing (xi, xj, yi, yj) order, better's tie order, so a later
// candidate wins only on a strictly smaller delta.
func scanRectStripe(emp *Empirical2D, xs, ys []int, sumH2, sumEH []float64, w int, mf float64, stripe, stride int) rectOutcome {
	cum := emp.cum
	var (
		bestDelta, bestV   float64
		bxi, bxj, byi, byj int
		found              bool
		scanned            int64
	)
	pairs := int64(len(ys)) * int64(len(ys)-1) / 2
	for xi := stripe; xi < len(xs); xi += stride {
		x0 := xs[xi]
		scanned += int64(len(xs)-1-xi) * pairs
		for xj := xi + 1; xj < len(xs); xj++ {
			x1 := xs[xj]
			for yi, y0 := range ys {
				r0 := y0 * w
				c00, c01 := cum[r0+x0], cum[r0+x1]
				h00, h01 := sumH2[r0+x0], sumH2[r0+x1]
				e00, e01 := sumEH[r0+x0], sumEH[r0+x1]
				for yj := yi + 1; yj < len(ys); yj++ {
					y1 := ys[yj]
					r1 := y1 * w
					area := float64((x1 - x0) * (y1 - y0))
					hits := float64(cum[r1+x1] - c01 - cum[r1+x0] + c00)
					v := hits / mf / area
					s2 := sumH2[r1+x1] - h01 - sumH2[r1+x0] + h00
					if s2 < 0 {
						s2 = 0
					}
					se := sumEH[r1+x1] - e01 - sumEH[r1+x0] + e00
					if se < 0 {
						se = 0
					}
					// delta ||H||^2 = v^2*area - sum H^2 over r.
					dH2 := float64(v*v*area) - s2
					// delta <p,H> ~ v*w(r) - sum occ*H / m.
					dPH := v*hits/mf - se/mf
					delta := dH2 - float64(2*dPH)
					if delta < bestDelta || !found {
						bestDelta, bestV, found = delta, v, true
						bxi, bxj, byi, byj = xi, xj, yi, yj
					}
				}
			}
		}
	}
	return rectOutcome{delta: bestDelta, v: bestV, xi: bxi, xj: bxj, yi: byi, yj: byj, scanned: scanned, ok: found}
}

// candidateCoords builds the per-axis coordinate sets: distinct sampled
// coordinates and their +1 neighbours plus the grid edges, evenly thinned
// to maxCoords entries per axis.
func candidateCoords(e *Empirical2D, maxCoords int) (xs, ys []int) {
	xset := map[int]struct{}{0: {}, e.cols: {}}
	yset := map[int]struct{}{0: {}, e.rows: {}}
	for y := 0; y < e.rows; y++ {
		for x := 0; x < e.cols; x++ {
			if e.occ[y*e.cols+x] == 0 {
				continue
			}
			xset[x] = struct{}{}
			yset[y] = struct{}{}
			if x+1 <= e.cols {
				xset[x+1] = struct{}{}
			}
			if y+1 <= e.rows {
				yset[y+1] = struct{}{}
			}
		}
	}
	xs = thinSorted(keys(xset), maxCoords)
	ys = thinSorted(keys(yset), maxCoords)
	return xs, ys
}

func keys(set map[int]struct{}) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// thinSorted keeps at most max entries of a sorted slice, always keeping
// the first and last and sampling the interior evenly.
func thinSorted(a []int, max int) []int {
	if len(a) <= max || max < 2 {
		return a
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		idx := i * (len(a) - 1) / (max - 1)
		out = append(out, a[idx])
	}
	// Deduplicate (even sampling can repeat on short inputs).
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}
