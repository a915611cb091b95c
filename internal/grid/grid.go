// Package grid extends the paper's machinery to two-dimensional domains,
// following the lineage the paper itself cites: its Section 3 greedy is
// "inspired by a sketching algorithm in [TGIK02]" — Thaper, Guha, Indyk,
// Koudas, *Dynamic Multidimensional Histograms*, SIGMOD 2002 — whose
// native setting is multidimensional. The package provides
//
//   - Grid: an explicit distribution over a rows x cols grid with O(1)
//     rectangle weights and second moments (2D prefix sums);
//   - RectHistogram: a priority rectangle histogram (later rectangles
//     overwrite earlier ones, exactly the 1D priority semantics lifted
//     to 2D);
//   - Empirical2D: sample tabulation with O(1) rectangle hit counts;
//   - Greedy2D (learn2d.go): a sample-only greedy learner for rectangle
//     histograms, the 2D analogue of Algorithm 1's fast variant.
package grid

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"khist/internal/dist"
)

// Errors returned by the grid types.
var (
	ErrBadShape  = errors.New("grid: rows and cols must be positive")
	ErrBadPMF    = errors.New("grid: pmf must be non-negative, finite, and sum to 1")
	ErrBadRect   = errors.New("grid: rectangle out of range")
	ErrBadK      = errors.New("grid: k must be at least 1")
	ErrBadEps    = errors.New("grid: eps must lie in (0, 1)")
	ErrNoSamples = errors.New("grid: not enough samples")
	ErrBadCoords = errors.New("grid: max coords must be 0 (the default) or at least 2")
)

// Rect is the half-open rectangle [X0, X1) x [Y0, Y1); X indexes columns
// and Y rows.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Area returns the number of cells covered.
func (r Rect) Area() int {
	if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}

// Empty reports whether the rectangle covers no cells.
func (r Rect) Empty() bool { return r.Area() == 0 }

// Contains reports whether the cell (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Clamp intersects the rectangle with the grid extents.
func (r Rect) Clamp(rows, cols int) Rect {
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > cols {
		r.X1 = cols
	}
	if r.Y1 > rows {
		r.Y1 = rows
	}
	if r.X1 < r.X0 {
		r.X1 = r.X0
	}
	if r.Y1 < r.Y0 {
		r.Y1 = r.Y0
	}
	return r
}

// String renders the rectangle for logs.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Grid is an immutable probability distribution over a rows x cols grid,
// with 2D prefix sums of mass and squared mass for O(1) rectangle
// statistics.
type Grid struct {
	rows, cols int
	pmf        []float64 // row-major: pmf[y*cols+x]
	cum        []float64 // (rows+1) x (cols+1) prefix of mass
	cumSq      []float64 // (rows+1) x (cols+1) prefix of squared mass
}

// NewGrid validates a row-major pmf (len rows*cols) as a distribution and
// builds the prefix structures. The slice is copied.
func NewGrid(rows, cols int, pmf []float64) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, ErrBadShape
	}
	if len(pmf) != rows*cols {
		return nil, ErrBadPMF
	}
	var sum float64
	for _, p := range pmf {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, ErrBadPMF
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, ErrBadPMF
	}
	g := &Grid{rows: rows, cols: cols, pmf: append([]float64(nil), pmf...)}
	g.buildPrefix()
	return g, nil
}

// FromWeights2D normalizes non-negative row-major weights into a Grid.
func FromWeights2D(rows, cols int, w []float64) (*Grid, error) {
	if rows <= 0 || cols <= 0 || len(w) != rows*cols {
		return nil, ErrBadShape
	}
	var sum float64
	for _, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadPMF
		}
		sum += v
	}
	if sum <= 0 {
		return nil, ErrBadPMF
	}
	pmf := make([]float64, len(w))
	for i, v := range w {
		pmf[i] = v / sum
	}
	g := &Grid{rows: rows, cols: cols, pmf: pmf}
	g.buildPrefix()
	return g, nil
}

func (g *Grid) buildPrefix() {
	w := g.cols + 1
	g.cum = make([]float64, (g.rows+1)*w)
	g.cumSq = make([]float64, (g.rows+1)*w)
	for y := 0; y < g.rows; y++ {
		var rowSum, rowSq float64
		for x := 0; x < g.cols; x++ {
			p := g.pmf[y*g.cols+x]
			rowSum += p
			rowSq += p * p
			g.cum[(y+1)*w+x+1] = g.cum[y*w+x+1] + rowSum
			g.cumSq[(y+1)*w+x+1] = g.cumSq[y*w+x+1] + rowSq
		}
	}
}

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of columns.
func (g *Grid) Cols() int { return g.cols }

// Cells returns rows * cols.
func (g *Grid) Cells() int { return g.rows * g.cols }

// P returns the probability of cell (x, y).
func (g *Grid) P(x, y int) float64 { return g.pmf[y*g.cols+x] }

// rectSum reads the 2D prefix array.
func rectSum(pref []float64, w int, r Rect) float64 {
	v := pref[r.Y1*w+r.X1] - pref[r.Y0*w+r.X1] - pref[r.Y1*w+r.X0] + pref[r.Y0*w+r.X0]
	if v < 0 {
		return 0
	}
	return v
}

// Weight returns the total mass of the rectangle in O(1).
func (g *Grid) Weight(r Rect) float64 {
	r = r.Clamp(g.rows, g.cols)
	if r.Empty() {
		return 0
	}
	return rectSum(g.cum, g.cols+1, r)
}

// SumSquares returns the sum of squared cell masses over the rectangle in
// O(1).
func (g *Grid) SumSquares(r Rect) float64 {
	r = r.Clamp(g.rows, g.cols)
	if r.Empty() {
		return 0
	}
	return rectSum(g.cumSq, g.cols+1, r)
}

// Flatten returns the grid as a 1D distribution over [rows*cols] in
// row-major order, for sampling with the 1D machinery.
func (g *Grid) Flatten() *dist.Distribution {
	d, err := dist.New(g.pmf)
	if err != nil {
		panic(err) // unreachable: g.pmf validated at construction
	}
	return d
}

// CellOf maps a flattened index back to (x, y).
func (g *Grid) CellOf(i int) (x, y int) { return i % g.cols, i / g.cols }

// L2SqToFunc returns sum over cells of (p(x,y) - f(x,y))^2.
func (g *Grid) L2SqToFunc(f func(x, y int) float64) float64 {
	var s float64
	for y := 0; y < g.rows; y++ {
		for x := 0; x < g.cols; x++ {
			d := g.pmf[y*g.cols+x] - f(x, y)
			s += d * d
		}
	}
	return s
}

// Uniform2D returns the uniform distribution over the grid.
func Uniform2D(rows, cols int) *Grid {
	pmf := make([]float64, rows*cols)
	u := 1 / float64(rows*cols)
	for i := range pmf {
		pmf[i] = u
	}
	g, err := NewGrid(rows, cols, pmf)
	if err != nil {
		panic(err)
	}
	return g
}

// RandomRectHistogram returns a random k-rectangle tiling distribution:
// starting from the whole grid, k-1 random guillotine splits (a random
// leaf rectangle is cut horizontally or vertically at a random position),
// then independent exponential-ish masses per leaf. The result is an
// exact k-piece rectangular histogram.
func RandomRectHistogram(rows, cols, k int, rng *rand.Rand) *Grid {
	if rows <= 0 || cols <= 0 || k < 1 || k > rows*cols {
		panic(ErrBadShape)
	}
	leaves := []Rect{{0, 0, cols, rows}}
	for len(leaves) < k {
		// Pick a splittable leaf.
		idx := -1
		for _, j := range rng.Perm(len(leaves)) {
			if leaves[j].Area() > 1 {
				idx = j
				break
			}
		}
		if idx < 0 {
			break
		}
		r := leaves[idx]
		var a, b Rect
		canV := r.X1-r.X0 > 1
		canH := r.Y1-r.Y0 > 1
		vertical := canV && (!canH || rng.Intn(2) == 0)
		if vertical {
			cut := r.X0 + 1 + rng.Intn(r.X1-r.X0-1)
			a = Rect{r.X0, r.Y0, cut, r.Y1}
			b = Rect{cut, r.Y0, r.X1, r.Y1}
		} else {
			cut := r.Y0 + 1 + rng.Intn(r.Y1-r.Y0-1)
			a = Rect{r.X0, r.Y0, r.X1, cut}
			b = Rect{r.X0, cut, r.X1, r.Y1}
		}
		leaves[idx] = a
		leaves = append(leaves, b)
	}
	w := make([]float64, rows*cols)
	for _, r := range leaves {
		mass := -math.Log(1 - rng.Float64())
		per := mass / float64(r.Area())
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				w[y*cols+x] = per
			}
		}
	}
	g, err := FromWeights2D(rows, cols, w)
	if err != nil {
		panic(err)
	}
	return g
}
