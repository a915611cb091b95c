package learn

import "sort"

// partition maintains the tiling of [0, n) induced by the priority
// histogram built so far: sorted tile boundaries, the per-element value of
// each tile, each tile's estimated cost c(I) = z_I - y_I^2/|I|, and prefix
// sums of the costs so that "remove every tile intersecting [a, b)" is an
// O(1) range subtraction during the candidate scan.
//
// Boundaries are candidate endpoint indices, not domain positions: tiles
// are cut only at committed candidates, so every tile is an interval of
// the cost table and its cost is a table read.
type partition struct {
	tab    *costTable
	bounds []int     // endpoint indices 0 = bounds[0] < ... < bounds[t] = len(ends)-1
	values []float64 // per-element value of tile j, len t
	costs  []float64 // cost of tile j, len t
	prefix []float64 // prefix[j] = sum of costs[0:j], len t+1
}

// newPartition starts from the single tile [0, n) carrying the estimated
// mean value. (Algorithm 1 starts from the empty histogram, which is the
// all-zero function; seeding with the best-fit constant is the same
// partition with a value choice that can only reduce the final error and
// leaves the greedy objective, which depends only on boundaries,
// untouched.)
func newPartition(tab *costTable) *partition {
	last := len(tab.ends) - 1
	p := &partition{
		tab:    tab,
		bounds: []int{0, last},
		values: []float64{tab.value(0, last)},
		costs:  []float64{tab.cost(0, last)},
	}
	p.rebuildPrefix()
	return p
}

func (p *partition) rebuildPrefix() {
	if cap(p.prefix) < len(p.costs)+1 {
		p.prefix = make([]float64, len(p.costs)+1)
	}
	p.prefix = p.prefix[:len(p.costs)+1]
	p.prefix[0] = 0
	for j, c := range p.costs {
		p.prefix[j+1] = p.prefix[j] + c
	}
}

// tiles returns the number of tiles.
func (p *partition) tiles() int { return len(p.values) }

// tileIndex returns the index of the tile containing endpoint index i,
// for i below the last endpoint.
func (p *partition) tileIndex(i int) int {
	// Largest j with bounds[j] <= i.
	return sort.SearchInts(p.bounds, i+1) - 1
}

// positions returns the tile boundaries as domain positions.
func (p *partition) positions() []int {
	out := make([]int, len(p.bounds))
	for j, b := range p.bounds {
		out[j] = p.tab.ends[b]
	}
	return out
}

// commit replaces the tiles intersecting the candidate [i, j) (endpoint
// indices) with (up to) three new tiles: the left clip, [i, j) itself,
// and the right clip, assigning each a freshly estimated value and cost,
// exactly as Algorithm 1 re-adds the recomputed neighbour intervals I_L
// and I_R alongside J.
func (p *partition) commit(i, j int) {
	ia := p.tileIndex(i)
	ib := p.tileIndex(j - 1)
	lo := p.bounds[ia]
	hi := p.bounds[ib+1]

	newBounds := make([]int, 0, len(p.bounds)+2)
	newValues := make([]float64, 0, len(p.values)+2)
	newCosts := make([]float64, 0, len(p.costs)+2)

	// Tiles strictly before ia.
	newBounds = append(newBounds, p.bounds[:ia+1]...)
	newValues = append(newValues, p.values[:ia]...)
	newCosts = append(newCosts, p.costs[:ia]...)

	appendTile := func(a, b int) {
		if b <= a {
			return
		}
		newBounds = append(newBounds, b)
		newValues = append(newValues, p.tab.value(a, b))
		newCosts = append(newCosts, p.tab.cost(a, b))
	}
	appendTile(lo, i) // left clip I_L
	appendTile(i, j)  // the committed interval J
	appendTile(j, hi) // right clip I_R

	// Tiles strictly after ib.
	newBounds = append(newBounds, p.bounds[ib+2:]...)
	newValues = append(newValues, p.values[ib+1:]...)
	newCosts = append(newCosts, p.costs[ib+1:]...)

	p.bounds = newBounds
	p.values = newValues
	p.costs = newCosts
	p.rebuildPrefix()
}
