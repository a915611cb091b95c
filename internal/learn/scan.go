package learn

import "khist/internal/par"

// scanOutcome is the winner of one candidate scan. a and b are candidate
// endpoint indices; endpoints are sorted, so their order is the order of
// the domain positions they stand for.
type scanOutcome struct {
	delta   float64
	a, b    int
	scanned int64
}

// better reports whether candidate x beats y under the deterministic
// ordering: strictly smaller delta, ties broken toward the
// lexicographically smaller (a, b). This makes the parallel scan's result
// identical to the serial scan's (which keeps the first minimum in
// endpoint order).
func (x scanOutcome) better(y scanOutcome) bool {
	if y.a < 0 {
		return x.a >= 0
	}
	if x.a < 0 {
		return false
	}
	if x.delta != y.delta {
		return x.delta < y.delta
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// clips holds, for the current partition, what a candidate [i, j) needs
// besides its own cost, indexed by endpoint index. Committing [i, j)
// removes every tile from the one containing i through the one containing
// j-1 and adds the left clip, the candidate and the right clip, so its
// change in total cost is
//
//	leftCost[i] + c(i, j) + endCost[j] - (endPrefix[j] - leftPrefix[i]).
type clips struct {
	leftCost, endCost     []float64
	leftPrefix, endPrefix []float64
}

func newClips(endpoints int) *clips {
	return &clips{
		leftCost:   make([]float64, endpoints),
		endCost:    make([]float64, endpoints),
		leftPrefix: make([]float64, endpoints),
		endPrefix:  make([]float64, endpoints),
	}
}

// update recomputes every endpoint's clips for the partition in one
// sweep. Each clip is a table read, so the sweep is O(endpoints) and runs
// serially: handing it to workers would cost more than it does.
func (c *clips) update(part *partition) {
	bounds, last := part.bounds, len(c.leftCost)-1
	ta, tb := 0, 0
	for i := 0; i <= last; i++ {
		if i < last { // i as a candidate start: the tile holding ends[i]
			for bounds[ta+1] <= i {
				ta++
			}
			c.leftCost[i] = part.tab.cost(bounds[ta], i)
			c.leftPrefix[i] = part.prefix[ta]
		}
		if i > 0 { // i as a candidate end: the tile holding ends[i]-1
			for bounds[tb+1] < i {
				tb++
			}
			c.endCost[i] = part.tab.cost(i, bounds[tb+1])
			c.endPrefix[i] = part.prefix[tb+1]
		}
	}
}

// scanCandidates evaluates every candidate interval [i, j) of endpoint
// indices and returns the cost-minimizing one. The scan is split into
// len(bufs) stripes of start rows — bufs holds one row buffer per worker
// for rows the table evaluates on read — and the stripes' winners are
// merged under the total order of better, so the outcome is
// deterministic regardless of worker count.
func scanCandidates(tab *costTable, c *clips, bufs [][]float64) scanOutcome {
	workers := len(bufs)
	if workers <= 1 {
		return scanStripe(tab, c, bufs[0], 0, 1)
	}
	results := make([]scanOutcome, workers)
	par.ForWorker(workers, workers, func(_, w int) {
		results[w] = scanStripe(tab, c, bufs[w], w, workers)
	})
	best := scanOutcome{a: -1, b: -1}
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

// scanStripe scans the start rows i with i = stripe mod stride. Striping
// balances work: small i have long rows. Within a stripe, candidates are
// visited in increasing (i, j) order, so a later candidate wins only on a
// strictly smaller delta, exactly as better would decide.
func scanStripe(tab *costTable, c *clips, buf []float64, stripe, stride int) scanOutcome {
	best := scanOutcome{a: -1, b: -1}
	for i := stripe; i < len(tab.ends)-1; i += stride {
		row := tab.row(i, buf)
		lc, lp := c.leftCost[i], c.leftPrefix[i]
		ec := c.endCost[i+1 : i+1+len(row)]
		ep := c.endPrefix[i+1 : i+1+len(row)]
		for k, mid := range row {
			delta := lc + mid + ec[k] - (ep[k] - lp)
			if delta < best.delta || best.a < 0 {
				best.delta, best.a, best.b = delta, i, i+1+k
			}
		}
		best.scanned += int64(len(row))
	}
	return best
}
