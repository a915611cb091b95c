package stream

import "math/rand"

// This file merges reservoirs. TStream.Merge folds one stream's sketch
// into another's, and its reservoir half needs a uniform sample of the
// union of two streams drawn from the two held samples, each weighted by
// the length of the stream behind it.

// ReservoirView wraps an already-extracted sample of a stream as a
// read-only reservoir, for feeding MergeReservoirs with a sketch's
// sample copied out under its own lock: items is the held sample, seen
// the length of the stream it was drawn from. The view holds a copy of
// items; calling Observe on it is invalid (it has no rng).
func ReservoirView(items []int, seen int64) *Reservoir {
	capacity := len(items)
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{cap: capacity, items: append([]int(nil), items...), seen: seen}
}

// MergeReservoirs builds a reservoir of at most capacity items holding an
// approximately uniform sample of the union of the sources' streams: each
// source contributes slots in proportion to how many stream elements it
// has seen (not how many it holds), so a source that observed 10x the
// traffic is 10x as represented. Sources are read, never modified. The
// result reports Seen() as the total over all sources; it remains a live
// reservoir, so further Observe calls keep it well-defined.
func MergeReservoirs(capacity int, rng *rand.Rand, srcs ...*Reservoir) (*Reservoir, error) {
	out, err := NewReservoir(capacity, rng)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range srcs {
		if s != nil {
			total += s.Seen()
		}
	}
	if total == 0 {
		return out, nil
	}
	// Largest-remainder apportionment of the capacity across sources by
	// stream weight, capped by what each source actually holds.
	quota := make([]int, len(srcs))
	taken := 0
	for i, s := range srcs {
		if s == nil || s.Len() == 0 {
			continue
		}
		q := int(int64(capacity) * s.Seen() / total)
		if q > s.Len() {
			q = s.Len()
		}
		quota[i] = q
		taken += q
	}
	for i, s := range srcs { // distribute the rounding remainder
		if taken >= capacity || s == nil {
			continue
		}
		if quota[i] < s.Len() {
			quota[i]++
			taken++
		}
	}
	for i, s := range srcs {
		if quota[i] == 0 {
			continue
		}
		// Shuffle a copy with the caller's rng (not the source's, which
		// would advance its state) so the quota picks uniformly among the
		// source's held items.
		items := s.Items()
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		out.items = append(out.items, items[:quota[i]]...)
	}
	rng.Shuffle(len(out.items), func(i, j int) { out.items[i], out.items[j] = out.items[j], out.items[i] })
	out.seen = total
	return out, nil
}
