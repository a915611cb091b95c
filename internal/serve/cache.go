package serve

import "slices"

// cache is a byte-budgeted LRU over immutable values, keyed by string,
// on the lru core. The serving layer stores tabulated sample-set
// bundles in it: entries are shared read-only, so a cache hit hands out
// the same bundle a cold request would have drawn — bit-identical
// content, no copies. The batch plan cache and the source registry are
// instances too, and flightGroup builds on it. A non-positive budget
// disables caching entirely (every get misses, every put is dropped),
// which the equivalence tests use to force the cold path.
type cache struct {
	lru[string, any]

	// onEvict, when set, fires (under mu) with each evicted or removed
	// entry's key. The serving layer wires the bundle caches to the
	// response-byte cache through it: evicting a tabulated bundle drops
	// the response entries derived from it, so the two caches'
	// lifecycles nest. The callback must not call back into this cache.
	// Set once at construction, before any traffic.
	onEvict func(key string)

	// attachments holds the values attached to each cached key, by name,
	// and attachedBytes their accounted bytes, a part of used.
	attachments   map[string]map[string]any
	attachedBytes int64

	// familyOf names the family of a key ("" for none; every key, unless
	// set), and families lists each family's cached entries in insertion
	// order, kept in step by put and the drop hook. The shard cache
	// groups its bundles by (source, seed) through it, so a bundle miss
	// finds the cached bundles it can be derived from. Set once at
	// construction, before any traffic.
	familyOf func(key string) string
	families map[string][]*lruEntry[string, any]
}

func newCache(capBytes int64) *cache {
	c := &cache{
		attachments: make(map[string]map[string]any),
		familyOf:    func(string) string { return "" },
		families:    make(map[string][]*lruEntry[string, any]),
	}
	c.init(capBytes, c.dropped)
	return c
}

// put inserts val under key, evicting least-recently-used entries until
// the byte budget holds. Weightless values and values larger than the
// whole budget are not cached at all; re-putting an existing key
// refreshes its value and accounting and keeps its attached values,
// which derive from the key as the value does.
func (c *cache) put(key string, val any, bytes int64) {
	if !c.admits(bytes) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _, refreshed := c.putLocked(key, val, bytes)
	if fam := c.familyOf(key); !refreshed && fam != "" {
		c.families[fam] = append(c.families[fam], e)
	}
}

// family returns the values of the newest limit cached entries of
// family fam, in insertion order. It is no hit: it moves nothing in the
// LRU order and counts no hit bytes.
func (c *cache) family(fam string, limit int) []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	members := c.families[fam]
	members = members[max(0, len(members)-limit):]
	if len(members) == 0 {
		return nil
	}
	vals := make([]any, len(members))
	for i, e := range members {
		vals[i] = e.val
	}
	return vals
}

// attached returns the value attached to key's entry as name.
func (c *cache) attached(key, name string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	val, ok := c.attachments[key][name]
	return val, ok
}

// attach keeps val beside key's entry as name: a value derived from the
// entry's (a bundle's learner cost table), charged to the entry and
// evicted or removed with it, so it never outlives its key or escapes
// the budget. Least-recently-used entries are evicted until the budget
// holds again. val is not kept when key is not cached, when name is
// already attached, or when the entry would outgrow the whole budget.
func (c *cache) attach(key, name string, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.attachments[key][name]; dup || !c.chargeLocked(key, bytes) {
		return
	}
	if c.attachments[key] == nil {
		c.attachments[key] = make(map[string]any, 1)
	}
	c.attachments[key][name] = val
	c.attachedBytes += bytes
}

// dropped is the core's drop hook: it takes an evicted or removed entry
// out of the family index with its attached values, and fires onEvict.
// Called with mu held.
func (c *cache) dropped(e *lruEntry[string, any]) {
	if fam := c.familyOf(e.key); fam != "" {
		members := slices.DeleteFunc(c.families[fam], func(x *lruEntry[string, any]) bool { return x == e })
		if len(members) == 0 {
			delete(c.families, fam)
		} else {
			c.families[fam] = members
		}
	}
	delete(c.attachments, e.key)
	c.attachedBytes -= e.charged
	if c.onEvict != nil {
		c.onEvict(e.key)
	}
}

// attachedStats returns the accounted bytes of attached values, a part
// of stats' bytes.
func (c *cache) attachedStats() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attachedBytes
}
