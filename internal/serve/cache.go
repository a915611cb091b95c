package serve

import (
	"container/list"
	"slices"
	"sync"
)

// cache is a byte-budgeted LRU over immutable values. The serving layer
// stores tabulated sample-set bundles in it: entries are shared
// read-only, so a cache hit hands out the same bundle a cold request
// would have drawn — bit-identical content, no copies. A non-positive
// budget disables caching entirely (every get misses, every put is
// dropped), which the equivalence tests use to force the cold path.
type cache struct {
	mu       sync.Mutex
	capBytes int64
	used     int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	// onEvict, when set, fires (under mu) with each evicted entry's key.
	// The serving layer wires the bundle caches to the response-byte
	// cache through it: evicting a tabulated bundle drops the response
	// entries derived from it, so the two caches' lifecycles nest. The
	// callback must not call back into this cache. Set once at
	// construction, before any traffic.
	onEvict func(key string)

	// Byte-flow counters for the metrics plane, maintained under mu (the
	// operations they count already hold it): bytes handed out on hits,
	// bytes accepted by put and attach, and entries/bytes reclaimed by
	// eviction.
	hitBytes      int64
	insertedBytes int64
	evictions     int64
	evictedBytes  int64

	// attachedBytes is the part of used that attached values hold.
	attachedBytes int64

	// familyOf, when set, names the family of a key ("" for none), and
	// families lists each family's cached entries in insertion order,
	// kept in step by put and drop. The shard cache groups its bundles
	// by (source, seed) through it, so a bundle miss finds the cached
	// bundles it can be derived from. Set once at construction, before
	// any traffic.
	familyOf func(key string) string
	families map[string][]*centry
}

// centry is one cached value with its accounted size, and the values
// attached to it (see attach) with theirs.
type centry struct {
	key           string
	family        string
	val           any
	bytes         int64
	attached      map[string]any
	attachedBytes int64
}

func newCache(capBytes int64) *cache {
	return &cache{
		capBytes: capBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached value for key, bumping its recency.
func (c *cache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*centry)
	c.hitBytes += e.bytes
	return e.val, true
}

// put inserts val under key, evicting least-recently-used entries until
// the byte budget holds. Values larger than the whole budget are not
// cached at all; re-putting an existing key refreshes its value and
// accounting and keeps its attached values, which derive from the key
// as the value does.
func (c *cache) put(key string, val any, bytes int64) {
	// The disabled-cache and zero-byte guards must be explicit: a
	// bytes == 0 entry passes `bytes > capBytes` even when capBytes <= 0,
	// so a "disabled" cache could admit (and forever retain — eviction
	// only reclaims accounted bytes) weightless entries and serve hits.
	if c.capBytes <= 0 || bytes <= 0 || bytes > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertedBytes += bytes
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*centry)
		c.used += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.order.MoveToFront(el)
	} else {
		e := &centry{key: key, val: val, bytes: bytes}
		if c.familyOf != nil {
			if e.family = c.familyOf(key); e.family != "" {
				if c.families == nil {
					c.families = make(map[string][]*centry)
				}
				c.families[e.family] = append(c.families[e.family], e)
			}
		}
		c.entries[key] = c.order.PushFront(e)
		c.used += bytes
	}
	c.evictOverBudget()
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
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	val, ok := el.Value.(*centry).attached[name]
	return val, ok
}

// attach keeps val beside key's entry as name: a value derived from the
// entry's (a bundle's learner cost table), charged to the entry and
// evicted or removed with it, so it never outlives its key or escapes
// the budget. Least-recently-used entries are evicted until the budget
// holds again. val is not kept when key is not cached, when name is
// already attached, or when the entry would outgrow the whole budget.
func (c *cache) attach(key, name string, val any, bytes int64) {
	if bytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*centry)
	if _, dup := e.attached[name]; dup || e.bytes+e.attachedBytes+bytes > c.capBytes {
		return
	}
	if e.attached == nil {
		e.attached = make(map[string]any, 1)
	}
	e.attached[name] = val
	e.attachedBytes += bytes
	c.attachedBytes += bytes
	c.used += bytes
	c.insertedBytes += bytes
	c.order.MoveToFront(el)
	c.evictOverBudget()
}

// evictOverBudget drops least-recently-used entries until the budget
// holds. Called with mu held.
func (c *cache) evictOverBudget() {
	for c.used > c.capBytes {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.drop(oldest)
	}
}

// drop unlinks an entry and its attached values, counts the eviction and
// fires onEvict. Called with mu held.
func (c *cache) drop(el *list.Element) {
	e := el.Value.(*centry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	if e.family != "" {
		members := slices.DeleteFunc(c.families[e.family], func(x *centry) bool { return x == e })
		if len(members) == 0 {
			delete(c.families, e.family)
		} else {
			c.families[e.family] = members
		}
	}
	freed := e.bytes + e.attachedBytes
	c.used -= freed
	c.attachedBytes -= e.attachedBytes
	c.evictions++
	c.evictedBytes += freed
	if c.onEvict != nil {
		c.onEvict(e.key)
	}
}

// remove drops an entry by key, firing onEvict exactly as a budget
// eviction would — so dependent caches wired through the hook see
// explicit invalidation (a stream version bump retiring superseded
// bundles) and LRU pressure identically. Missing keys are a no-op.
func (c *cache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.drop(el)
	}
}

// stats returns the current entry count and accounted bytes.
func (c *cache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.used
}

// attachedStats returns the accounted bytes of attached values, a part
// of stats' bytes.
func (c *cache) attachedStats() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attachedBytes
}

// flowStats returns the cumulative byte-flow counters: bytes served on
// hits, bytes accepted on puts, and eviction count plus reclaimed bytes.
func (c *cache) flowStats() (hitBytes, insertedBytes, evictions, evictedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitBytes, c.insertedBytes, c.evictions, c.evictedBytes
}
