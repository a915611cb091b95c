package serve

import (
	"sync"
	"unsafe"
)

// lru is the byte-budgeted LRU core under every cache of the serving
// layer: the shard bundle caches, the batch plan cache and the source
// registry (through cache), and each part of the response-byte cache.
// It owns the storage policy under one mutex: the recency order, the
// key map, the refusal of values it could never hold, the budget and
// its eviction, and the byte-flow counters. The caches built on it keep
// their indexes in step under that mutex, through the drop hook and the
// methods named ...Locked, so an entry is in an index exactly while it
// is in the core. A non-positive budget stores nothing.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capBytes int64 // set once by init
	used     int64
	entries  map[K]*lruEntry[K, V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry and root.prev the least.
	root lruEntry[K, V]

	// onDrop, when set, fires under mu with each entry that eviction or
	// remove took out, after it left the map and the ring; a refresh is
	// no drop. It must not call back into this core.
	onDrop func(*lruEntry[K, V])

	// Byte-flow counters for the metrics plane: bytes handed out on
	// hits, bytes accepted by put and charge, and the entries and bytes
	// that eviction and remove reclaimed.
	hitBytes      int64
	insertedBytes int64
	evictions     int64
	evictedBytes  int64
}

// lruEntry is one cached value: bytes is the size its put accounted,
// charged what chargeLocked added since. A refresh replaces val and
// bytes and keeps charged.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	bytes      int64
	charged    int64
	prev, next *lruEntry[K, V]
}

func (l *lru[K, V]) init(capBytes int64, onDrop func(*lruEntry[K, V])) {
	l.capBytes, l.onDrop = capBytes, onDrop
	l.entries = make(map[K]*lruEntry[K, V])
	l.root.prev, l.root.next = &l.root, &l.root
}

// admits reports whether a value of bytes may be put at all. Weightless
// values are refused explicitly: eviction reclaims only accounted bytes,
// so it could never reclaim one, and 0 > capBytes alone would let one
// into a disabled core, which would then serve hits.
func (l *lru[K, V]) admits(bytes int64) bool {
	return l.capBytes > 0 && bytes > 0 && bytes <= l.capBytes
}

// get returns the value cached under key, counting its bytes as a hit
// and making it the most recently used.
//
//khist:noalloc
func (l *lru[K, V]) get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.hitBytes += e.bytes
	l.toFront(e)
	return e.val, true
}

// peek returns the value cached under key without counting a hit or
// moving it in the recency order: a look at what the cache holds, for
// a caller that does its counted get later.
//
//khist:noalloc
func (l *lru[K, V]) peek(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// putLocked stores val under key at bytes, which admits must have
// accepted, and evicts least-recently-used entries until the budget
// holds. A cached key is refreshed: refreshed reports the value its new
// one replaced. Called with mu held.
func (l *lru[K, V]) putLocked(key K, val V, bytes int64) (e *lruEntry[K, V], old V, refreshed bool) {
	l.insertedBytes += bytes
	if e, refreshed = l.entries[key]; refreshed {
		old = e.val
		l.used += bytes - e.bytes
		e.val, e.bytes = val, bytes
		l.toFront(e)
	} else {
		e = &lruEntry[K, V]{key: key, val: val, bytes: bytes}
		l.entries[key] = e
		l.link(e)
		l.used += bytes
	}
	l.evictLocked()
	return e, old, refreshed
}

// chargeLocked adds bytes to key's entry for a value derived from it,
// and evicts least-recently-used entries until the budget holds. It
// refuses weightless bytes, an uncached key, and an entry that would
// outgrow the whole budget. Called with mu held.
func (l *lru[K, V]) chargeLocked(key K, bytes int64) bool {
	e, ok := l.entries[key]
	if !ok || bytes <= 0 || e.bytes+e.charged+bytes > l.capBytes {
		return false
	}
	e.charged += bytes
	l.used += bytes
	l.insertedBytes += bytes
	l.toFront(e)
	l.evictLocked()
	return true
}

// evictLocked drops least-recently-used entries until the budget holds.
// The entry a put or charge just moved to the front fits the budget
// alone, so it is never dropped. Called with mu held.
func (l *lru[K, V]) evictLocked() {
	for l.used > l.capBytes && l.root.prev != &l.root {
		l.evictions++
		l.evictedBytes += l.dropLocked(l.root.prev)
	}
}

// remove drops key's entry, counted as an eviction and firing the drop
// hook as a budget eviction would, so the indexes and the caches wired
// through the hook see an explicit invalidation (a stream version bump
// retiring superseded bundles) and LRU pressure alike.
func (l *lru[K, V]) remove(key K) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[key]; ok {
		l.evictions++
		l.evictedBytes += l.dropLocked(e)
	}
}

// dropLocked takes e out of the map and the ring, fires the drop hook
// and returns the bytes it freed. Its callers count the drop as what it
// was. Called with mu held.
func (l *lru[K, V]) dropLocked(e *lruEntry[K, V]) int64 {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(l.entries, e.key)
	freed := e.bytes + e.charged
	l.used -= freed
	if l.onDrop != nil {
		l.onDrop(e)
	}
	return freed
}

// link makes e the most recently used entry.
func (l *lru[K, V]) link(e *lruEntry[K, V]) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}

func (l *lru[K, V]) toFront(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	l.link(e)
}

// stats returns the live entry count and accounted bytes.
func (l *lru[K, V]) stats() (entries int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries), l.used
}

// flowStats returns the cumulative byte-flow counters.
func (l *lru[K, V]) flowStats() (hitBytes, insertedBytes, evictions, evictedBytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hitBytes, l.insertedBytes, l.evictions, l.evictedBytes
}

// bodyView returns b's bytes as a string without copying them, for
// lookups only. A request body lives in a pooled buffer that the next
// request read into it overwrites, so the view is never stored: a put,
// which keeps its key, copies the body with string(b).
func bodyView(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
