package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// The response-byte cache: the zero-recompute layer of the serving hot
// path. A bundle-cache hit still pays full statistic recompute plus a
// JSON re-encode on every request; a response-cache hit returns the
// previously encoded body bytes with no source resolution, no sample
// tabulation, no algorithm run, and no encode — a repeated query costs
// a map lookup and a memcpy onto the socket.
//
// Keys are content-addressed: (endpoint, response encoding, raw request
// body bytes). An identical repeat query is an identical byte string,
// and for generator-backed sources every response is a pure function of
// its request (the serving plane's byte-identity invariant), so those
// entries can never be stale — invalidation exists only for memory
// accounting. Stream-backed sources bend that rule: their responses are
// a function of the request AND the stream's version, so each entry
// records its stream provenance (table key + version) and the hit path
// revalidates it against the live stream table — one map lookup — and
// treats a superseded entry as a miss. Eager invalidation still does
// most of the work (an ingest bump retires dependent bundles, which
// cascades here through the deps index); the version check is the
// correctness backstop for entries racing the bump. Each entry also
// carries the tenant and source routing keys that were decoded when it
// was built, so the hit path skips request decoding entirely yet still
// pays the full admission front door (tenant quota + shard gate) before
// a byte is written.
//
// Entries are partitioned by key hash into independently locked,
// independently budgeted LRU parts (one per shard, so the lock and the
// budget both scale with -shards). Every entry records its parent
// tabulated bundle's cache key; when a shard's bundle cache evicts a
// bundle, the onEvict hook drops the bundle's dependent response
// entries from every part, keeping the response cache's contents nested
// inside the bundle cache's lifecycle.

// StatusRespHit is the X-Khist-Cache value of a response served
// entirely from the response-byte cache: zero recompute, zero encode.
const StatusRespHit = "rhit"

// epKey identifies one (endpoint, response-encoding) response space.
// Splitting the cache key into this struct plus the raw request bytes
// — instead of concatenating everything into one string — is what
// makes the hit path allocation-free: the lookup indexes a nested map
// as entries[epKey{...}][string(body)], and the compiler performs that
// string conversion without copying when it appears directly as a map
// index.
type epKey struct {
	endpoint string
	binary   bool
}

// respEntry is one cached encoded response. All fields are immutable
// after insertion; body in particular is shared read-only with writers
// that may still be streaming it after the entry was invalidated.
type respEntry struct {
	ep epKey
	// req holds the raw request body bytes — the content address; set
	// by put (the one place that pays the []byte -> string copy).
	req string
	// tenant and sourceKey are the routing keys decoded from the request
	// that built the entry — identical body bytes decode to identical
	// keys, so the hit path admits and routes without parsing JSON.
	tenant    string
	sourceKey string
	// bundleKey is the parent tabulated bundle's cache key; evicting
	// that bundle invalidates this entry.
	bundleKey string
	// streamKey and streamVersion are the stream provenance of stream-
	// backed responses ("" / 0 for generator sources): the stream table
	// key and the snapshot version the response was computed from. The
	// hit path revalidates the version against the live table before
	// serving the stored bytes.
	streamKey     string
	streamVersion uint64
	// contentType is the negotiated response encoding.
	contentType string
	// body is the encoded response payload, without the trailing newline
	// single JSON responses append on the wire (batch items embed the
	// same bytes raw).
	body  []byte
	bytes int64
}

// respEntryOverhead approximates the bookkeeping bytes per entry (list
// element, map slot, header fields) on top of the key and body payloads.
const respEntryOverhead = 160

// respPart is one lock's worth of the response cache: a byte-budgeted
// LRU plus the bundle-dependency index for its own entries.
type respPart struct {
	mu    sync.Mutex
	used  int64
	count int
	order *list.List // front = most recently used
	// entries nests by (endpoint, encoding) then raw request bytes, so
	// the hit path's inner lookup is the compiler's no-copy
	// map[string]-indexed-by-[]byte form.
	entries map[epKey]map[string]*list.Element
	// deps indexes this part's entries by parent bundle key, so a bundle
	// eviction invalidates its dependents without a scan.
	deps map[string]map[*list.Element]struct{}

	hits   atomic.Int64
	misses atomic.Int64
	// Byte-flow counters, maintained under mu.
	hitBytes         int64
	insertedBytes    int64
	evictions        int64
	evictedBytes     int64
	invalidations    int64
	invalidatedBytes int64
}

// respCache is the partitioned response-byte cache. A disabled cache
// (perPart <= 0) stays fully wired but never stores or hits, which the
// on/off equivalence suite uses to force the recompute path; its get,
// put and invalidateBundle return before hashing or copying anything.
type respCache struct {
	perPart int64 // each part's byte budget
	parts   []*respPart
}

func newRespCache(parts int, perPartBytes int64) *respCache {
	if parts < 1 {
		parts = 1
	}
	rc := &respCache{perPart: perPartBytes, parts: make([]*respPart, parts)}
	for i := range rc.parts {
		rc.parts[i] = &respPart{
			order:   list.New(),
			entries: make(map[epKey]map[string]*list.Element),
			deps:    make(map[string]map[*list.Element]struct{}),
		}
	}
	return rc
}

// part routes a lookup to its lock by hashing the full content address
// incrementally — endpoint, an encoding marker byte, then the raw body
// — so no intermediate key string is ever built.
//
//khist:noalloc
func (rc *respCache) part(endpoint string, binary bool, body []byte) *respPart {
	// Inlined FNV-1a (see serve.go): hash/fnv would allocate on every
	// lookup, and this is the zero-recompute hit path.
	h := fnv32a(fnvOffset32, endpoint)
	enc := byte('j')
	if binary {
		enc = 'b'
	}
	h = (h ^ uint32(enc)) * fnvPrime32
	h = fnv32aBytes(h, body)
	return rc.parts[h%uint32(len(rc.parts))]
}

// get returns the entry cached under (endpoint, encoding, body),
// bumping its recency, or nil. The returned entry is immutable and
// remains valid (readable) even if it is concurrently evicted or
// invalidated. This is the zero-recompute serving path: it must not
// allocate — the nested-map lookup below replaced a per-request
// body-sized key concatenation.
//
//khist:noalloc
func (rc *respCache) get(endpoint string, binary bool, body []byte) *respEntry {
	if rc.perPart <= 0 {
		return nil
	}
	p := rc.part(endpoint, binary, body)
	p.mu.Lock()
	el, ok := p.entries[epKey{endpoint, binary}][string(body)]
	if !ok {
		p.mu.Unlock()
		p.misses.Add(1)
		return nil
	}
	p.order.MoveToFront(el)
	e := el.Value.(*respEntry)
	p.hitBytes += e.bytes
	p.mu.Unlock()
	p.hits.Add(1)
	return e
}

// put inserts e under (endpoint, encoding, body), evicting
// least-recently-used entries until the part's byte budget holds.
// Entries larger than the whole part budget are not cached; re-putting
// an existing key refreshes it. The miss path pays the one
// []byte -> string copy that get avoids.
func (rc *respCache) put(endpoint string, binary bool, body []byte, e *respEntry) {
	if rc.perPart <= 0 {
		return
	}
	e.bytes = int64(len(endpoint)+len(body)+len(e.body)+len(e.tenant)+len(e.sourceKey)+len(e.bundleKey)+len(e.streamKey)+len(e.contentType)) + 8 + respEntryOverhead
	if e.bytes > rc.perPart {
		return
	}
	e.ep = epKey{endpoint, binary}
	e.req = string(body)
	p := rc.part(endpoint, binary, body)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.insertedBytes += e.bytes
	inner := p.entries[e.ep]
	if inner == nil {
		inner = make(map[string]*list.Element)
		p.entries[e.ep] = inner
	}
	if el, ok := inner[e.req]; ok {
		old := el.Value.(*respEntry)
		p.used += e.bytes - old.bytes
		p.unlinkDepLocked(old.bundleKey, el)
		el.Value = e
		p.linkDepLocked(e.bundleKey, el)
		p.order.MoveToFront(el)
	} else {
		el := p.order.PushFront(e)
		inner[e.req] = el
		p.linkDepLocked(e.bundleKey, el)
		p.used += e.bytes
		p.count++
	}
	for p.used > rc.perPart {
		oldest := p.order.Back()
		if oldest == nil {
			break
		}
		old := oldest.Value.(*respEntry)
		p.removeLocked(oldest, old)
		p.evictions++
		p.evictedBytes += old.bytes
	}
}

// invalidateBundle drops every response entry derived from bundleKey,
// across all parts. Called from the bundle caches' eviction hook (and
// thus possibly under a bundle cache's lock — this path never calls
// back into one).
func (rc *respCache) invalidateBundle(bundleKey string) {
	if rc.perPart <= 0 {
		return
	}
	for _, p := range rc.parts {
		p.mu.Lock()
		for el := range p.deps[bundleKey] {
			e := el.Value.(*respEntry)
			p.removeLocked(el, e)
			p.invalidations++
			p.invalidatedBytes += e.bytes
		}
		p.mu.Unlock()
	}
}

func (p *respPart) linkDepLocked(bundleKey string, el *list.Element) {
	set, ok := p.deps[bundleKey]
	if !ok {
		set = make(map[*list.Element]struct{})
		p.deps[bundleKey] = set
	}
	set[el] = struct{}{}
}

func (p *respPart) unlinkDepLocked(bundleKey string, el *list.Element) {
	if set, ok := p.deps[bundleKey]; ok {
		delete(set, el)
		if len(set) == 0 {
			delete(p.deps, bundleKey)
		}
	}
}

// removeLocked drops one entry from the LRU, the nested key maps, and
// the dependency index. Callers account the eviction/invalidation
// counters.
func (p *respPart) removeLocked(el *list.Element, e *respEntry) {
	p.order.Remove(el)
	if inner, ok := p.entries[e.ep]; ok {
		delete(inner, e.req)
		if len(inner) == 0 {
			delete(p.entries, e.ep)
		}
	}
	p.unlinkDepLocked(e.bundleKey, el)
	p.used -= e.bytes
	p.count--
}

// RespCacheStats is the response-byte cache section of /v1/stats,
// aggregated across parts.
type RespCacheStats struct {
	BytesCap     int64 `json:"bytes_cap"`
	BytesPerPart int64 `json:"bytes_per_part"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	HitBytes     int64 `json:"hit_bytes"`
	InsertedByte int64 `json:"inserted_bytes"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// Invalidations count entries dropped because their parent tabulated
	// bundle was evicted from a shard's bundle cache.
	Invalidations    int64 `json:"invalidations"`
	InvalidatedBytes int64 `json:"invalidated_bytes"`
}

// stats aggregates the live counters across parts.
func (rc *respCache) stats() RespCacheStats {
	var st RespCacheStats
	for _, p := range rc.parts {
		st.Hits += p.hits.Load()
		st.Misses += p.misses.Load()
		p.mu.Lock()
		st.Entries += p.count
		st.Bytes += p.used
		st.HitBytes += p.hitBytes
		st.InsertedByte += p.insertedBytes
		st.Evictions += p.evictions
		st.EvictedBytes += p.evictedBytes
		st.Invalidations += p.invalidations
		st.InvalidatedBytes += p.invalidatedBytes
		p.mu.Unlock()
	}
	return st
}
