package serve

import (
	"hash/crc32"
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
// Entries are partitioned into independently locked, independently
// budgeted parts (one per shard, so the lock and the budget both scale
// with -shards), each an lru core keyed by the flat (endpoint,
// encoding, body) address; a CRC-32C of the request body picks the
// part. Every entry records its parent tabulated bundle's cache key;
// when a shard's bundle cache evicts a bundle, the onEvict hook drops
// the bundle's dependent response entries from every part, keeping the
// response cache's contents nested inside the bundle cache's lifecycle.

// StatusRespHit is the X-Khist-Cache value of a response served
// entirely from the response-byte cache: zero recompute, zero encode.
const StatusRespHit = "rhit"

// respKey is the content address of one cached response: the endpoint,
// the response encoding and the raw request body bytes.
type respKey struct {
	endpoint string
	binary   bool
	body     string
}

// respEntry is one cached encoded response. All fields are immutable
// after insertion; body in particular is shared read-only with writers
// that may still be streaming it after the entry was invalidated.
type respEntry struct {
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
	body []byte
}

// respNode is a response entry in its part's core.
type respNode = lruEntry[respKey, *respEntry]

// respEntryOverhead approximates the bookkeeping bytes per entry (core
// entry, map slot, header fields) on top of the key and body payloads.
const respEntryOverhead = 160

// respPart is one lock's worth of the response cache: an lru core plus
// the bundle-dependency index for its own entries and the invalidation
// counters, both kept under the core's mutex, and the lookup counters.
type respPart struct {
	lru[respKey, *respEntry]
	// deps indexes this part's entries by parent bundle key, so a bundle
	// eviction invalidates its dependents without a scan.
	deps map[string]map[*respNode]struct{}

	hits             atomic.Int64
	misses           atomic.Int64
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
		p := &respPart{deps: make(map[string]map[*respNode]struct{})}
		// The drop hook: an evicted or invalidated entry leaves the
		// dependency index.
		p.init(perPartBytes, func(n *respNode) { p.unlinkDep(n, n.val.bundleKey) })
		rc.parts[i] = p
	}
	return rc
}

// castagnoliTable selects CRC-32C, which crc32.Checksum computes with
// the CPU's CRC instructions where it has them.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// part routes a lookup to its lock by a CRC-32C of the raw request
// body. Only the placement depends on it: the part's own map compares
// the full (endpoint, encoding, body) address.
//
//khist:noalloc
func (rc *respCache) part(body []byte) *respPart {
	return rc.parts[crc32.Checksum(body, castagnoliTable)%uint32(len(rc.parts))]
}

// get returns the entry cached under (endpoint, encoding, body),
// bumping its recency, or nil. The returned entry is immutable and
// remains valid (readable) even if it is concurrently evicted or
// invalidated. This is the zero-recompute serving path: it must not
// allocate, so it looks the body up through a no-copy view.
//
//khist:noalloc
func (rc *respCache) get(endpoint string, binary bool, body []byte) *respEntry {
	if rc.perPart <= 0 {
		return nil
	}
	p := rc.part(body)
	e, ok := p.get(respKey{endpoint, binary, bodyView(body)})
	if !ok {
		p.misses.Add(1)
		return nil
	}
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
	bytes := int64(len(endpoint)+len(body)+len(e.body)+len(e.tenant)+len(e.sourceKey)+len(e.bundleKey)+len(e.streamKey)+len(e.contentType)) + 8 + respEntryOverhead
	p := rc.part(body)
	if !p.admits(bytes) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n, old, refreshed := p.putLocked(respKey{endpoint, binary, string(body)}, e, bytes)
	if refreshed {
		p.unlinkDep(n, old.bundleKey)
	}
	set, ok := p.deps[e.bundleKey]
	if !ok {
		set = make(map[*respNode]struct{})
		p.deps[e.bundleKey] = set
	}
	set[n] = struct{}{}
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
		for n := range p.deps[bundleKey] {
			p.invalidations++
			p.invalidatedBytes += p.dropLocked(n)
		}
		p.mu.Unlock()
	}
}

// unlinkDep takes n out of bundleKey's dependents. Called with mu held.
func (p *respPart) unlinkDep(n *respNode, bundleKey string) {
	if set, ok := p.deps[bundleKey]; ok {
		delete(set, n)
		if len(set) == 0 {
			delete(p.deps, bundleKey)
		}
	}
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
		st.Entries += len(p.entries)
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
