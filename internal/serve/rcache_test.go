package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestResponseCacheEquivalence is the on/off contract: bodies are
// byte-identical with the response cache enabled or disabled, on every
// algorithm endpoint, cold and repeated — only the X-Khist-Cache header
// ("rhit" on a repeat with the cache on) reveals the setting.
func TestResponseCacheEquivalence(t *testing.T) {
	bodies := map[string]string{
		"/v1/learn":   learnBody,
		"/v1/test/l2": testL2Body,
		"/v1/test/l1": `{"tenant":"acme","source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`,
		"/v1/learn2d": `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`,
	}
	on, hOn := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20})
	_, hOff := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})

	for path, body := range bodies {
		base := post(hOff, path, body)
		if base.Code != 200 {
			t.Fatalf("%s off/cold: code %d: %s", path, base.Code, base.Body.String())
		}
		offRepeat := post(hOff, path, body)
		first := post(hOn, path, body)
		second := post(hOn, path, body)
		for name, w := range map[string]*httptest.ResponseRecorder{
			"off/repeat": offRepeat, "on/cold": first, "on/repeat": second,
		} {
			if w.Code != 200 {
				t.Fatalf("%s %s: code %d: %s", path, name, w.Code, w.Body.String())
			}
			if w.Body.String() != base.Body.String() {
				t.Fatalf("%s %s: body diverged from cache-off baseline\n got: %s\nwant: %s",
					path, name, w.Body.String(), base.Body.String())
			}
		}
		if got := first.Header().Get(CacheHeader); got == StatusRespHit {
			t.Fatalf("%s on/cold: cache status %q, want a non-rhit status", path, got)
		}
		if got := second.Header().Get(CacheHeader); got != StatusRespHit {
			t.Fatalf("%s on/repeat: cache status %q, want %q", path, got, StatusRespHit)
		}
	}

	// The hit counters surface in /v1/stats only when the cache is on.
	var stats StatsResponse
	if err := json.Unmarshal(get(hOn, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ResponseCache == nil {
		t.Fatal("cache-on /v1/stats: no response_cache section")
	}
	if stats.ResponseCache.Hits < int64(len(bodies)) {
		t.Fatalf("response_cache.hits = %d, want >= %d", stats.ResponseCache.Hits, len(bodies))
	}
	if stats.ResponseCache.Entries < len(bodies) || stats.ResponseCache.Bytes <= 0 {
		t.Fatalf("response_cache entries=%d bytes=%d, want >= %d entries and positive bytes",
			stats.ResponseCache.Entries, stats.ResponseCache.Bytes, len(bodies))
	}
	if on.respc.stats().Hits != stats.ResponseCache.Hits {
		t.Fatal("stats endpoint and internal counters disagree")
	}
	var off StatsResponse
	if err := json.Unmarshal(get(hOff, "/v1/stats").Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	if off.ResponseCache != nil {
		t.Fatal("cache-off /v1/stats: response_cache section present, want omitted")
	}
}

// TestRespCacheLRU exercises the partitioned LRU directly: recency
// eviction under the byte budget, key refresh, oversized rejection, the
// disabled (zero-budget) mode, and bundle invalidation.
func TestRespCacheLRU(t *testing.T) {
	mk := func(bundle string, n int) *respEntry {
		return &respEntry{tenant: "t", sourceKey: "s", bundleKey: bundle,
			contentType: jsonContentType, body: []byte(strings.Repeat("x", n))}
	}
	// One part, sized for exactly two such entries ("ep" endpoint,
	// "kN" request bodies, 64-byte response bodies, "bN" bundle keys,
	// 1-byte tenant and source keys, empty stream key + its 8-byte
	// version).
	perEntry := int64(len("ep")+len("kN")+64+1+1+len("bN")+len(jsonContentType)) + 8 + respEntryOverhead
	rc := newRespCache(1, 2*perEntry)
	k1, k2, k3 := []byte("k1"), []byte("k2"), []byte("k3")

	rc.put("ep", false, k1, mk("b1", 64))
	rc.put("ep", false, k2, mk("b2", 64))
	if rc.get("ep", false, k1) == nil || rc.get("ep", false, k2) == nil {
		t.Fatal("both entries should fit")
	}
	// k1 was touched more recently than nothing — touch it, then insert
	// k3: k2 is the LRU and must go.
	rc.get("ep", false, k1)
	rc.put("ep", false, k3, mk("b3", 64))
	if rc.get("ep", false, k2) != nil {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if rc.get("ep", false, k1) == nil || rc.get("ep", false, k3) == nil {
		t.Fatal("k1 and k3 should survive the eviction")
	}
	st := rc.stats()
	if st.Evictions != 1 || st.EvictedBytes <= 0 {
		t.Fatalf("evictions=%d evicted_bytes=%d, want 1 eviction with bytes", st.Evictions, st.EvictedBytes)
	}

	// Refreshing a key replaces its entry without leaking accounting.
	rc.put("ep", false, k1, mk("b9", 64))
	if e := rc.get("ep", false, k1); e == nil || e.bundleKey != "b9" {
		t.Fatal("re-put should refresh the entry")
	}
	if st := rc.stats(); int64(st.Entries)*perEntry < st.Bytes {
		t.Fatalf("accounting drifted: %d entries, %d bytes", st.Entries, st.Bytes)
	}

	// Invalidation drops exactly the bundle's dependents.
	rc.invalidateBundle("b9")
	if rc.get("ep", false, k1) != nil {
		t.Fatal("k1 should be gone after its bundle was invalidated")
	}
	if rc.get("ep", false, k3) == nil {
		t.Fatal("k3 depends on b3 and should survive b9's invalidation")
	}
	if st := rc.stats(); st.Invalidations != 1 || st.InvalidatedBytes <= 0 {
		t.Fatalf("invalidations=%d invalidated_bytes=%d, want 1 with bytes", st.Invalidations, st.InvalidatedBytes)
	}

	// An entry above the whole part budget is refused outright.
	rc.put("ep", false, []byte("huge"), mk("b", int(3*perEntry)))
	if rc.get("ep", false, []byte("huge")) != nil {
		t.Fatal("oversized entry should not be cached")
	}

	// The encoding marker keeps JSON and binary renderings apart.
	rc.invalidateBundle("b3")
	rc.put("ep", false, k1, mk("bj", 64))
	if rc.get("ep", true, k1) != nil {
		t.Fatal("binary lookup must not hit the JSON entry for the same body")
	}
	if rc.get("ep", false, k1) == nil {
		t.Fatal("JSON entry should still hit")
	}

	// Zero budget: fully wired, never stores, never hits.
	off := newRespCache(2, 0)
	off.put("ep", false, []byte("k"), mk("b", 8))
	if off.get("ep", false, []byte("k")) != nil {
		t.Fatal("zero-budget cache should never hit")
	}
}

// TestRespCacheKeysOutliveThePooledBody: a request body sits in a
// pooled buffer that the next request read into it overwrites, and the
// hit path looks it up through a no-copy view. An entry's key must be a
// copy: after the buffer is overwritten in place, the original bytes
// still hit and the new bytes miss. A stored view would read as the new
// bytes, under the bucket of the old ones, and miss under both.
func TestRespCacheKeysOutliveThePooledBody(t *testing.T) {
	rc := newRespCache(1, 1<<20)
	body := []byte(learnBody)
	rc.put(epLearn, false, body, &respEntry{tenant: "acme", sourceKey: "src", bundleKey: "b1",
		contentType: jsonContentType, body: []byte(`{"ok":true}`)})
	copy(body, strings.Repeat("x", len(body)))
	if rc.get(epLearn, false, []byte(learnBody)) == nil {
		t.Fatal("the original request bytes miss after the pooled body was overwritten")
	}
	if rc.get(epLearn, false, body) != nil {
		t.Fatal("the overwritten body hits an entry put under other bytes")
	}
}

// TestBundleEvictionDropsResponses is the cache-nesting contract:
// evicting a tabulated bundle from a shard's bundle cache invalidates
// the response-byte entries derived from it, so a dropped bundle's
// responses are recomputed rather than served from stale accounting.
// (The bodies would be identical either way — invalidation is about
// memory lifecycle, not correctness — so the observable is the cache
// status and the invalidation counters.)
func TestBundleEvictionDropsResponses(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 16 << 20})
	first := post(h, "/v1/learn", learnBody)
	if first.Code != 200 {
		t.Fatalf("cold: code %d: %s", first.Code, first.Body.String())
	}
	if w := post(h, "/v1/learn", learnBody); w.Header().Get(CacheHeader) != StatusRespHit {
		t.Fatalf("repeat: cache status %q, want %q", w.Header().Get(CacheHeader), StatusRespHit)
	}
	// Force the bundle out: a filler entry the size of the whole budget
	// evicts everything, firing onEvict for the learn bundle.
	sh := s.shards[0]
	sh.cache.put("filler", 1, sh.cache.capBytes)
	if st := s.respc.stats(); st.Invalidations < 1 {
		t.Fatalf("invalidations = %d after bundle eviction, want >= 1", st.Invalidations)
	}
	again := post(h, "/v1/learn", learnBody)
	if got := again.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("post-eviction repeat: cache status %q, want %q (recompute)", got, "miss")
	}
	if again.Body.String() != first.Body.String() {
		t.Fatal("recomputed body diverged from the original")
	}
}

// TestCombinedCacheBudgets hammers a server whose bundle cache and
// response cache both have tiny budgets with concurrent distinct
// queries, and checks the accounting invariant: each cache's accounted
// bytes never exceed its effective budget (per-shard / per-part caps),
// under churn, with stats read concurrently. Run under -race this is
// also the locking suite for the eviction/invalidation interplay.
func TestCombinedCacheBudgets(t *testing.T) {
	const (
		shards     = 2
		cacheBytes = 96 << 10
		respBytes  = 32 << 10
	)
	s, h := newTestServer(t, Config{Shards: shards, WorkersPerShard: 2,
		CacheBytes: cacheBytes, ResponseCacheBytes: respBytes})

	check := func() {
		for i, sh := range s.shards {
			if _, bytes := sh.cache.stats(); bytes > s.perShardCache {
				t.Errorf("shard %d bundle cache holds %d bytes, budget %d", i, bytes, s.perShardCache)
			}
		}
		for i, p := range s.respc.parts {
			p.mu.Lock()
			used := p.used
			p.mu.Unlock()
			if used > s.perPartRespCache {
				t.Errorf("response-cache part %d holds %d bytes, budget %d", i, used, s.perPartRespCache)
			}
		}
	}

	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() { // concurrent reader: stats must never see torn accounting
		defer statsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				io.Copy(io.Discard, get(h, "/v1/stats").Body)
				s.respc.stats()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				seed := g*1000 + i
				body := fmt.Sprintf(
					`{"tenant":"t%d","source":{"gen":"zipf","n":64},"k":2,"eps":0.5,"cap":400,"seed":%d}`, g%3, seed)
				if w := post(h, "/v1/learn", body); w.Code != 200 {
					t.Errorf("seed %d: code %d: %s", seed, w.Code, w.Body.String())
					return
				}
				// Occasional repeat to exercise the hit path amid evictions.
				if i%5 == 0 {
					post(h, "/v1/learn", body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()
	check()

	st := s.respc.stats()
	if st.InsertedByte == 0 {
		t.Fatal("no bytes ever entered the response cache — the load did not exercise it")
	}
	if st.Evictions == 0 && st.Invalidations == 0 {
		t.Fatal("no evictions or invalidations — budgets were not under pressure; shrink them")
	}
}

// TestWriteErrMarshalFallback covers the error-path fallback: when
// marshalling the uniform error body itself fails, writeErr must still
// deliver the message as plain text (and batch items fall back to a
// literal JSON error) instead of sending an empty error payload.
func TestWriteErrMarshalFallback(t *testing.T) {
	orig := jsonMarshal
	jsonMarshal = func(any) ([]byte, error) { return nil, errors.New("encoder down") }
	defer func() { jsonMarshal = orig }()

	w := httptest.NewRecorder()
	writeErr(w, http.StatusBadGateway, errors.New("boom"))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("code %d, want 502", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("fallback content type %q, want text/plain", ct)
	}
	if w.Body.String() != "boom\n" {
		t.Fatalf("fallback body %q, want %q", w.Body.String(), "boom\n")
	}

	res := batchError(http.StatusBadRequest, errors.New("boom"))
	if string(res.Body) != `{"error":"internal error"}` {
		t.Fatalf("batch fallback body %q", res.Body)
	}

	// And with the encoder healthy, writeErr emits the JSON shape.
	jsonMarshal = orig
	w = httptest.NewRecorder()
	writeErr(w, http.StatusBadRequest, errors.New("boom"))
	if w.Body.String() != `{"error":"boom"}`+"\n" {
		t.Fatalf("json error body %q", w.Body.String())
	}
}
