package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCacheCore is the table of the core's storage policy. A disabled
// core (non-positive budget) refuses even a zero-byte value, which used
// to slip past a bare `bytes > capBytes` check (0 > 0 is false) and get
// cached: a "disabled" cache serving hits. An enabled core refuses
// values accounted at <= 0 bytes, which eviction (it frees only
// accounted bytes) could never reclaim, and values above the whole
// budget. Values beyond the budget evict oldest-first, and the drop
// hook sees each eviction and each remove, but no refresh. The table
// drives the core through cache, whose put is the guarded insert and
// whose onEvict relays the drop hook.
func TestCacheCore(t *testing.T) {
	type step struct {
		remove bool
		key    string
		bytes  int64
	}
	for _, tc := range []struct {
		name      string
		capBytes  int64
		steps     []step
		hit, miss []string
		entries   int
		used      int64
		dropped   []string
		// inserted, evictions and evicted are the flow counters after
		// the steps.
		inserted, evictions, evicted int64
	}{
		{name: "disabled_rejects_zero_byte_entries_cap_0", capBytes: 0,
			steps: []step{{key: "k"}}, miss: []string{"k"}},
		{name: "disabled_rejects_zero_byte_entries_cap_negative", capBytes: -1,
			steps: []step{{key: "k"}}, miss: []string{"k"}},
		{name: "enabled_rejects_weightless_entries", capBytes: 1 << 10,
			steps: []step{{key: "zero"}, {key: "negative", bytes: -8}, {key: "real", bytes: 8}},
			hit:   []string{"real"}, miss: []string{"zero", "negative"}, entries: 1, used: 8, inserted: 8},
		{name: "oversized_value_refused", capBytes: 100,
			steps: []step{{key: "a", bytes: 101}}, miss: []string{"a"}},
		{name: "budget_still_evicts", capBytes: 100,
			steps: []step{{key: "a", bytes: 60}, {key: "b", bytes: 60}},
			hit:   []string{"b"}, miss: []string{"a"}, entries: 1, used: 60,
			dropped: []string{"a"}, inserted: 120, evictions: 1, evicted: 60},
		{name: "drop_hook_on_eviction_and_remove_not_refresh", capBytes: 100,
			steps: []step{
				{key: "a", bytes: 30}, {key: "a", bytes: 40}, // a refresh
				{key: "b", bytes: 50}, {key: "c", bytes: 20}, // evicts a
				{remove: true, key: "b"}, {remove: true, key: "missing"},
			},
			hit: []string{"c"}, miss: []string{"a", "b"}, entries: 1, used: 20,
			dropped: []string{"a", "b"}, inserted: 140, evictions: 2, evicted: 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCache(tc.capBytes)
			var dropped []string
			c.onEvict = func(key string) { dropped = append(dropped, key) }
			for i, st := range tc.steps {
				if st.remove {
					c.remove(st.key)
				} else {
					c.put(st.key, i, st.bytes)
				}
			}
			if entries, used := c.stats(); entries != tc.entries || used != tc.used {
				t.Errorf("stats = %d entries / %d bytes, want %d/%d", entries, used, tc.entries, tc.used)
			}
			if _, ins, ev, evB := c.flowStats(); ins != tc.inserted || ev != tc.evictions || evB != tc.evicted {
				t.Errorf("flow = %d inserted, %d evictions of %d bytes; want %d, %d of %d",
					ins, ev, evB, tc.inserted, tc.evictions, tc.evicted)
			}
			if !slices.Equal(dropped, tc.dropped) {
				t.Errorf("drop hook fired for %v, want %v", dropped, tc.dropped)
			}
			for _, key := range tc.hit {
				if _, ok := c.get(key); !ok {
					t.Errorf("%q missing", key)
				}
			}
			for _, key := range tc.miss {
				if _, ok := c.get(key); ok {
					t.Errorf("%q was cached", key)
				}
			}
		})
	}
}

// TestCacheAttach pins the attached-value lifecycle: a value attached to
// an entry is charged to the cache, never outlives the entry (LRU
// eviction and remove drop both and report both in the flow counters),
// survives a refresh of its entry, and is refused when there is no entry
// or the entry would outgrow the budget.
func TestCacheAttach(t *testing.T) {
	c := newCache(100)
	var evicted []string
	c.onEvict = func(key string) { evicted = append(evicted, key) }

	c.attach("missing", "t", "x", 10)
	if _, ok := c.attached("missing", "t"); ok || c.attachedStats() != 0 {
		t.Fatal("value attached to an uncached key")
	}

	c.put("a", 1, 30)
	c.attach("a", "t", "ta", 40)
	c.attach("a", "t", "again", 5) // already attached: kept as is
	c.attach("a", "big", "x", 31)  // a would outgrow the budget
	if v, ok := c.attached("a", "t"); !ok || v != "ta" {
		t.Fatalf("attached(a, t) = %v, %t; want ta", v, ok)
	}
	if _, ok := c.attached("a", "big"); ok {
		t.Fatal("attachment that outgrows the budget was kept")
	}
	if entries, used := c.stats(); entries != 1 || used != 70 || c.attachedStats() != 40 {
		t.Fatalf("stats = %d entries / %d bytes / %d attached, want 1/70/40", entries, used, c.attachedStats())
	}
	c.get("a")
	if hit, ins, _, _ := c.flowStats(); hit != 30 || ins != 70 {
		t.Fatalf("flow = %d hit / %d inserted bytes, want 30/70", hit, ins)
	}

	// Refreshing the entry keeps what is attached to it.
	c.put("a", 1, 30)
	if _, ok := c.attached("a", "t"); !ok {
		t.Fatal("refresh dropped the attached value")
	}

	// LRU pressure evicts the entry with its attachment.
	c.put("b", 2, 40)
	if _, ok := c.attached("a", "t"); ok {
		t.Fatal("attached value outlived its evicted entry")
	}
	if entries, used := c.stats(); entries != 1 || used != 40 || c.attachedStats() != 0 {
		t.Fatalf("after eviction: %d entries / %d bytes / %d attached, want 1/40/0", entries, used, c.attachedStats())
	}
	if _, _, ev, evB := c.flowStats(); ev != 1 || evB != 70 {
		t.Fatalf("eviction flow = %d / %d bytes, want 1 / 70", ev, evB)
	}

	// remove drops an entry with its attachment too.
	c.attach("b", "t", "tb", 50)
	c.remove("b")
	if entries, used := c.stats(); entries != 0 || used != 0 || c.attachedStats() != 0 {
		t.Fatalf("after remove: %d entries / %d bytes / %d attached, want 0/0/0", entries, used, c.attachedStats())
	}
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("onEvict fired for %v, want [a b]", evicted)
	}
}

// TestCacheFamilyIndex pins the shard cache's family index: the bundles
// of one (source, seed) are listed in insertion order, keys of other
// families and non-bundle keys apart; the lookup is no hit (LRU order
// and hit bytes untouched); and a re-put, an LRU eviction and a remove
// keep the index in step with the entries.
func TestCacheFamilyIndex(t *testing.T) {
	c := newCache(100)
	c.familyOf = setsFamily
	fa := setsFamily(setsKey(1, 7, 0, 1, 10))
	fb := setsFamily(setsKey(2, 7, 0, 1, 10))
	if fa == "" || fa == fb || fa != setsFamily(setsKey(1, 7, 5, 3, 20)) || fa == setsFamily(setsKey(1, 8, 0, 1, 10)) {
		t.Fatalf("families %q and %q: want one per (source, seed) whatever the sizes", fa, fb)
	}
	c.put(setsKey(1, 7, 0, 1, 10), "a10", 20)
	c.put("sets2d|4x4|fp=0000000000000001|seed=7|m=10", "grid", 20)
	c.put(setsKey(2, 7, 0, 1, 10), "b10", 20)
	c.put(setsKey(1, 7, 0, 1, 12), "a12", 20)
	c.put(setsKey(1, 7, 0, 1, 10), "a10'", 20) // a re-put: one entry
	if got := c.family(fa, 16); !slices.Equal(got, []any{"a10'", "a12"}) {
		t.Fatalf("family a = %v, want [a10' a12]", got)
	}
	if got := c.family(fb, 16); !slices.Equal(got, []any{"b10"}) {
		t.Fatalf("family b = %v, want [b10]", got)
	}
	hitBytes, _, _, _ := c.flowStats()
	// b10 and the grid entry are the least recently used: listing b10's
	// family must not save it from eviction by touching it.
	c.family(fb, 16)
	c.put("other", "x", 60) // evicts the grid and b10
	if got, _, _, _ := c.flowStats(); got != hitBytes {
		t.Fatalf("family lookups counted %d hit bytes", got-hitBytes)
	}
	if got := c.family(fb, 16); got != nil {
		t.Fatalf("evicted family b still lists %v", got)
	}
	c.put("more", "y", 20) // evicts a12, the oldest
	if got := c.family(fa, 16); !slices.Equal(got, []any{"a10'"}) {
		t.Fatalf("family a after eviction = %v, want [a10']", got)
	}
	c.remove(setsKey(1, 7, 0, 1, 10))
	if got := c.family(fa, 16); got != nil {
		t.Fatalf("family a after remove = %v, want none", got)
	}
	if len(c.families) != 0 {
		t.Fatalf("index keeps %d empty families", len(c.families))
	}

	// A lookup lists at most the newest limit members.
	for i := range 5 {
		c.put(setsKey(1, 7, 0, 1, i), i, 1)
	}
	if got := c.family(fa, 3); !slices.Equal(got, []any{2, 3, 4}) {
		t.Fatalf("newest 3 of family a = %v, want [2 3 4]", got)
	}
}

// cacheCounterScript is the fixed request sequence of
// TestGoldenCacheCounters: cold learns and testers with their repeats, a
// binary rendering of a cached learn, a sibling learn on one (source,
// seed), one batch envelope sent twice, two testers whose bundles do not
// fit one shard's budget together, and an ingest bump under a cached
// stream learn.
var cacheCounterScript = []struct{ path, accept, body string }{
	{"/v1/learn", "", learnBody},
	{"/v1/learn", "", learnBody},
	{"/v1/learn", BinaryContentType, learnBody},
	{"/v1/test/l2", "", testL2Body},
	{"/v1/test/l2", "", testL2Body},
	{"/v1/learn", "", `{"tenant":"acme","source":{"gen":"zipf","n":256},"k":3,"eps":0.3,"scale":0.04,"cap":20000,"seed":7}`},
	{"/v1/test/l1", "", `{"tenant":"acme","source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`},
	{"/v1/learn2d", "", `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`},
	{"/v1/batch", "", `{"items":[{"op":"learn","req":` + learnBody + `},{"op":"learn","req":{"tenant":"beta","source":{"gen":"zipf","n":128},"k":2,"eps":0.3,"scale":0.05,"cap":4000,"seed":3}},{"op":"nope","req":{}}]}`},
	{"/v1/batch", "", `{"items":[{"op":"learn","req":` + learnBody + `},{"op":"learn","req":{"tenant":"beta","source":{"gen":"zipf","n":128},"k":2,"eps":0.3,"scale":0.05,"cap":4000,"seed":3}},{"op":"nope","req":{}}]}`},
	{"/v1/test/l2", "", `{"tenant":"acme","source":{"gen":"khist","n":256,"k":4,"seed":3},"k":4,"eps":0.25,"scale":0.02,"cap":4000,"seed":10}`},
	{"/v1/test/l2", "", testL2Body},
	{"/v1/ingest", "", ingestBody("acme", "checkout", 256, 3000)},
	{"/v1/learn", "", streamLearnBody},
	{"/v1/learn", "", streamLearnBody},
	{"/v1/ingest", "", ingestBody("acme", "checkout", 256, 2000)},
	{"/v1/learn", "", streamLearnBody},
}

// cacheCounters runs cacheCounterScript on a fresh server and renders
// what it leaves in the caches' accounting, one "name value" line each:
// every X-Khist-Cache status and batch item cache status, every
// khist_cache_*, khist_rcache_* and khist_learn_table_bytes series on
// /metrics, and every per_shard and response_cache field of /v1/stats.
func cacheCounters(t *testing.T, cfg Config) string {
	_, h := newTestServer(t, cfg)
	var lines []string
	for i, step := range cacheCounterScript {
		w := binPost(h, step.path, []byte(step.body), "", step.accept)
		if w.Code != http.StatusOK {
			t.Fatalf("step %d %s: code %d: %s", i, step.path, w.Code, w.Body.String())
		}
		status := w.Header().Get(CacheHeader)
		if step.path == "/v1/batch" {
			for _, it := range decodeBatch(t, w.Body.Bytes()).Items {
				status += fmt.Sprintf(" %d:%s", it.Status, it.Cache)
			}
		}
		if status == "" {
			status = "-"
		}
		lines = append(lines, fmt.Sprintf("step%02d %s", i, strings.TrimSpace(status)))
	}
	for _, line := range strings.Split(get(h, "/metrics").Body.String(), "\n") {
		for _, prefix := range []string{"khist_cache_", "khist_rcache_", "khist_learn_table_bytes"} {
			if strings.HasPrefix(line, prefix) {
				lines = append(lines, line)
			}
		}
	}
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, sh := range stats.PerShard {
		b, _ := json.Marshal(sh)
		lines = append(lines, "per_shard "+string(b))
	}
	if rc := stats.ResponseCache; rc != nil {
		b, _ := json.Marshal(rc)
		lines = append(lines, "response_cache "+string(b))
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestGoldenCacheCounters pins the caches' observable accounting over
// one fixed sequence, on two shards with a bundle budget two testers
// overflow, and on one shard whose response budget holds only a few
// bodies: every accounted size and every hit, insert, eviction and
// invalidation count a client can read, against the values in
// testdata/cache-counters-<name>.txt. Any change to the storage policy
// that moves a byte shows here.
func TestGoldenCacheCounters(t *testing.T) {
	metrics := MetricsConfig{Window: time.Hour, K: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"two-shards", Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 4 << 20, ResponseCacheBytes: 1 << 20, Metrics: metrics}},
		{"one-shard-tiny-rcache", Config{Shards: 1, WorkersPerShard: 2, CacheBytes: 2 << 20, ResponseCacheBytes: 2 << 10, Metrics: metrics}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "cache-counters-"+tc.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheCounters(t, tc.cfg); got != string(want) {
			t.Errorf("%s: cache counters diverged from the golden values\n got:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}
