package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/grid"
	"khist/internal/learn"
	"khist/internal/par"
)

// mustNew builds a Server, failing the test on a config error.
func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return s
}

// newTestServer builds a Server and returns it with its handler; the
// caller owns Close.
func newTestServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	s := mustNew(t, cfg)
	t.Cleanup(s.Close)
	return s, s.Handler()
}

// post sends body to path and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

const learnBody = `{"tenant":"acme","source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":0.05,"cap":20000,"seed":7}`
const testL2Body = `{"tenant":"acme","source":{"gen":"khist","n":256,"k":4,"seed":3},"k":4,"eps":0.25,"scale":0.02,"cap":4000,"seed":9}`

func TestHandlers(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		want     []string // substrings of the response body
	}{
		{
			name: "learn ok", method: "POST", path: "/v1/learn",
			body:     learnBody,
			wantCode: 200,
			want:     []string{`"n":256`, `"bounds":[0,`, `"samples_used":`, `"iterations":`},
		},
		{
			name: "learn full variant ok", method: "POST", path: "/v1/learn",
			body:     `{"source":{"gen":"uniform","n":64},"k":2,"eps":0.3,"scale":0.02,"cap":2000,"seed":1,"full":true}`,
			wantCode: 200,
			want:     []string{`"n":64`},
		},
		{
			name: "learn inline weights ok", method: "POST", path: "/v1/learn",
			body:     `{"source":{"weights":[1,1,1,1,8,8,8,8]},"k":2,"eps":0.2,"scale":0.1,"cap":2000,"seed":2}`,
			wantCode: 200,
			want:     []string{`"n":8`},
		},
		{
			name: "test l2 ok", method: "POST", path: "/v1/test/l2",
			body:     testL2Body,
			wantCode: 200,
			want:     []string{`"accept":`, `"norm":"l2"`, `"partition":[`},
		},
		{
			name: "test l1 ok", method: "POST", path: "/v1/test/l1",
			body:     `{"source":{"gen":"uniform","n":128},"k":2,"eps":0.3,"scale":0.01,"cap":2000,"seed":4}`,
			wantCode: 200,
			want:     []string{`"norm":"l1"`, `"accept":true`},
		},
		{
			name: "learn2d ok", method: "POST", path: "/v1/learn2d",
			body:     `{"source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`,
			wantCode: 200,
			want:     []string{`"rows":12`, `"rects":[{`},
		},
		{
			name: "learn on a one-sample weight set", method: "POST", path: "/v1/learn",
			body:     `{"source":{"gen":"zipf","n":64},"k":2,"eps":0.2,"cap":1,"seed":1}`,
			wantCode: 422,
			want:     []string{`at least 2 weight samples`},
		},
		{
			name: "unknown generator", method: "POST", path: "/v1/learn",
			body:     `{"source":{"gen":"nope","n":16},"k":2,"eps":0.2,"seed":1}`,
			wantCode: 400,
			want:     []string{`unknown generator`},
		},
		{
			name: "bad eps", method: "POST", path: "/v1/learn",
			body:     `{"source":{"gen":"zipf","n":64},"k":2,"eps":1.5,"seed":1}`,
			wantCode: 400,
			want:     []string{`eps`},
		},
		{
			name: "bad k", method: "POST", path: "/v1/test/l2",
			body:     `{"source":{"gen":"zipf","n":64},"k":0,"eps":0.2,"seed":1}`,
			wantCode: 400,
			want:     []string{`k`},
		},
		{
			name: "unknown field rejected", method: "POST", path: "/v1/learn",
			body:     `{"source":{"gen":"zipf","n":64},"k":2,"eps":0.2,"sede":1}`,
			wantCode: 400,
			want:     []string{`decoding request`},
		},
		{
			name: "malformed json", method: "POST", path: "/v1/learn",
			body:     `{"source":`,
			wantCode: 400,
			want:     []string{`decoding request`},
		},
		{
			name: "bad 2d generator", method: "POST", path: "/v1/learn2d",
			body:     `{"source":{"gen":"circle","rows":8,"cols":8},"k":2,"eps":0.2,"seed":1}`,
			wantCode: 400,
			want:     []string{`unknown 2d generator`},
		},
		{
			name: "stats", method: "GET", path: "/v1/stats",
			wantCode: 200,
			want:     []string{`"shards":2`, `"per_shard":[`},
		},
		{
			name: "health", method: "GET", path: "/healthz",
			wantCode: 200,
			want:     []string{"ok"},
		},
		{
			name: "method not allowed", method: "GET", path: "/v1/learn",
			wantCode: 405,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w *httptest.ResponseRecorder
			if tc.method == "GET" {
				w = get(h, tc.path)
			} else {
				w = post(h, tc.path, tc.body)
			}
			if w.Code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.wantCode, w.Body.String())
			}
			for _, sub := range tc.want {
				if !strings.Contains(w.Body.String(), sub) {
					t.Errorf("%s %s: body missing %q:\n%s", tc.method, tc.path, sub, w.Body.String())
				}
			}
		})
	}
}

func TestCacheStatusHeader(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 2, CacheBytes: 64 << 20})
	first := post(h, "/v1/learn", learnBody)
	if got := first.Header().Get(CacheHeader); got != StatusMiss {
		t.Fatalf("first request %s = %q, want %q", CacheHeader, got, StatusMiss)
	}
	second := post(h, "/v1/learn", learnBody)
	if got := second.Header().Get(CacheHeader); got != StatusHit {
		t.Fatalf("second request %s = %q, want %q", CacheHeader, got, StatusHit)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached body differs from cold body")
	}
}

// equivalenceConfigs are the server configurations the equivalence
// suites compare: the first is cold (caching off, serial), and the
// others differ in shards, workers, cache budget and admission.
func equivalenceConfigs() []Config {
	return []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 0}, // cold every time, serial
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20},
		{Shards: 4, WorkersPerShard: 3, CacheBytes: 64 << 20},
		{Shards: 7, WorkersPerShard: 8, CacheBytes: 1 << 20}, // tight cache: evictions
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, MaxQueuePerShard: 8, // quotas on: admission never touches bodies
			Quotas: QuotaConfig{Default: TenantQuota{RPS: 1e6, Burst: 1e6, MaxInFlight: 1 << 16}}},
	}
}

// TestColdCacheCoalescedEquivalence is the serving plane's determinism
// contract: the same request answered cold (caching disabled), from
// cache, and under any shard/worker configuration yields byte-identical
// bodies.
func TestColdCacheCoalescedEquivalence(t *testing.T) {
	bodies := map[string]string{
		"/v1/learn":   learnBody,
		"/v1/test/l2": testL2Body,
		"/v1/test/l1": `{"source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`,
		"/v1/learn2d": `{"source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`,
	}
	configs := equivalenceConfigs()
	for path, body := range bodies {
		var want string
		for i, cfg := range configs {
			_, h := newTestServer(t, cfg)
			// Twice per server: the second answer exercises the cache
			// path when caching is on, the cold path when off.
			for pass := 0; pass < 2; pass++ {
				w := post(h, path, body)
				if w.Code != 200 {
					t.Fatalf("%s config %d pass %d: code %d: %s", path, i, pass, w.Code, w.Body.String())
				}
				got := w.Body.String()
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s config %+v pass %d: body diverged\n got: %s\nwant: %s", path, cfg, pass, got, want)
				}
			}
		}
	}

	// A learn walk over one bundle: the cap binds, so every (k, eps)
	// draws the same sets, and on a server whose cache keeps the cost
	// tables each learn after a scan mode's first runs on the table an
	// earlier (k, eps) filled. Every body must equal the cold server's,
	// which fills a table per learn.
	var walk []string
	for _, k := range []int{2, 3, 4} {
		for _, eps := range []float64{0.3, 0.2} {
			walk = append(walk, fmt.Sprintf(
				`{"tenant":"walk","source":{"gen":"zipf","n":256},"k":%d,"eps":%v,"scale":1,"cap":350,"seed":3}`, k, eps))
		}
	}
	walk = append(walk,
		`{"tenant":"walk","source":{"gen":"zipf","n":256},"k":2,"eps":0.3,"scale":1,"cap":350,"seed":3,"full":true}`,
		`{"tenant":"walk","source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":1,"cap":350,"seed":3,"full":true}`)
	var want []string
	for i, cfg := range configs {
		s, h := newTestServer(t, cfg)
		for j, body := range walk {
			w := post(h, "/v1/learn", body)
			if w.Code != 200 {
				t.Fatalf("walk step %d config %d: code %d: %s", j, i, w.Code, w.Body.String())
			}
			if i == 0 {
				want = append(want, w.Body.String())
			} else if got := w.Body.String(); got != want[j] {
				t.Fatalf("walk step %d config %+v: body diverged\n got: %s\nwant: %s", j, cfg, got, want[j])
			}
		}
		var fills, hits int64
		for _, sh := range s.shards {
			fills += sh.tables.misses.Load()
			hits += sh.tables.hits.Load()
		}
		if cfg.CacheBytes >= 64<<20 && (fills != 2 || hits != int64(len(walk)-2)) {
			t.Fatalf("walk config %d: %d table fills and %d hits, want one fill per scan mode and %d hits", i, fills, hits, len(walk)-2)
		}
	}
}

// sweepStep is one request of a sweep-shaped walk.
type sweepStep struct {
	path string
	src  SourceSpec
	seed int64
	body string
}

// sweepWalk returns a sweep-shaped session on each of three sources
// (zipf n 256, comb n 128 and geometric n 300, a domain that is no
// power of two): learns at caps c, c+2, c+4 and c+8 and testers at caps
// C, C-10, C-12 and C-14, all on one (source, seed), in an order whose
// bundle misses trim and extend the bundles before them, plus a learn
// and a tester whose bundle is already cached.
func sweepWalk() []sweepStep {
	const c, C = 350, 2000
	var walk []sweepStep
	for i, src := range []SourceSpec{{Gen: "zipf", N: 256}, {Gen: "comb", N: 128}, {Gen: "geometric", N: 300}} {
		seed := int64(41 + i)
		srcJSON, _ := json.Marshal(src)
		learn := func(k int, eps float64, cap int) sweepStep {
			return sweepStep{"/v1/learn", src, seed, fmt.Sprintf(
				`{"tenant":"sweep","source":%s,"k":%d,"eps":%v,"scale":1,"cap":%d,"seed":%d}`, srcJSON, k, eps, cap, seed)}
		}
		test := func(norm string, k int, eps float64, cap int) sweepStep {
			return sweepStep{"/v1/test/" + norm, src, seed, fmt.Sprintf(
				`{"tenant":"sweep","source":%s,"k":%d,"eps":%v,"scale":0.05,"cap":%d,"seed":%d}`, srcJSON, k, eps, cap, seed)}
		}
		walk = append(walk,
			learn(2, 0.3, c+4),
			test("l2", 2, 0.3, C-12),
			learn(3, 0.3, c),
			test("l2", 4, 0.2, C),
			learn(4, 0.25, c+8),
			test("l2", 2, 0.2, C-14),
			learn(2, 0.2, c+2),
			test("l2", 4, 0.3, C-10),
			learn(4, 0.3, c),
			test("l1", 2, 0.25, C),
			test("l2", 2, 0.25, C-12),
		)
	}
	return walk
}

// A sweep-shaped walk, whose bundle misses derive sets from the cached
// bundles of the same (source, seed), answers every query as the cold
// server does under every configuration. Where nothing is evicted
// (64 MiB) it draws exactly what the derivations need: for each set of
// a bundle miss, the fewest draws from any earlier bundle's set of the
// same index (DeriveDraws of a fresh draw, whose draw marker a derived
// set shares), and a bundle derives when one of its sets does. The
// cold server, which caches nothing, draws every set in full and
// derives nothing.
func TestSweepWalkDerivedSets(t *testing.T) {
	walk := sweepWalk()
	var want []string
	for i, cfg := range equivalenceConfigs() {
		s, h := newTestServer(t, cfg)
		type bundle struct {
			key  string
			sets []*dist.Empirical
		}
		families := make(map[string][]bundle)
		var wantDrawn, wantDerived, allDrawn int64
		for j, step := range walk {
			w := post(h, step.path, step.body)
			if w.Code != 200 {
				t.Fatalf("sweep step %d config %d: code %d: %s", j, i, w.Code, w.Body.String())
			}
			if i == 0 {
				want = append(want, w.Body.String())
			} else if got := w.Body.String(); got != want[j] {
				t.Fatalf("sweep step %d config %+v: body diverged\n got: %s\nwant: %s", j, cfg, got, want[j])
			}
			var plan struct{ Ell, R, M int }
			if err := json.Unmarshal(w.Body.Bytes(), &plan); err != nil {
				t.Fatal(err)
			}
			var sizes []int
			if plan.Ell > 0 {
				sizes = append(sizes, plan.Ell)
			}
			for range plan.R {
				sizes = append(sizes, plan.M)
			}
			family := fmt.Sprintf("%s|%d", step.src.key(), step.seed)
			key := fmt.Sprint(plan.Ell, plan.R, plan.M)
			var drawn, total int64
			for _, k := range sizes {
				total += int64(k)
			}
			allDrawn += total
			if slices.ContainsFunc(families[family], func(b bundle) bool { return b.key == key }) {
				continue // a bundle hit draws nothing
			}
			d, err := s.resolveSource(step.src)
			if err != nil {
				t.Fatal(err)
			}
			fresh := collision.CollectSetsSized(dist.NewSampler(d, par.NewRand(uint64(step.seed))), sizes, 1, uint64(step.seed))
			for si, m := range sizes {
				best := m
				for _, b := range families[family] {
					if si < len(b.sets) {
						best = min(best, b.sets[si].DeriveDraws(m))
					}
				}
				drawn += int64(best)
			}
			wantDrawn += drawn
			if drawn < total {
				wantDerived++
			}
			families[family] = append(families[family], bundle{key, fresh})
		}
		var drawn, derived int64
		for _, sh := range s.shards {
			drawn += sh.samplesDrawn.Load()
			derived += sh.derived.Load()
		}
		switch {
		case cfg.CacheBytes == 0 && (drawn != allDrawn || derived != 0):
			t.Fatalf("cold config: drew %d samples and derived %d bundles, want %d and 0", drawn, derived, allDrawn)
		case cfg.CacheBytes >= 64<<20 && (drawn != wantDrawn || derived != wantDerived):
			t.Fatalf("config %d: drew %d samples and derived %d bundles, want %d and %d", i, drawn, derived, wantDrawn, wantDerived)
		}
		if i == 1 {
			// One shard: /v1/stats and /metrics report the same counts.
			t.Logf("%d queries: %d bundles derived, %d samples drawn (%d with every set drawn afresh)", len(walk), derived, drawn, allDrawn)
			var st StatsResponse
			if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if sh := st.PerShard[0]; sh.BundlesDerived != derived || sh.SamplesDrawn != drawn {
				t.Fatalf("/v1/stats reports %d bundles derived and %d samples drawn, want %d and %d", sh.BundlesDerived, sh.SamplesDrawn, derived, drawn)
			}
			metrics := get(h, "/metrics").Body.String()
			for _, series := range []string{
				fmt.Sprintf(`khist_bundle_derived_total{shard="0"} %d`, derived),
				fmt.Sprintf(`khist_samples_drawn_total{shard="0"} %d`, drawn),
			} {
				if !strings.Contains(metrics, series+"\n") {
					t.Fatalf("/metrics lacks %q", series)
				}
			}
		}
	}
}

// TestConcurrentClientsDeterministic hammers one key from many goroutines
// on a fresh server: every response must be byte-identical, and the
// tabulation must have been drawn and its cost table filled exactly once
// (one miss each, the rest coalesced or cache hits).
func TestConcurrentClientsDeterministic(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 4, CacheBytes: 64 << 20})
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(h, "/v1/learn", learnBody)
			if w.Code == 200 {
				bodies[i] = w.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("client %d failed", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	var misses, fills int64
	for _, sh := range s.shards {
		misses += sh.bundles.misses.Load()
		fills += sh.tables.misses.Load()
	}
	if misses != 1 {
		t.Fatalf("tabulation drawn %d times for one key, want 1", misses)
	}
	if fills != 1 {
		t.Fatalf("cost table filled %d times for one bundle, want 1", fills)
	}
}

// Concurrent bundle misses on one (source, seed) derive from whichever
// siblings are cached when each draws, so which sets seed which depends
// on timing; every body must still equal the cold server's.
func TestConcurrentSiblingMisses(t *testing.T) {
	_, cold := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 0})
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 4, CacheBytes: 64 << 20})
	body := func(i int) string {
		path, cap := "/v1/test/l2", 2000-2*i
		if i%3 == 0 {
			path, cap = "/v1/learn", 350+2*i
		}
		return path + " " + fmt.Sprintf(
			`{"tenant":"acme","source":{"gen":"zipf","n":256},"k":3,"eps":0.3,"scale":1,"cap":%d,"seed":9}`, cap)
	}
	const clients = 12
	got := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, req, _ := strings.Cut(body(i), " ")
			if w := post(h, path, req); w.Code == 200 {
				got[i] = w.Body.String()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		path, req, _ := strings.Cut(body(i), " ")
		if want := post(cold, path, req).Body.String(); got[i] != want {
			t.Fatalf("client %d (%s): body differs from the cold server's\n got: %s\nwant: %s", i, path, got[i], want)
		}
	}
	var derived int64
	for _, sh := range s.shards {
		derived += sh.derived.Load()
	}
	t.Logf("%d concurrent misses, %d derived", clients, derived)
}

// TestTenantsSpreadOverShards checks the routing layer actually shards:
// distinct tenants hammering distinct sources land on more than one
// shard.
func TestTenantsSpreadOverShards(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 4, WorkersPerShard: 1, CacheBytes: 64 << 20})
	for i := 0; i < 12; i++ {
		body := fmt.Sprintf(
			`{"tenant":"t%d","source":{"gen":"uniform","n":64},"k":2,"eps":0.3,"scale":0.02,"cap":1000,"seed":%d}`, i, i)
		if w := post(h, "/v1/learn", body); w.Code != 200 {
			t.Fatalf("request %d: code %d: %s", i, w.Code, w.Body.String())
		}
	}
	busy := 0
	for _, sh := range s.shards {
		if sh.requests.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("12 tenants landed on %d shard(s), want spread over at least 2", busy)
	}
}

func TestStatsCounters(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20})
	post(h, "/v1/learn", learnBody)
	post(h, "/v1/learn", learnBody)
	w := get(h, "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats unmarshal: %v", err)
	}
	if st.Requests != 2 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = requests %d misses %d hits %d, want 2/1/1", st.Requests, st.CacheMisses, st.CacheHits)
	}
	if len(st.PerShard) != 1 || st.PerShard[0].CacheEntries != 1 || st.PerShard[0].CacheBytes <= 0 {
		t.Fatalf("per-shard cache accounting off: %+v", st.PerShard)
	}
	if sh := st.PerShard[0]; sh.LearnTableFills != 1 || sh.LearnTableHits != 1 || sh.LearnTableCoalesced != 0 ||
		sh.LearnTableBytes <= 0 || sh.LearnTableBytes >= sh.CacheBytes {
		t.Fatalf("learn table counters off: %+v", sh)
	}
	if st.CacheBytesPerShard != 64<<20 || st.MaxQueuePerShard != DefaultQueueFactor {
		t.Fatalf("effective budgets off: per-shard cache %d queue %d", st.CacheBytesPerShard, st.MaxQueuePerShard)
	}
	if st.Shed != 0 || st.PerShard[0].InFlight != 0 || st.PerShard[0].QueueDepth != 0 {
		t.Fatalf("admission counters off at rest: %+v", st.PerShard[0])
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" || st.Tenants[0].Admitted != 2 || st.Tenants[0].InFlight != 0 {
		t.Fatalf("tenant usage off: %+v", st.Tenants)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budgets big enough for roughly one bundle with its cost table, and
	// for roughly one bundle alone: hammering distinct seeds must keep
	// cache_bytes under the cap after every learn, tables included.
	probe := mustNew(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20})
	ph := probe.Handler()
	post(ph, "/v1/learn", learnBody)
	_, withTable := probe.shards[0].cache.stats()
	table := probe.shards[0].cache.attachedStats()
	probe.Close()
	oneBundle := withTable - table
	if oneBundle <= 0 || table <= 0 {
		t.Fatalf("probe bundle has %d accounted bytes and its table %d", oneBundle, table)
	}

	for _, tc := range []struct {
		name      string
		capBytes  int64
		keepTable bool
	}{
		{"bundle and table", withTable + withTable/2, true},
		{"bundle alone", oneBundle + oneBundle/2, false},
	} {
		s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: tc.capBytes})
		for seed := 0; seed < 5; seed++ {
			body := fmt.Sprintf(
				`{"source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":0.05,"cap":20000,"seed":%d}`, seed)
			if w := post(h, "/v1/learn", body); w.Code != 200 {
				t.Fatalf("%s: seed %d: code %d", tc.name, seed, w.Code)
			}
			if _, bytes := s.shards[0].cache.stats(); bytes > tc.capBytes {
				t.Fatalf("%s: cache grew to %d bytes, budget %d", tc.name, bytes, tc.capBytes)
			}
			if kept := s.shards[0].cache.attachedStats() > 0; kept != tc.keepTable {
				t.Fatalf("%s: seed %d: cost table kept = %t, want %t", tc.name, seed, kept, tc.keepTable)
			}
		}
		entries, _ := s.shards[0].cache.stats()
		if entries != 1 {
			t.Fatalf("%s: cache holds %d bundles under a ~1.5-bundle budget, want 1", tc.name, entries)
		}
	}
}

// TestTransposedGridsDistinctCacheEntries guards the learn2d cache key:
// two grids with identical flattened pmfs but transposed shapes must not
// collide (the key includes rows x cols, not just the fingerprint).
func TestTransposedGridsDistinctCacheEntries(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20})
	for _, shape := range []string{`"rows":4,"cols":8`, `"rows":8,"cols":4`} {
		body := `{"source":{"gen":"uniform",` + shape + `},"k":2,"eps":0.3,"samples":500,"seed":3}`
		w := post(h, "/v1/learn2d", body)
		if w.Code != 200 {
			t.Fatalf("shape {%s}: code %d: %s", shape, w.Code, w.Body.String())
		}
	}
}

// TestResourceCeilings guards the server-side budget enforcement: huge
// request-supplied budgets are clamped or rejected, never honored into
// an allocation the process cannot survive.
func TestResourceCeilings(t *testing.T) {
	_, h := newTestServer(t, Config{
		Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20,
		MaxSamplesPerSet: 1000, MaxDomain: 4096,
	})

	// Tiny eps with no cap: every set is clamped to 1000 samples.
	w := post(h, "/v1/learn", `{"source":{"gen":"zipf","n":256},"k":4,"eps":0.001,"seed":1}`)
	if w.Code != 200 {
		t.Fatalf("clamped learn: code %d: %s", w.Code, w.Body.String())
	}
	var resp LearnResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ell > 1000 || resp.M > 1000 {
		t.Fatalf("budget not clamped: ell=%d m=%d, ceiling 1000", resp.Ell, resp.M)
	}

	// A request cap above the ceiling does not loosen it.
	w = post(h, "/v1/learn", `{"source":{"gen":"zipf","n":256},"k":4,"eps":0.001,"cap":100000000,"seed":1}`)
	var capped LearnResponse
	if err := json.Unmarshal(w.Body.Bytes(), &capped); err != nil {
		t.Fatal(err)
	}
	if capped.Ell > 1000 || capped.M > 1000 {
		t.Fatalf("request cap loosened the server ceiling: ell=%d m=%d", capped.Ell, capped.M)
	}

	// Oversized domains are rejected up front, before any O(n) build.
	for path, body := range map[string]string{
		"/v1/learn":   `{"source":{"gen":"zipf","n":1000000000},"k":4,"eps":0.2,"seed":1}`,
		"/v1/learn2d": `{"source":{"gen":"uniform","rows":100000,"cols":100000},"k":2,"eps":0.2,"seed":1}`,
	} {
		if w := post(h, path, body); w.Code != 400 {
			t.Fatalf("%s oversized domain: code %d, want 400", path, w.Code)
		}
	}

	// A silly learn2d samples override is clamped, not honored.
	w = post(h, "/v1/learn2d", `{"source":{"gen":"uniform","rows":8,"cols":8},"k":2,"eps":0.3,"samples":1000000000000000,"seed":1}`)
	if w.Code != 200 {
		t.Fatalf("clamped learn2d: code %d: %s", w.Code, w.Body.String())
	}

	// k beyond the domain is a 400, not a billion greedy iterations.
	w = post(h, "/v1/learn", `{"source":{"gen":"zipf","n":256},"k":1000000000,"eps":0.2,"seed":1}`)
	if w.Code != 400 {
		t.Fatalf("k > n: code %d, want 400", w.Code)
	}
}

// A learn2d max_coords of 1 or below 0, a k below 1 and an eps outside
// (0, 1) are 400s carrying grid's own option error, in JSON and binary
// bodies, answered before any sample is drawn.
func TestLearn2DRejectsBadMaxCoords(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})
	for _, tc := range []struct {
		k         int
		eps       float64
		maxCoords int
		want      error
	}{
		{3, 0.2, -1, grid.ErrBadCoords},
		{3, 0.2, 1, grid.ErrBadCoords},
		{0, 0.2, 0, grid.ErrBadK},
		{3, 1, 0, grid.ErrBadEps},
	} {
		req := Learn2DRequest{Source: Source2DSpec{Gen: "rect", Rows: 12, Cols: 12, K: 3, Seed: 2}, K: tc.k, Eps: tc.eps, Samples: 2000, MaxCoords: tc.maxCoords, Seed: 5}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for enc, w := range map[string]*httptest.ResponseRecorder{
			"json":   post(h, "/v1/learn2d", string(body)),
			"binary": binPost(h, "/v1/learn2d", req.appendBinary(nil), BinaryContentType, ""),
		} {
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want.Error()) {
				t.Errorf("%s k=%d eps=%v max_coords=%d: code %d body %s, want 400 with %q",
					enc, tc.k, tc.eps, tc.maxCoords, w.Code, w.Body.String(), tc.want)
			}
		}
	}
	for i, sh := range s.shards {
		if n := sh.samplesDrawn.Load(); n != 0 {
			t.Errorf("shard %d drew %d samples for rejected requests", i, n)
		}
	}
	w := post(h, "/v1/learn2d", `{"source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"max_coords":2,"seed":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("max_coords=2: code %d: %s", w.Code, w.Body.String())
	}
}

// TestComputePanicContained guards the shard's recover: a panicking
// compute task becomes a per-request error (for the leader and its
// coalesced followers), never a process crash, and is not cached.
func TestComputePanicContained(t *testing.T) {
	sh := newShard(2, 1<<20, 16)
	defer sh.close()
	if err := sh.run(nil, func() { panic("boom") }); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run returned %v, want contained panic", err)
	}
	_, status, err := sh.tabulated(context.Background(), nil, "key", func() (any, int64) { panic("draw failed") })
	if err == nil || status != StatusMiss {
		t.Fatalf("tabulated returned status %q err %v, want miss with error", status, err)
	}
	// The failed build must not be cached; a retry rebuilds and succeeds.
	v, status, err := sh.tabulated(context.Background(), nil, "key", func() (any, int64) { return "ok", 2 })
	if err != nil || status != StatusMiss || v != "ok" {
		t.Fatalf("retry after panic: v=%v status=%q err=%v", v, status, err)
	}
}

func TestLearnTestersShareDrawNamespace(t *testing.T) {
	// The learner's weight set makes its sizes profile distinct from any
	// tester's, so learn and test requests against the same source+seed
	// must use different cache entries (no false sharing).
	s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20})
	src := `{"source":{"gen":"uniform","n":128},"k":2,"eps":0.3,"scale":0.01,"cap":1000,"seed":5`
	post(h, "/v1/learn", src+`}`)
	post(h, "/v1/test/l2", src+`}`)
	entries, _ := s.shards[0].cache.stats()
	if entries != 2 {
		t.Fatalf("learn+test created %d cache entries, want 2 distinct budgets", entries)
	}
}

// TestCancelledFollowerReleasesAdmissionSlots drives the slot-leak
// regression end to end: a request that coalesces onto a slow leader
// and then has its context cancelled (client disconnected) must return
// — releasing its shard admission slot and tenant in-flight slot —
// while the leader is still drawing. Before the fix the follower's
// handler blocked inside sh.tabulated until the leader finished, so a
// burst of disconnected followers could pin a shard's whole admission
// budget to one slow draw.
func TestCancelledFollowerReleasesAdmissionSlots(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 2, CacheBytes: 64 << 20})

	// Compute the sets key exactly as handleLearn does, then occupy it
	// with a controlled leader so the follower's timing is deterministic.
	var req LearnRequest
	if err := json.Unmarshal([]byte(learnBody), &req); err != nil {
		t.Fatal(err)
	}
	d, err := s.resolveSource(req.Source)
	if err != nil {
		t.Fatal(err)
	}
	opts := learn.Options{K: req.K, Eps: req.Eps, SampleScale: req.Scale,
		MaxSamplesPerSet: s.sampleCap(req.Cap), Parallelism: s.cfg.WorkersPerShard}
	ell, rr, m, err := opts.SetSizes(d.N())
	if err != nil {
		t.Fatal(err)
	}
	key := setsKey(d.Fingerprint(), req.Seed, ell, rr, m)
	sh := s.shardFor(req.Tenant, req.Source.key())

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := sh.tabulated(context.Background(), nil, key, func() (any, int64) {
			close(started)
			<-release
			return sh.drawSets(d, key, req.Seed, ell, rr, m, s.cfg.WorkersPerShard)
		})
		leaderDone <- err
	}()
	<-started

	// The follower is a real request through the handler with a
	// cancellable context, as an HTTP client disconnect delivers it.
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/learn", strings.NewReader(learnBody)).WithContext(ctx)
		h.ServeHTTP(w, r)
		followerDone <- w
	}()
	// Wait for the follower to take its admission slot, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for sh.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never acquired an admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case w := <-followerDone:
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("cancelled follower: code %d, want 500", w.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower still holds its slots, blocked on the leader")
	}
	// Slots are back while the leader is *still* running.
	if got := sh.inflight.Load(); got != 0 {
		t.Fatalf("shard in-flight = %d after follower cancel, want 0", got)
	}
	if st := s.quotas.stats(); len(st) != 1 || st[0].InFlight != 0 {
		t.Fatalf("tenant in-flight not released: %+v", st)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader disturbed by abandoned follower: %v", err)
	}
	// The bundle was published: the next request is a plain cache hit.
	if w := post(h, "/v1/learn", learnBody); w.Code != 200 || w.Header().Get(CacheHeader) != StatusHit {
		t.Fatalf("post-cancel request: code %d cache %q, want 200 hit", w.Code, w.Header().Get(CacheHeader))
	}
}

// TestRequestsAfterCloseStillServed pins the Server.Close contract the
// cluster drain path relies on: requests that slip in after Close are
// still served correctly (par.Pool.Do degrades to caller execution —
// the per-shard compute bound is gone, not the behavior), so a node
// being drained can finish its tail of requests before the listener
// closes.
func TestRequestsAfterCloseStillServed(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 0})
	h := s.Handler()
	before := post(h, "/v1/learn", learnBody)
	if before.Code != 200 {
		t.Fatalf("pre-close request: code %d", before.Code)
	}
	s.Close()
	after := post(h, "/v1/learn", learnBody)
	if after.Code != 200 {
		t.Fatalf("post-close request: code %d, want 200 (Close must not break late requests)", after.Code)
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatal("post-close body differs from pre-close body")
	}
}
