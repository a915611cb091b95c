package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"khist/internal/cluster"
	"khist/internal/dist"
)

// startCluster boots len(cfgs) Servers wired into one ring over real
// HTTP listeners (forwarding needs the network). The chicken-and-egg —
// peer URLs exist only after the listeners start, but Servers need the
// peer list — is resolved with late-bound handlers.
func startCluster(t *testing.T, cfgs []Config) (urls []string, servers []*Server, listeners []*httptest.Server) {
	t.Helper()
	n := len(cfgs)
	handlers := make([]atomic.Value, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		listeners = append(listeners, ts)
	}
	for i := range cfgs {
		cfgs[i].Cluster = ClusterConfig{Self: urls[i], Peers: urls}
		s := mustNew(t, cfgs[i])
		t.Cleanup(s.Close)
		handlers[i].Store(s.Handler())
		servers = append(servers, s)
	}
	return urls, servers, listeners
}

// httpDo sends one request to a live node and buffers the answer.
func httpDo(t *testing.T, url, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// learnRoutingKey computes the ring key of a learn/test request body
// the same way the handlers do.
func learnRoutingKey(t *testing.T, body string) string {
	t.Helper()
	var req LearnRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return routingKey(req.Tenant, req.Source.key())
}

// TestClusterEquivalence1v3 is the scale-out determinism contract: a
// 3-node ring — every node configured with *different* shard and worker
// counts — answers byte-identically to a standalone server, whichever
// node the client connects to, on every endpoint, cold and warm.
func TestClusterEquivalence1v3(t *testing.T) {
	bodies := map[string]string{
		"/v1/learn":   learnBody,
		"/v1/test/l2": testL2Body,
		"/v1/test/l1": `{"tenant":"acme","source":{"gen":"staircase","n":128},"k":3,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`,
		"/v1/learn2d": `{"tenant":"acme","source":{"gen":"rect","rows":12,"cols":12,"k":3,"seed":2},"k":3,"eps":0.2,"samples":2000,"seed":5}`,
	}
	urls, _, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20},
		{Shards: 3, WorkersPerShard: 2, CacheBytes: 64 << 20},
		{Shards: 7, WorkersPerShard: 4, CacheBytes: 0}, // caching off on one node
	})
	_, standalone := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})

	for path, body := range bodies {
		want := post(standalone, path, body)
		if want.Code != 200 {
			t.Fatalf("standalone %s: code %d: %s", path, want.Code, want.Body.String())
		}
		// Two passes: cold/forwarded, then cached/forwarded-hit.
		for pass := 0; pass < 2; pass++ {
			for i, url := range urls {
				resp, got := httpDo(t, url, path, body, nil)
				if resp.StatusCode != 200 {
					t.Fatalf("%s via node %d pass %d: code %d: %s", path, i, pass, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want.Body.Bytes()) {
					t.Fatalf("%s via node %d pass %d: body diverged from standalone\n got: %s\nwant: %s",
						path, i, pass, got, want.Body.String())
				}
			}
		}
	}
}

// TestClusterForwardWarmAndFallback walks the full forwarding life
// cycle on a 2-node ring: a request to the non-owner is forwarded (hop
// guard echoed, owner misses), its repeat is a forwarded cache hit, the
// forwarder has warmed its own cache from the owner's bundle over the
// wire codec — and when the owner dies, the forwarder serves the key
// locally from that warm cache, byte-identically, without re-drawing.
func TestClusterForwardWarmAndFallback(t *testing.T) {
	urls, servers, listeners := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20},
	})
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	var fwd, own int // node indexes: forwarder and owner
	if owner == urls[0] {
		own, fwd = 0, 1
	} else {
		own, fwd = 1, 0
	}

	// Cold: forwarded to the owner, computed there.
	resp, cold := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cold forward: code %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get(cluster.ForwardedHeader); got != urls[fwd] {
		t.Fatalf("cold forward %s = %q, want the forwarder %q", cluster.ForwardedHeader, got, urls[fwd])
	}
	if got := resp.Header.Get(CacheHeader); got != StatusMiss {
		t.Fatalf("cold forward %s = %q, want %q", CacheHeader, got, StatusMiss)
	}
	if got := resp.Header.Get(SetsKeyHeader); !strings.HasPrefix(got, "sets|") {
		t.Fatalf("cold forward %s = %q, want a sets key", SetsKeyHeader, got)
	}

	// Warm: same request, still forwarded, now a hit at the owner.
	resp, warm := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if got := resp.Header.Get(CacheHeader); got != StatusHit {
		t.Fatalf("second forward %s = %q, want %q", CacheHeader, got, StatusHit)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("forwarded hit body differs from forwarded miss body")
	}

	// The forwarder warmed its own cache from the owner over the codec.
	if got := servers[fwd].cluster.bundlesWarmed.Load(); got != 1 {
		t.Fatalf("forwarder warmed %d bundles, want 1", got)
	}
	if got := servers[own].cluster.bundlesServed.Load(); got != 1 {
		t.Fatalf("owner served %d bundles, want 1", got)
	}
	if got := servers[fwd].cluster.forwarded.Load(); got != 2 {
		t.Fatalf("forwarder forwarded %d requests, want 2", got)
	}
	if got := servers[own].cluster.servedForwarded.Load(); got != 2 {
		t.Fatalf("owner served %d forwarded requests, want 2", got)
	}

	// Owner dies: the forwarder serves the key locally — from the warm
	// cache (a hit, no re-draw), byte-identical to the owner's answer.
	// Closing the owner's listener makes forwards fail at the transport
	// level; the test cleanup closes it again harmlessly.
	listeners[own].CloseClientConnections()
	listeners[own].Close()
	resp, fallback := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("fallback request: code %d: %s", resp.StatusCode, fallback)
	}
	if got := resp.Header.Get(cluster.ForwardedHeader); got != "" {
		t.Fatalf("fallback response still carries %s = %q", cluster.ForwardedHeader, got)
	}
	if got := resp.Header.Get(CacheHeader); got != StatusHit {
		t.Fatalf("fallback %s = %q, want %q (warm cache must serve it)", CacheHeader, got, StatusHit)
	}
	if !bytes.Equal(fallback, cold) {
		t.Fatal("fallback body differs from the owner's body")
	}
	if got := servers[fwd].cluster.fallbackLocal.Load(); got != 1 {
		t.Fatalf("fallback_local = %d, want 1", got)
	}
}

// A bundle warmed from its owner holds peer bytes, which never seed a
// derivation: once the owner is gone, a learn at a sibling cap that the
// warmed node serves locally draws every set afresh, and answers as a
// standalone server does.
func TestClusterWarmedBundleNeverDerives(t *testing.T) {
	urls, servers, listeners := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20},
	})
	_, standalone := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})
	body := func(cap int) string {
		return fmt.Sprintf(`{"tenant":"acme","source":{"gen":"zipf","n":256},"k":3,"eps":0.3,"scale":1,"cap":%d,"seed":5}`, cap)
	}
	own := 0
	if servers[0].ring.Owner(learnRoutingKey(t, body(350))) != urls[0] {
		own = 1
	}
	fwd := 1 - own
	if resp, b := httpDo(t, urls[fwd], "/v1/learn", body(350), nil); resp.StatusCode != 200 || resp.Header.Get(cluster.ForwardedHeader) == "" {
		t.Fatalf("warming forward: code %d, forwarded %q: %s", resp.StatusCode, resp.Header.Get(cluster.ForwardedHeader), b)
	}
	if got := servers[fwd].cluster.bundlesWarmed.Load(); got != 1 {
		t.Fatalf("forwarder warmed %d bundles, want 1", got)
	}

	listeners[own].CloseClientConnections()
	listeners[own].Close()
	resp, got := httpDo(t, urls[fwd], "/v1/learn", body(352), nil)
	if resp.StatusCode != 200 || resp.Header.Get(cluster.ForwardedHeader) != "" || resp.Header.Get(CacheHeader) != StatusMiss {
		t.Fatalf("sibling learn: code %d, forwarded %q, cache %q, want a local miss: %s",
			resp.StatusCode, resp.Header.Get(cluster.ForwardedHeader), resp.Header.Get(CacheHeader), got)
	}
	want := post(standalone, "/v1/learn", body(352))
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatalf("sibling learn body differs from a standalone server's\n got: %s\nwant: %s", got, want.Body.String())
	}
	var plan LearnResponse
	if err := json.Unmarshal(got, &plan); err != nil {
		t.Fatal(err)
	}
	var derived, drawn int64
	for _, sh := range servers[fwd].shards {
		derived += sh.derived.Load()
		drawn += sh.samplesDrawn.Load()
	}
	if want := int64(plan.Ell + plan.R*plan.M); derived != 0 || drawn != want {
		t.Fatalf("warmed node derived %d bundles and drew %d samples, want 0 and %d drawn afresh", derived, drawn, want)
	}
}

// TestClusterQuotaSingleBudget: per-tenant quotas are enforced at the
// owning node, so a tenant's budget is one budget across the ring — a
// request spent through a forwarder and a request sent directly to the
// owner drain the same bucket, and the owner's 429 is relayed verbatim.
func TestClusterQuotaSingleBudget(t *testing.T) {
	quota := QuotaConfig{Tenants: map[string]TenantQuota{"acme": {RPS: 0.001, Burst: 1}}}
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, Quotas: quota},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, Quotas: quota},
	})
	now := time.Unix(5000, 0)
	for _, s := range servers {
		s.quotas.now = func() time.Time { return now }
	}
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	var fwd, own int
	if owner == urls[0] {
		own, fwd = 0, 1
	} else {
		own, fwd = 1, 0
	}

	// The tenant's single burst token is spent via the forwarder...
	if resp, body := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil); resp.StatusCode != 200 {
		t.Fatalf("first request: code %d: %s", resp.StatusCode, body)
	}
	// ...so a direct request to the owner is over quota: one budget.
	resp, body := httpDo(t, urls[own], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("direct request after forwarded spend: code %d, want 429 (body %s)", resp.StatusCode, body)
	}
	// And the relayed verdict through the forwarder is the same 429,
	// Retry-After intact.
	resp, body = httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("relayed over-quota request: code %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed 429 lost its Retry-After header")
	}
	if !strings.Contains(string(body), "rate quota") {
		t.Fatalf("relayed 429 body does not name the quota: %s", body)
	}
	// The forwarder's own quota table was never charged for the tenant.
	for _, ts := range servers[fwd].quotas.stats() {
		if ts.Tenant == "acme" && ts.Admitted > 0 {
			t.Fatalf("forwarder charged the tenant locally: %+v", ts)
		}
	}
}

// TestClusterHopGuardRejectsLoop: a request that already carries the
// forwarded hop guard is never re-forwarded — a node that does not own
// its key answers 421 instead of bouncing it onward.
func TestClusterHopGuardRejectsLoop(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20},
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20},
	})
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	notOwner := 0
	if owner == urls[0] {
		notOwner = 1
	}
	resp, body := httpDo(t, urls[notOwner], "/v1/learn", learnBody,
		map[string]string{cluster.ForwardedHeader: "http://rogue"})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted forward: code %d, want 421 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "misrouted forward") {
		t.Fatalf("421 body: %s", body)
	}
	if got := servers[notOwner].cluster.loopsRejected.Load(); got != 1 {
		t.Fatalf("loops_rejected = %d, want 1", got)
	}
	// The same request to the actual owner is served (the hop guard
	// accepts exactly the owner), echoing the forwarder.
	ownIdx := 1 - notOwner
	resp, body = httpDo(t, urls[ownIdx], "/v1/learn", learnBody,
		map[string]string{cluster.ForwardedHeader: "http://rogue"})
	if resp.StatusCode != 200 {
		t.Fatalf("forward to the true owner: code %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cluster.ForwardedHeader); got != "http://rogue" {
		t.Fatalf("owner did not echo the hop guard: %q", got)
	}
}

// TestClusterBundleEndpoint drives /v1/cluster/bundle directly: cached
// keys are served as decodable wire bundles that fingerprint-match the
// cached sets, absent keys 404, and non-sets keys are rejected.
func TestClusterBundleEndpoint(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 1, CacheBytes: 64 << 20},
	})
	if resp, body := httpDo(t, urls[0], "/v1/learn", learnBody, nil); resp.StatusCode != 200 {
		t.Fatalf("seed request: code %d: %s", resp.StatusCode, body)
	}
	// Find the cached key and sets.
	var cachedKey string
	var cachedSets []*dist.Empirical
	for _, sh := range servers[0].shards {
		sh.cache.mu.Lock()
		for k, el := range sh.cache.entries {
			if sets, ok := el.val.([]*dist.Empirical); ok {
				cachedKey, cachedSets = k, sets
			}
		}
		sh.cache.mu.Unlock()
	}
	if cachedKey == "" {
		t.Fatal("no cached sample-set bundle after a learn request")
	}

	resp, raw := httpDo(t, urls[0], cluster.BundlePath, `{"key":"`+cachedKey+`"}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("bundle fetch: code %d: %s", resp.StatusCode, raw)
	}
	sets, err := dist.DecodeEmpiricalBundle(raw, 0, 0)
	if err != nil {
		t.Fatalf("decoding served bundle: %v", err)
	}
	if len(sets) != len(cachedSets) {
		t.Fatalf("bundle has %d sets, cache has %d", len(sets), len(cachedSets))
	}
	for i := range sets {
		if sets[i].Fingerprint() != cachedSets[i].Fingerprint() {
			t.Fatalf("set %d fingerprint diverges across the wire", i)
		}
	}

	if resp, _ := httpDo(t, urls[0], cluster.BundlePath, `{"key":"sets|nope"}`, nil); resp.StatusCode != 404 {
		t.Fatalf("absent bundle: code %d, want 404", resp.StatusCode)
	}
	if resp, _ := httpDo(t, urls[0], cluster.BundlePath, `{"key":"g|zipf|n=256"}`, nil); resp.StatusCode != 400 {
		t.Fatalf("non-sets key: code %d, want 400", resp.StatusCode)
	}
}

// TestSingleNodeRingBehavesStandalone: a one-node ring must be
// byte-identical to a no-ring server — same bodies, same cache headers,
// and no forwarding headers leak into direct responses.
func TestSingleNodeRingBehavesStandalone(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20},
	})
	_, standalone := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})

	for pass, wantStatus := range []string{StatusMiss, StatusHit} {
		want := post(standalone, "/v1/learn", learnBody)
		resp, got := httpDo(t, urls[0], "/v1/learn", learnBody, nil)
		if !bytes.Equal(got, want.Body.Bytes()) {
			t.Fatalf("pass %d: one-node ring body differs from standalone", pass)
		}
		if h := resp.Header.Get(CacheHeader); h != wantStatus {
			t.Fatalf("pass %d: %s = %q, want %q", pass, CacheHeader, h, wantStatus)
		}
		for _, h := range []string{cluster.ForwardedHeader, SetsKeyHeader} {
			if v := resp.Header.Get(h); v != "" {
				t.Fatalf("direct response leaked %s = %q", h, v)
			}
		}
	}
	if got := servers[0].cluster.forwarded.Load(); got != 0 {
		t.Fatalf("one-node ring forwarded %d requests", got)
	}
}

// TestClusterConfigValidation: broken cluster configs must fail New
// loudly, not run with surprise routing.
func TestClusterConfigValidation(t *testing.T) {
	bad := []ClusterConfig{
		{Peers: []string{"http://a", "http://b"}},                   // no self
		{Self: "http://c", Peers: []string{"http://a", "http://b"}}, // self not a peer
		{Self: "http://a"}, // self without peers
		{Self: "http://a", Peers: []string{"http://a", "http://a"}}, // duplicate peer
		{Self: "http://a", Peers: []string{"http://a", ""}},         // empty peer
	}
	for i, cc := range bad {
		if _, err := New(Config{Shards: 1, WorkersPerShard: 1, Cluster: cc}); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cc)
		}
	}
}

// TestForwarderShedsWhenSaturated: forwarding holds node resources (a
// goroutine, the buffered body and response), so a non-owner node at
// its shard admission limit sheds new forwards with 429 instead of
// accumulating unbounded in-flight relays.
func TestForwarderShedsWhenSaturated(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20, MaxQueuePerShard: 2},
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20, MaxQueuePerShard: 2},
	})
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	fwd := 0
	if owner == urls[0] {
		fwd = 1
	}
	var req LearnRequest
	if err := json.Unmarshal([]byte(learnBody), &req); err != nil {
		t.Fatal(err)
	}
	sh := servers[fwd].shardFor(req.Tenant, req.Source.key())
	// Saturate the forwarder's gate as two stuck relays would.
	if !sh.acquire() || !sh.acquire() {
		t.Fatal("gate refused requests under its limit")
	}
	resp, body := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 429 || !strings.Contains(string(body), "queue full") {
		t.Fatalf("saturated forwarder: code %d body %s, want 429 queue full", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("forwarder shed lost its Retry-After header")
	}
	sh.release()
	sh.release()
	if resp, _ := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil); resp.StatusCode != 200 {
		t.Fatalf("drained forwarder: code %d", resp.StatusCode)
	}
}

// TestClusterStreamEquivalence1v3 extends the scale-out contract to the
// ingest plane: a stream fed with identical batches answers learn and
// test queries byte-identically whether it lives on a standalone server
// or on a 3-node ring — and on the ring, both the ingest batches and
// the queries may arrive at any node, because the version-independent
// stream routing key forwards everything to one owner whose sketch seed
// depends only on (tenant, stream id), never on topology.
func TestClusterStreamEquivalence1v3(t *testing.T) {
	urls, _, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20},
		{Shards: 3, WorkersPerShard: 2, CacheBytes: 64 << 20},
		{Shards: 5, WorkersPerShard: 3, CacheBytes: 64 << 20},
	})
	_, standalone := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})

	batches := []string{
		ingestBody("acme", "checkout", 256, 900),
		ingestBody("acme", "checkout", 256, 450),
	}
	for i, b := range batches {
		if w := post(standalone, "/v1/ingest", b); w.Code != 200 {
			t.Fatalf("standalone ingest %d: code %d: %s", i, w.Code, w.Body.String())
		}
		// Feed the ring through a different node each batch; the ring
		// forwards every batch to the stream's single owner.
		resp, got := httpDo(t, urls[i%len(urls)], "/v1/ingest", b, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("ring ingest %d via node %d: code %d: %s", i, i%len(urls), resp.StatusCode, got)
		}
	}

	queries := map[string]string{
		"/v1/learn":   streamLearnBody,
		"/v1/test/l2": `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.25,"scale":0.05,"cap":20000,"seed":9}`,
		"/v1/test/l1": `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.3,"scale":0.01,"cap":2000,"seed":11}`,
	}
	for path, body := range queries {
		want := post(standalone, path, body)
		if want.Code != 200 {
			t.Fatalf("standalone %s: code %d: %s", path, want.Code, want.Body.String())
		}
		for pass := 0; pass < 2; pass++ {
			for i, url := range urls {
				resp, got := httpDo(t, url, path, body, nil)
				if resp.StatusCode != 200 {
					t.Fatalf("%s via node %d pass %d: code %d: %s", path, i, pass, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want.Body.Bytes()) {
					t.Fatalf("%s via node %d pass %d: body diverged from standalone\n got: %s\nwant: %s",
						path, i, pass, got, want.Body.String())
				}
			}
		}
	}

	// A version bump through the ring propagates: re-query and compare
	// against the standalone fed the same extra batch.
	extra := ingestBody("acme", "checkout", 256, 333)
	if w := post(standalone, "/v1/ingest", extra); w.Code != 200 {
		t.Fatalf("standalone extra ingest: code %d", w.Code)
	}
	if resp, got := httpDo(t, urls[2], "/v1/ingest", extra, nil); resp.StatusCode != 200 {
		t.Fatalf("ring extra ingest: code %d: %s", resp.StatusCode, got)
	}
	want := post(standalone, "/v1/learn", streamLearnBody)
	for i, url := range urls {
		resp, got := httpDo(t, url, "/v1/learn", streamLearnBody, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("post-bump learn via node %d: code %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got, want.Body.Bytes()) {
			t.Fatalf("post-bump learn via node %d diverged from standalone", i)
		}
	}
}
