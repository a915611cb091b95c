package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestContentTypes audits every endpoint's Content-Type: the JSON API
// always answers application/json (success and error alike), /metrics
// is Prometheus text, and /healthz plain text. Table-driven so a new
// endpoint that forgets its header fails here.
func TestContentTypes(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20})

	cases := []struct {
		name, method, path, body, wantCT string
	}{
		{"learn", "POST", "/v1/learn", learnBody, "application/json"},
		{"learn-error", "POST", "/v1/learn", `{"bad json`, "application/json"},
		{"test-l2", "POST", "/v1/test/l2", testL2Body, "application/json"},
		{"test-l1", "POST", "/v1/test/l1", testL2Body, "application/json"},
		{"learn2d", "POST", "/v1/learn2d",
			`{"source":{"gen":"blocks2d","rows":16,"cols":16,"k":3,"seed":1},"k":3,"eps":0.3,"seed":2}`,
			"application/json"},
		{"stats", "GET", "/v1/stats", "", "application/json"},
		{"cluster", "GET", "/v1/cluster", "", "application/json"},
		{"metrics", "GET", "/metrics", "", "text/plain; version=0.0.4; charset=utf-8"},
		{"healthz", "GET", "/healthz", "", "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w interface {
				Header() http.Header
				Result() *http.Response
			}
			if tc.method == "POST" {
				w = post(h, tc.path, tc.body)
			} else {
				w = get(h, tc.path)
			}
			if got := w.Header().Get("Content-Type"); got != tc.wantCT {
				t.Errorf("%s %s: Content-Type = %q, want %q (status %d)",
					tc.method, tc.path, got, tc.wantCT, w.Result().StatusCode)
			}
		})
	}
}

// TestMetricsEndpoint drives load through every layer and checks the
// rendered /metrics: endpoint counters, cache counters, and — after a
// snapshot — the learned latency k-histogram. This is the dogfooding
// acceptance check: the latency summary on /metrics is produced by the
// repo's own v-optimal learner.
func TestMetricsEndpoint(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		Metrics: MetricsConfig{Window: time.Hour, K: 4}}) // snapshots only on demand

	for i := 0; i < 12; i++ {
		if w := post(h, "/v1/learn", learnBody); w.Code != 200 {
			t.Fatalf("learn %d: code %d", i, w.Code)
		}
	}
	if w := post(h, "/v1/learn", `{"nope`); w.Code != 400 {
		t.Fatal("bad request not rejected")
	}
	get(h, "/v1/stats")

	if snap := s.SnapshotMetrics(); snap == nil || snap.Count < 12 {
		t.Fatalf("snapshot: %+v", snap)
	}

	w := get(h, "/metrics")
	if w.Code != 200 {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		`khist_requests_total{endpoint="learn"} 13`,
		`khist_responses_total{endpoint="learn",class="2xx"} 12`,
		`khist_responses_total{endpoint="learn",class="4xx"} 1`,
		`khist_requests_total{endpoint="stats"} 1`,
		"khist_request_latency_count 14", // 13 learns + 1 stats (this scrape not yet counted at render time)
		"khist_request_latency_learned_bucket{piece=",
		"khist_request_latency_learned_pieces",
		"khist_cache_hits_total{shard=",
		"khist_cache_misses_total{shard=",
		"khist_learn_table_fills_total{shard=",
		"khist_learn_table_coalesced_total{shard=",
		"khist_learn_table_bytes{shard=",
		"khist_bundle_derived_total{shard=",
		"khist_samples_drawn_total{shard=",
		"khist_pool_wait_count",
		"khist_compute_count",
		// The forced snapshot's cumulative buckets count every pool run.
		`khist_pool_wait_us_bucket{le="+Inf"} 14` + "\n",
		`khist_compute_us_bucket{le="+Inf"} 14` + "\n",
		`khist_quota_admitted_total{class="default"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The 12 cached learns hit one shard: hits land somewhere.
	if !strings.Contains(out, `khist_cache_hits_total{shard="0"} 11`) &&
		!strings.Contains(out, `khist_cache_hits_total{shard="1"} 11`) {
		t.Errorf("expected 11 cache hits on one shard in:\n%s", out)
	}
	// Their bundle's cost table was filled once and shared by the rest.
	if !strings.Contains(out, `khist_learn_table_hits_total{shard="0"} 11`) &&
		!strings.Contains(out, `khist_learn_table_hits_total{shard="1"} 11`) {
		t.Errorf("expected 11 learn table hits on one shard in:\n%s", out)
	}
	// Both pool recorders take one sample per pool run, from the same
	// measurement: the 12 learns made 14 (one draw, one table fill, 12
	// algorithm runs).
	if got := s.metrics.compute.Count(); got != 14 {
		t.Errorf("compute recorder saw %d runs, want 14", got)
	}
	if got := s.metrics.poolWait.Count(); got != 14 {
		t.Errorf("pool-wait recorder saw %d waits, want 14", got)
	}

	// /v1/stats carries the same snapshot.
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Latency == nil || stats.Latency.Count < 12 {
		t.Fatalf("stats latency section: %+v", stats.Latency)
	}
	if len(stats.Latency.Pieces) == 0 {
		t.Error("stats latency has no learned pieces")
	}
	var mass float64
	for _, p := range stats.Latency.Pieces {
		mass += p.Mass
	}
	if mass < 0.9 || mass > 1.1 {
		t.Errorf("learned masses sum to %v", mass)
	}
}

// TestMetricsDisabled: Disabled must remove the plane entirely — no
// /metrics route, no latency section in stats, identical bodies.
func TestMetricsDisabled(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20,
		Metrics: MetricsConfig{Disabled: true}})
	if w := get(h, "/metrics"); w.Code != 404 {
		t.Errorf("GET /metrics with metrics disabled: %d, want 404", w.Code)
	}
	post(h, "/v1/learn", learnBody)
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Latency != nil {
		t.Error("stats carries a latency section with metrics disabled")
	}
}

// TestMetricsBodyIdentity is the acceptance criterion that
// instrumentation never touches bodies: every endpoint's response is
// byte-identical with the metrics plane on and off.
func TestMetricsBodyIdentity(t *testing.T) {
	base := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20}
	on := base
	off := base
	off.Metrics.Disabled = true
	_, hOn := newTestServer(t, on)
	_, hOff := newTestServer(t, off)

	for path, body := range map[string]string{
		"/v1/learn":   learnBody,
		"/v1/test/l2": testL2Body,
		"/v1/test/l1": testL2Body,
	} {
		for round := 0; round < 2; round++ { // cold, then cached
			a := post(hOn, path, body)
			b := post(hOff, path, body)
			if a.Code != b.Code || a.Body.String() != b.Body.String() {
				t.Errorf("%s round %d: bodies differ with metrics on/off", path, round)
			}
		}
	}
}

// TestStatsUnderLoad hammers /v1/stats and /metrics while algorithm
// requests are in flight: with -race this is the audit that every
// counter the read path touches is properly synchronized against the
// write path.
func TestStatsUnderLoad(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 32 << 20,
		MaxQueuePerShard: 64,
		Quotas:           QuotaConfig{Default: TenantQuota{RPS: 1e9, MaxInFlight: 1 << 20}},
		Metrics:          MetricsConfig{Window: time.Hour, K: 3}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // writers: a mix of hits and misses
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := learnBody
				if i%4 == 0 {
					body = fmt.Sprintf(
						`{"tenant":"t%d","source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":0.05,"cap":20000,"seed":%d}`,
						w, i%8)
				}
				post(h, "/v1/learn", body)
			}
		}(w)
	}
	for r := 0; r < 2; r++ { // readers: stats + metrics + snapshots
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w := get(h, "/v1/stats"); w.Code != 200 {
					t.Errorf("stats code %d", w.Code)
					return
				}
				if w := get(h, "/metrics"); w.Code != 200 {
					t.Errorf("metrics code %d", w.Code)
					return
				}
				s.SnapshotMetrics()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The counters must be coherent after the dust settles.
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests < 1 {
		t.Error("no requests recorded")
	}
	if got := s.metrics.latency.Count(); got < stats.Requests {
		t.Errorf("latency recorder saw %d observations, stats counted %d admitted requests",
			got, stats.Requests)
	}
}

// TestClusterPeerMetrics checks the per-peer forwarding series on a
// 2-node ring: the non-owner's /metrics carries forward counters and
// round-trip time for the owner, and the owner's carries none.
func TestClusterPeerMetrics(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 16 << 20},
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 16 << 20},
	})
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	fwd := 0 // index of the non-owner node
	if urls[0] == owner {
		fwd = 1
	}

	// Two forwarded requests (cold, then the owner's cache hit).
	for i := 0; i < 2; i++ {
		resp, _ := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("forwarded learn: %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Khist-Forwarded") == "" {
			t.Fatal("request was not forwarded — ring routing changed?")
		}
	}

	resp, err := http.Get(urls[fwd] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	peerLabel := fmt.Sprintf(`peer="%s"`, owner)
	if !strings.Contains(out, fmt.Sprintf(`khist_peer_forwards_total{%s,class="2xx"} 2`, peerLabel)) {
		t.Errorf("forwarder metrics missing per-peer forward count for %s:\n%s", owner, out)
	}
	if !strings.Contains(out, fmt.Sprintf("khist_peer_forward_us_total{%s}", peerLabel)) {
		t.Errorf("forwarder metrics missing per-peer round-trip sum")
	}
	if !strings.Contains(out, "khist_cluster_forwarded_total 2") {
		t.Errorf("forwarder metrics missing cluster forwarded counter")
	}
	if !strings.Contains(out, "khist_forward_latency_count 2") {
		t.Errorf("forward latency recorder missing")
	}
	// Exclusions: none happened.
	if !strings.Contains(out, fmt.Sprintf("khist_peer_excluded_total{%s} 0", peerLabel)) {
		t.Errorf("per-peer exclusion counter missing or nonzero")
	}
}
