package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"khist/internal/cluster"
	"khist/internal/obs/trace"
)

// traceList fetches and decodes GET /v1/trace from a handler.
func traceList(t *testing.T, h http.Handler, query string) TraceListResponse {
	t.Helper()
	w := get(h, "/v1/trace"+query)
	if w.Code != 200 {
		t.Fatalf("GET /v1/trace%s: code %d: %s", query, w.Code, w.Body.String())
	}
	var resp TraceListResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding trace list: %v", err)
	}
	return resp
}

// spanNames flattens a trace's local span names, in order.
func spanNames(tr *trace.Trace) []string {
	var names []string
	for _, sp := range tr.Spans {
		if sp.Node == "" {
			names = append(names, sp.Name)
		}
	}
	return names
}

func hasSpan(tr *trace.Trace, name string) bool {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestTraceLifecycleSingleNode walks the single-node tracing life cycle:
// a cold request is traced through every layer, its repeat is traced
// through the response-cache fast path, both are retained (sample 1),
// and /v1/trace serves list, filters, and by-id lookup.
func TestTraceLifecycleSingleNode(t *testing.T) {
	_, h := newTestServer(t, Config{
		Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 8 << 20,
		Trace:              TraceConfig{SampleN: 1},
	})
	for pass := 0; pass < 2; pass++ {
		if w := post(h, "/v1/learn", learnBody); w.Code != 200 {
			t.Fatalf("pass %d: code %d: %s", pass, w.Code, w.Body.String())
		}
	}

	resp := traceList(t, h, "")
	if !resp.Enabled || resp.SampleN != 1 {
		t.Fatalf("trace plane not enabled with sample 1: %+v", resp)
	}
	if len(resp.Traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(resp.Traces))
	}
	// Newest first: Traces[0] is the warm (rcache-hit) pass, Traces[1]
	// the cold pass.
	warm, cold := resp.Traces[0], resp.Traces[1]
	for _, want := range []string{trace.SpanRCache, trace.SpanDecode, trace.SpanAdmit,
		trace.SpanTabulate, trace.SpanQueueWait, trace.SpanCompute, trace.SpanEncode} {
		if !hasSpan(cold, want) {
			t.Errorf("cold trace misses span %q: %v", want, spanNames(cold))
		}
	}
	if cold.Endpoint != epLearn || cold.Status != 200 || cold.Retained != trace.KeptHead {
		t.Fatalf("cold trace: %+v", cold)
	}
	// The warm pass served stored bytes: rcache hit + admission, no
	// decode/tabulate/compute/encode.
	if !hasSpan(warm, trace.SpanRCache) || !hasSpan(warm, trace.SpanAdmit) {
		t.Fatalf("warm trace misses fast-path spans: %v", spanNames(warm))
	}
	for _, absent := range []string{trace.SpanDecode, trace.SpanTabulate, trace.SpanCompute, trace.SpanEncode} {
		if hasSpan(warm, absent) {
			t.Errorf("warm (rcache) trace has slow-path span %q: %v", absent, spanNames(warm))
		}
	}

	// By-id lookup round-trips; a bogus id is a 404.
	w := get(h, "/v1/trace/"+cold.ID)
	if w.Code != 200 || !strings.Contains(w.Body.String(), cold.ID) {
		t.Fatalf("GET /v1/trace/%s: code %d: %s", cold.ID, w.Code, w.Body.String())
	}
	if w := get(h, "/v1/trace/ffffffffffffffff"); w.Code != 404 {
		t.Fatalf("bogus trace id: code %d", w.Code)
	}

	// Filters narrow; bad filter values are 400s.
	if got := traceList(t, h, "?endpoint=learn"); len(got.Traces) != 2 {
		t.Fatalf("endpoint=learn filter: %d traces, want 2", len(got.Traces))
	}
	if got := traceList(t, h, "?endpoint=batch"); len(got.Traces) != 0 {
		t.Fatalf("endpoint=batch filter: %d traces, want 0", len(got.Traces))
	}
	if got := traceList(t, h, "?status=500"); len(got.Traces) != 0 {
		t.Fatalf("status=500 filter: %d traces, want 0", len(got.Traces))
	}
	if w := get(h, "/v1/trace?status=abc"); w.Code != 400 {
		t.Fatalf("bad status filter: code %d", w.Code)
	}
	if w := get(h, "/v1/trace?min_dur_us=x"); w.Code != 400 {
		t.Fatalf("bad min_dur_us filter: code %d", w.Code)
	}
}

// TestTraceBatchItemSpansMatchSingle: a batch item runs the single
// request's pipeline, so it records the same spans. Beside the envelope's
// own plan span (and the single request's decode), a warm item is rcache
// and admit, and a cold one adds the bundle draw, the table fill, the
// algorithm run's queue wait and compute, and the encode.
func TestTraceBatchItemSpansMatchSingle(t *testing.T) {
	cfg := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		ResponseCacheBytes: 8 << 20, Trace: TraceConfig{SampleN: 1}}
	_, hs := newTestServer(t, cfg)
	_, hb := newTestServer(t, cfg)
	env := batchEnvelope(t, BatchItem{Op: epLearn, Req: json.RawMessage(learnBody)})
	for pass := 0; pass < 2; pass++ {
		if w := post(hs, "/v1/learn", learnBody); w.Code != 200 {
			t.Fatalf("single pass %d: code %d: %s", pass, w.Code, w.Body.String())
		}
		if w := post(hb, "/v1/batch", env); w.Code != 200 {
			t.Fatalf("batch pass %d: code %d: %s", pass, w.Code, w.Body.String())
		}
	}
	// itemSpans drops the spans that belong to the request's envelope,
	// not to the pipeline it shares.
	itemSpans := func(tr *trace.Trace) []string {
		var names []string
		for _, name := range spanNames(tr) {
			if name != trace.SpanPlan && name != trace.SpanDecode {
				names = append(names, name)
			}
		}
		return names
	}
	singles := traceList(t, hs, "?endpoint=learn").Traces
	batches := traceList(t, hb, "?endpoint=batch").Traces
	if len(singles) != 2 || len(batches) != 2 {
		t.Fatalf("retained %d single and %d batch traces, want 2 each", len(singles), len(batches))
	}
	// Newest first: index 0 is the warm pass, 1 the cold one.
	for i, want := range [][]string{
		{trace.SpanRCache, trace.SpanAdmit},
		{trace.SpanRCache, trace.SpanAdmit, trace.SpanTabulate, trace.SpanTable,
			trace.SpanQueueWait, trace.SpanCompute, trace.SpanEncode},
	} {
		if got := itemSpans(singles[i]); !slices.Equal(got, want) {
			t.Errorf("single trace %d spans %v, want %v", i, got, want)
		}
		if got := itemSpans(batches[i]); !slices.Equal(got, want) {
			t.Errorf("batch trace %d spans %v, want %v", i, got, want)
		}
	}
}

// TestTraceClusterStitch is the cross-node contract: a request forwarded
// to its ring owner yields ONE trace id known on both nodes — the
// forwarder's trace carries the forward round trip plus the owner's
// spans stitched in with node attribution, the owner retains its own
// trace under the propagated id, and the client-facing response never
// leaks the intra-cluster trace headers.
func TestTraceClusterStitch(t *testing.T) {
	urls, servers, _ := startCluster(t, []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20, Trace: TraceConfig{SampleN: 1}},
		{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, Trace: TraceConfig{SampleN: 1, Seed: 1}},
	})
	key := learnRoutingKey(t, learnBody)
	owner := servers[0].ring.Owner(key)
	fwd := 0
	if urls[0] == owner {
		fwd = 1
	}
	own := 1 - fwd

	resp, _ := httpDo(t, urls[fwd], "/v1/learn", learnBody, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded learn: code %d", resp.StatusCode)
	}
	if resp.Header.Get(cluster.ForwardedHeader) == "" {
		t.Fatal("request was not forwarded; owner selection is wrong")
	}
	// The intra-cluster trace headers must never reach the client.
	if got := resp.Header.Get(cluster.TraceHeader); got != "" {
		t.Fatalf("client saw %s = %q", cluster.TraceHeader, got)
	}
	if got := resp.Header.Get(cluster.SpanHeader); got != "" {
		t.Fatalf("client saw %s = %q", cluster.SpanHeader, got)
	}

	fwdTraces := fetchTraces(t, urls[fwd])
	ownTraces := fetchTraces(t, urls[own])
	if len(fwdTraces) != 1 {
		t.Fatalf("forwarder retained %d traces, want 1", len(fwdTraces))
	}
	ft := fwdTraces[0]
	if !hasSpan(ft, trace.SpanForward) {
		t.Fatalf("forwarder trace has no forward span: %v", spanNames(ft))
	}
	// The owner's spans are stitched into the forwarder's trace, each
	// attributed to the owner's node URL.
	var remote int
	for _, sp := range ft.Spans {
		if sp.Node == owner {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("forwarder trace has no stitched remote spans: %+v", ft.Spans)
	}
	// The owner retained its own trace under the forwarder's propagated
	// id: one trace id, both nodes.
	found := false
	for _, ot := range ownTraces {
		if ot.ID == ft.ID {
			found = true
			if ot.Endpoint != epLearn || ot.Status != 200 {
				t.Fatalf("owner trace: %+v", ot)
			}
			if !hasSpan(ot, trace.SpanTabulate) {
				t.Fatalf("owner trace misses tabulate span: %v", spanNames(ot))
			}
		}
	}
	if !found {
		t.Fatalf("owner has no trace with the forwarder's id %s", ft.ID)
	}
}

// fetchTraces pulls a live node's retained traces over HTTP.
func fetchTraces(t *testing.T, url string) []*trace.Trace {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s/v1/trace: code %d: %s", url, resp.StatusCode, b)
	}
	var list TraceListResponse
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	return list.Traces
}

// TestTraceHopGuardRejection: a misrouted forward is refused with 421,
// and the refusal is itself a complete retained trace (tail retention
// keeps every error, independent of sampling).
func TestTraceHopGuardRejection(t *testing.T) {
	other := "http://other:1"
	s, h := newTestServer(t, Config{
		Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		Cluster: ClusterConfig{Self: "http://self:1", Peers: []string{"http://self:1", other}},
		Trace:   TraceConfig{SampleN: 1 << 30}, // head sampling off: only tail retention
	})
	// A body whose routing key the *other* node owns, so the hop guard
	// refuses to serve it here.
	body := ""
	for i := 0; i < 1000; i++ {
		b := fmt.Sprintf(`{"tenant":"hg%d","source":{"gen":"uniform","n":64},"k":2,"eps":0.3,"seed":1}`, i)
		if s.ring.Owner(learnRoutingKey(t, b)) == other {
			body = b
			break
		}
	}
	if body == "" {
		t.Fatal("no key owned by the other node in 1000 tries")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/learn", strings.NewReader(body))
	req.Header.Set(cluster.ForwardedHeader, other)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted forward: code %d: %s", w.Code, w.Body.String())
	}
	resp := traceList(t, h, "")
	if len(resp.Traces) != 1 {
		t.Fatalf("retained %d traces, want the 421 alone", len(resp.Traces))
	}
	tr := resp.Traces[0]
	if tr.Status != http.StatusMisdirectedRequest || tr.Retained != trace.KeptError {
		t.Fatalf("hop-guard trace: %+v", tr)
	}
	if !hasSpan(tr, trace.SpanDecode) {
		t.Fatalf("hop-guard trace misses the decode span: %v", spanNames(tr))
	}
}

// TestTraceFallbackLocal: when every remote candidate is down the
// forwarder serves locally, and the trace shows the whole story — the
// failed forward attempt AND the complete local serve after it.
func TestTraceFallbackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	s, h := newTestServer(t, Config{
		Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20,
		Cluster: ClusterConfig{Self: "http://self:1", Peers: []string{"http://self:1", deadURL}},
		Trace:   TraceConfig{SampleN: 1},
	})
	body := ""
	for i := 0; i < 1000; i++ {
		b := fmt.Sprintf(`{"tenant":"fb%d","source":{"gen":"uniform","n":64},"k":2,"eps":0.3,"seed":1}`, i)
		if s.ring.Owner(learnRoutingKey(t, b)) == deadURL {
			body = b
			break
		}
	}
	if body == "" {
		t.Fatal("no key owned by the dead node in 1000 tries")
	}
	if w := post(h, "/v1/learn", body); w.Code != 200 {
		t.Fatalf("fallback serve: code %d: %s", w.Code, w.Body.String())
	}
	resp := traceList(t, h, "")
	if len(resp.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(resp.Traces))
	}
	tr := resp.Traces[0]
	var fallback bool
	for _, sp := range tr.Spans {
		if sp.Name == trace.SpanForward && sp.Note == "fallback_local" {
			fallback = true
		}
	}
	if !fallback {
		t.Fatalf("no fallback_local forward span: %+v", tr.Spans)
	}
	for _, want := range []string{trace.SpanTabulate, trace.SpanCompute, trace.SpanEncode} {
		if !hasSpan(tr, want) {
			t.Errorf("fallback trace misses local span %q: %v", want, spanNames(tr))
		}
	}
	if tr.Status != 200 {
		t.Fatalf("fallback trace status %d, want 200", tr.Status)
	}
}

// TestTraceBodyIdentity pins the plane's prime directive: response
// bodies (and client-visible headers) are byte-identical with tracing on
// and off, across the algorithm endpoints and the batch envelope, cold
// and warm.
func TestTraceBodyIdentity(t *testing.T) {
	base := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 8 << 20}
	on := base
	on.Trace = TraceConfig{SampleN: 1}
	off := base
	off.Trace = TraceConfig{Disabled: true}
	_, hOn := newTestServer(t, on)
	_, hOff := newTestServer(t, off)

	batchBody := fmt.Sprintf(`{"items":[{"op":"learn","req":%s},{"op":"test_l2","req":%s},{"op":"nope","req":{}}]}`,
		learnBody, testL2Body)
	cases := []struct{ path, body string }{
		{"/v1/learn", learnBody},
		{"/v1/test/l2", testL2Body},
		{"/v1/batch", batchBody},
	}
	for _, tc := range cases {
		for pass := 0; pass < 2; pass++ {
			a := post(hOn, tc.path, tc.body)
			b := post(hOff, tc.path, tc.body)
			if a.Code != b.Code {
				t.Fatalf("%s pass %d: codes diverge %d vs %d", tc.path, pass, a.Code, b.Code)
			}
			if a.Body.String() != b.Body.String() {
				t.Fatalf("%s pass %d: bodies diverge with tracing on\n on: %s\noff: %s",
					tc.path, pass, a.Body.String(), b.Body.String())
			}
			for _, hdr := range []string{cluster.TraceHeader, cluster.SpanHeader} {
				if got := a.Header().Get(hdr); got != "" {
					t.Fatalf("%s pass %d: direct response leaks %s = %q", tc.path, pass, hdr, got)
				}
			}
		}
	}
}

// TestShedRejectPathsCounted is the metrics audit the batch-item
// counters were added for: every shed/reject path must land in the
// endpoint status-class counters — and per-item batch outcomes, which
// the envelope's own 200 hides, must land in
// khist_batch_item_results_total.
func TestShedRejectPathsCounted(t *testing.T) {
	const c4xx = 2 // statusClassNames index of "4xx"
	cases := []struct {
		name     string
		cfg      Config
		run      func(t *testing.T, s *Server, h http.Handler)
		endpoint string
		wantCode int
	}{
		{
			name: "bad body 400",
			cfg:  Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 0},
			run: func(t *testing.T, s *Server, h http.Handler) {
				if w := post(h, "/v1/learn", `{"nope":1}`); w.Code != 400 {
					t.Fatalf("code %d", w.Code)
				}
			},
			endpoint: epLearn, wantCode: 400,
		},
		{
			name: "tenant quota 429",
			cfg: Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20,
				Quotas: QuotaConfig{Default: TenantQuota{RPS: 1e-6, Burst: 1, MaxInFlight: 8}}},
			run: func(t *testing.T, s *Server, h http.Handler) {
				if w := post(h, "/v1/learn", learnBody); w.Code != 200 {
					t.Fatalf("first request: code %d: %s", w.Code, w.Body.String())
				}
				w := post(h, "/v1/learn", learnBody)
				if w.Code != 429 || w.Header().Get("Retry-After") == "" {
					t.Fatalf("second request: code %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
				}
			},
			endpoint: epLearn, wantCode: 429,
		},
		{
			name: "shard gate 429",
			cfg:  Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 0, MaxQueuePerShard: 1},
			run: func(t *testing.T, s *Server, h http.Handler) {
				var req LearnRequest
				if err := json.Unmarshal([]byte(learnBody), &req); err != nil {
					t.Fatal(err)
				}
				sh := s.shardFor(req.Tenant, req.Source.key())
				if !sh.acquire() {
					t.Fatal("could not fill the shard gate")
				}
				defer sh.release()
				if w := post(h, "/v1/learn", learnBody); w.Code != 429 {
					t.Fatalf("code %d", w.Code)
				}
			},
			endpoint: epLearn, wantCode: 429,
		},
		{
			name: "hop guard 421",
			cfg: Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 0,
				Cluster: ClusterConfig{Self: "http://self:1", Peers: []string{"http://self:1", "http://other:1"}}},
			run: func(t *testing.T, s *Server, h http.Handler) {
				body := ""
				for i := 0; i < 1000; i++ {
					b := fmt.Sprintf(`{"tenant":"hx%d","source":{"gen":"uniform","n":64},"k":2,"eps":0.3,"seed":1}`, i)
					if s.ring.Owner(learnRoutingKey(t, b)) == "http://other:1" {
						body = b
						break
					}
				}
				if body == "" {
					t.Fatal("no key owned by the other node")
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/learn", strings.NewReader(body))
				req.Header.Set(cluster.ForwardedHeader, "http://other:1")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != 421 {
					t.Fatalf("code %d", w.Code)
				}
			},
			endpoint: epLearn, wantCode: 421,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, h := newTestServer(t, tc.cfg)
			em := s.metrics.endpoints[tc.endpoint]
			before := em.status[statusClass(tc.wantCode)].Load()
			beforeReq := em.requests.Load()
			tc.run(t, s, h)
			if got := em.status[statusClass(tc.wantCode)].Load(); got != before+1 {
				t.Fatalf("endpoint %s %s counter moved %d -> %d, want +1",
					tc.endpoint, statusClassNames[statusClass(tc.wantCode)], before, got)
			}
			if got := em.requests.Load(); got <= beforeReq {
				t.Fatalf("endpoint %s request counter did not move", tc.endpoint)
			}
		})
	}

	t.Run("batch per-item 429", func(t *testing.T) {
		// The envelope answers 200 while items are shed — invisible to the
		// endpoint status counters, visible in the per-item family.
		s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20,
			Quotas: QuotaConfig{Default: TenantQuota{RPS: 1e-6, Burst: 1, MaxInFlight: 8}}})
		body := fmt.Sprintf(`{"items":[{"op":"learn","req":%s},{"op":"learn","req":%s},{"op":"learn","req":%s}]}`,
			learnBody, learnBody, learnBody)
		w := post(h, "/v1/batch", body)
		if w.Code != 200 {
			t.Fatalf("envelope code %d: %s", w.Code, w.Body.String())
		}
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		var ok2xx, shed int
		for _, it := range resp.Items {
			switch {
			case it.Status == 200:
				ok2xx++
			case it.Status == 429:
				shed++
			}
		}
		if ok2xx != 1 || shed != 2 {
			t.Fatalf("items: %d ok, %d shed, want 1 and 2", ok2xx, shed)
		}
		items := s.metrics.batchItems[epLearn]
		if got := items[0].Load(); got != 1 {
			t.Fatalf("batch item 2xx counter = %d, want 1", got)
		}
		if got := items[c4xx].Load(); got != 2 {
			t.Fatalf("batch item 4xx counter = %d, want 2", got)
		}
		// The envelope itself was a 200 on the batch endpoint.
		if got := s.metrics.endpoints["batch"].status[0].Load(); got != 1 {
			t.Fatalf("batch endpoint 2xx counter = %d, want 1", got)
		}
		// And the rendered /metrics page carries the family.
		mw := get(h, "/metrics")
		if !strings.Contains(mw.Body.String(), `khist_batch_item_results_total{op="learn",class="4xx"} 2`) {
			t.Fatal("khist_batch_item_results_total not rendered on /metrics")
		}
	})
}

// TestBuildInfoAndUptime: the build/uptime satellites — khist_build_info
// and khist_uptime_seconds on /metrics, uptime_seconds in /v1/stats.
func TestBuildInfoAndUptime(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 0})
	m := get(h, "/metrics").Body.String()
	for _, want := range []string{"khist_build_info{", `version="` + Version + `"`, "go_version=", "khist_uptime_seconds"} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics misses %q", want)
		}
	}
	var stats struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", stats.UptimeSeconds)
	}
}

// TestTraceMetricsMirror: the tracer's lifetime counters surface on
// /metrics, and a retained trace's id shows up as a latency exemplar.
func TestTraceMetricsMirror(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 64 << 20,
		Trace: TraceConfig{SampleN: 1}})
	if w := post(h, "/v1/learn", learnBody); w.Code != 200 {
		t.Fatalf("code %d", w.Code)
	}
	resp := traceList(t, h, "")
	if len(resp.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(resp.Traces))
	}
	id := resp.Traces[0].ID
	m := get(h, "/metrics").Body.String()
	for _, want := range []string{
		"khist_trace_started_total 1",
		`khist_trace_retained_total{reason="head"} 1`,
		"khist_trace_buffered 1",
		`khist_request_latency_exemplar{trace_id="` + id + `"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics misses %q", want)
		}
	}
}
