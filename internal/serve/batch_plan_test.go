package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"khist/internal/obs/trace"
)

// batchPaths maps batch ops to their single-request endpoints.
var batchPaths = map[string]string{
	epLearn: "/v1/learn", epTestL2: "/v1/test/l2", epTestL1: "/v1/test/l1", epLearn2D: "/v1/learn2d",
}

// countSpans counts the local spans named name over traces.
func countSpans(traces []*trace.Trace, name string) int {
	n := 0
	for _, tr := range traces {
		for _, got := range spanNames(tr) {
			if got == name {
				n++
			}
		}
	}
	return n
}

// TestBatchPlanDuplicatesAnswerRHit: a cold envelope [A, A, B, A]. When
// it is routed nothing is cached, so every item decodes there; each item
// still makes its counted response-cache lookup right before it runs, so
// the later As find the entry the first A put and answer rhit, as they
// would as single requests. The routing peeks count nothing: the
// response cache sees four lookups, two hits.
func TestBatchPlanDuplicatesAnswerRHit(t *testing.T) {
	const bBody = `{"tenant":"beta","source":{"gen":"zipf","n":128},"k":2,"eps":0.3,"scale":0.05,"cap":4000,"seed":3}`
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20})
	a := BatchItem{Op: epLearn, Req: json.RawMessage(learnBody)}
	b := BatchItem{Op: epLearn, Req: json.RawMessage(bBody)}
	w := post(h, "/v1/batch", batchEnvelope(t, a, a, b, a))
	if w.Code != 200 {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body.String())
	}
	got := decodeBatch(t, w.Body.Bytes()).Items
	for i, want := range []string{StatusMiss, StatusRespHit, StatusMiss, StatusRespHit} {
		if got[i].Status != 200 || got[i].Cache != want {
			t.Fatalf("item %d: status %d cache %q, want 200 %q (body %s)", i, got[i].Status, got[i].Cache, want, got[i].Body)
		}
	}
	_, hs := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20})
	for i, body := range []string{learnBody, learnBody, bBody, learnBody} {
		single := post(hs, "/v1/learn", body)
		if want := strings.TrimSuffix(single.Body.String(), "\n"); string(got[i].Body) != want {
			t.Fatalf("item %d body != single body\n got: %s\nwant: %s", i, got[i].Body, want)
		}
	}
	if st := s.respc.stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("response cache counted %d hits and %d misses, want 2 and 2", st.Hits, st.Misses)
	}
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if pc := stats.PlanCache; pc == nil || pc.Hits != 0 || pc.Misses != 1 || pc.Entries != 1 || pc.Bytes <= 0 {
		t.Fatalf("plan_cache = %+v, want one missed, cached plan", pc)
	}
	if sc := stats.SourceCache; sc == nil || sc.Entries != 2 || sc.BytesCap != registryBytes {
		t.Fatalf("source_cache = %+v, want the two resolved sources", sc)
	}
}

// TestBatchPlanConcurrentDecode: eight goroutines send one envelope at
// once over one shared cached plan that no request has decoded yet. The
// envelope mixes response-cache hits, misses (one of them twice), a k > n
// item, an item that does not decode and an unknown op. Every response
// equals a serial reference's, item for item. A hit is never decoded,
// every other item is decoded at most once for all eight requests, and
// the race detector (CI runs this at several GOMAXPROCS) sees every read
// of a decoded value go through the decode-once slot.
func TestBatchPlanConcurrentDecode(t *testing.T) {
	cfg := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, ResponseCacheBytes: 16 << 20,
		MaxQueuePerShard: 64, Trace: TraceConfig{SampleN: 1}}
	const missBody = `{"tenant":"acme","source":{"gen":"zipf","n":64},"k":2,"eps":0.3,"scale":0.05,"cap":500,"seed":5}`
	items := []BatchItem{
		{Op: epLearn, Req: json.RawMessage(learnBody)},
		{Op: epTestL2, Req: json.RawMessage(testL2Body)},
		{Op: epLearn, Req: json.RawMessage(missBody)},
		{Op: epLearn, Req: json.RawMessage(`{"tenant":"acme","source":{"gen":"zipf","n":64},"k":100,"eps":0.2,"seed":1}`)},
		{Op: "nope", Req: json.RawMessage(`{}`)},
		{Op: epLearn, Req: json.RawMessage(`{"tenant":"acme","no_such_field":1}`)},
		{Op: epTestL1, Req: json.RawMessage(`{"tenant":"acme","source":{"gen":"staircase","n":64},"k":3,"eps":0.3,"scale":0.01,"cap":500,"seed":11}`)},
		{Op: epLearn, Req: json.RawMessage(missBody)},
	}
	env := batchEnvelope(t, items...)
	warm := func(h http.Handler) {
		for _, it := range items[:2] {
			if w := post(h, batchPaths[it.Op], string(it.Req)); w.Code != 200 {
				t.Fatalf("warm %s: code %d: %s", it.Op, w.Code, w.Body.String())
			}
		}
	}

	_, href := newTestServer(t, cfg)
	warm(href)
	ref := decodeBatch(t, post(href, "/v1/batch", env).Body.Bytes()).Items

	s, h := newTestServer(t, cfg)
	warm(h)
	var req BatchRequest
	if err := decodeStrict([]byte(env), &req); err != nil {
		t.Fatal(err)
	}
	plan := newBatchPlan(req.Items)
	s.plans.put(env, plan, planBytes(plan, len(env)))

	const clients = 8
	responses := make([][]byte, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			w := post(h, "/v1/batch", env)
			if w.Code != 200 {
				t.Errorf("client %d: code %d: %s", c, w.Code, w.Body.String())
			}
			responses[c] = w.Body.Bytes()
		}(c)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for c, body := range responses {
		got := decodeBatch(t, body).Items
		if len(got) != len(ref) {
			t.Fatalf("client %d: %d items, want %d", c, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Status != ref[i].Status || got[i].RetryAfter != ref[i].RetryAfter || !bytes.Equal(got[i].Body, ref[i].Body) {
				t.Fatalf("client %d item %d: %d %s, serial reference %d %s",
					c, i, got[i].Status, got[i].Body, ref[i].Status, ref[i].Body)
			}
		}
	}
	for i, want := range []int{200, 200, 200, http.StatusBadRequest, http.StatusBadRequest, http.StatusBadRequest, 200, 200} {
		if ref[i].Status != want {
			t.Fatalf("reference item %d: status %d, want %d (%s)", i, ref[i].Status, want, ref[i].Body)
		}
	}
	if hits, misses := s.planHits.Load(), s.planMisses.Load(); hits != clients || misses != 0 {
		t.Fatalf("plan cache counted %d hits and %d misses, want %d and 0", hits, misses, clients)
	}

	// Items 0 and 1 were answered from the response cache by every
	// request and never decoded; items 2, 3, 5 and 6 missed it the first
	// time they were routed. Item 7 repeats item 2, so it is decoded only
	// if some request routed it before item 2's entry was put. Each
	// decode records one span, whichever request ran it.
	decoded := 0
	for i := range plan {
		pi := &plan[i]
		switch d := pi.decoded.Load(); {
		case i == 7:
		case (i == 0 || i == 1 || i == 4) && d:
			t.Fatalf("item %d (%s) was decoded", i, pi.op)
		case (i == 2 || i == 3 || i == 5 || i == 6) && !d:
			t.Fatalf("item %d (%s) was never decoded", i, pi.op)
		}
		if pi.decoded.Load() {
			decoded++
		}
	}
	if got := countSpans(traceList(t, h, "?endpoint=batch&limit=100").Traces, trace.SpanDecode); got != decoded {
		t.Fatalf("%d decode spans over %d decoded items: an item decoded more than once", got, decoded)
	}
}

// TestBatchPlanResponseCacheOff: with the response cache off (and the
// plan cache with it) nothing can answer an item, so every item with a
// known op decodes on every envelope, and each answers with the status,
// body and cache status of the same request sent alone.
func TestBatchPlanResponseCacheOff(t *testing.T) {
	cfg := Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20, Trace: TraceConfig{SampleN: 1}}
	const bad = `{"tenant":"acme","no_such_field":1}`
	items := []BatchItem{
		{Op: epLearn, Req: json.RawMessage(learnBody)},
		{Op: epLearn, Req: json.RawMessage(learnBody)},
		{Op: epTestL2, Req: json.RawMessage(testL2Body)},
		{Op: "nope", Req: json.RawMessage(`{}`)},
		{Op: epLearn, Req: json.RawMessage(bad)},
	}
	env := batchEnvelope(t, items...)
	s, h := newTestServer(t, cfg)
	_, hs := newTestServer(t, cfg)
	for pass := 0; pass < 2; pass++ {
		w := post(h, "/v1/batch", env)
		if w.Code != 200 {
			t.Fatalf("pass %d: code %d: %s", pass, w.Code, w.Body.String())
		}
		got := decodeBatch(t, w.Body.Bytes()).Items
		for i, it := range items {
			if it.Op == "nope" {
				if got[i].Status != http.StatusBadRequest {
					t.Fatalf("pass %d item %d: status %d, want 400", pass, i, got[i].Status)
				}
				continue
			}
			single := post(hs, batchPaths[it.Op], string(it.Req))
			if got[i].Status != single.Code || got[i].Cache != single.Header().Get(CacheHeader) ||
				string(got[i].Body) != strings.TrimSuffix(single.Body.String(), "\n") {
				t.Fatalf("pass %d item %d: %d %q %s, single %d %q %s", pass, i,
					got[i].Status, got[i].Cache, got[i].Body, single.Code, single.Header().Get(CacheHeader), single.Body.String())
			}
		}
		traces := traceList(t, h, "?endpoint=batch&limit=1").Traces
		if len(traces) != 1 {
			t.Fatalf("pass %d: %d batch traces", pass, len(traces))
		}
		if n := countSpans(traces, trace.SpanDecode); n != 4 {
			t.Fatalf("pass %d: %d decode spans, want 4 (every known op)", pass, n)
		}
	}
	if entries, _ := s.plans.stats(); entries != 0 || s.planHits.Load() != 0 || s.planMisses.Load() != 0 {
		t.Fatalf("disabled plan cache: %d entries, %d hits, %d misses", entries, s.planHits.Load(), s.planMisses.Load())
	}
	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCache != nil {
		t.Fatalf("disabled plan cache: /v1/stats plan_cache = %+v, want omitted", stats.PlanCache)
	}
}
