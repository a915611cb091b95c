package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// The streaming ingest plane end to end: POST /v1/ingest feeds a
// sketch, stream-backed learn/test requests resolve it through the
// pluggable Source layer, repeats serve from the response-byte cache,
// and a version bump invalidates every cached artifact derived from
// the superseded snapshot.

// ingestBody builds an ingest batch over [0, n) with a deterministic
// skewed shape (value v repeated ~n-v times, truncated to total).
func ingestBody(tenant, stream string, n, total int) string {
	vals := make([]int, 0, total)
	for len(vals) < total {
		for v := 0; v < n && len(vals) < total; v++ {
			for r := 0; r < 1+(n-v)/64 && len(vals) < total; r++ {
				vals = append(vals, v)
			}
		}
	}
	b, _ := json.Marshal(IngestRequest{Tenant: tenant, Stream: stream, N: n, Values: vals})
	return string(b)
}

const streamLearnBody = `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.2,"scale":0.05,"cap":20000,"seed":7}`

func TestIngestThenLearn(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20})

	// Learning from an unknown stream is a 400, not a crash.
	if w := post(h, "/v1/learn", streamLearnBody); w.Code != http.StatusBadRequest {
		t.Fatalf("learn from unknown stream: code = %d, want 400; body %s", w.Code, w.Body.String())
	}

	w := post(h, "/v1/ingest", ingestBody("acme", "checkout", 256, 3000))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: code = %d, body %s", w.Code, w.Body.String())
	}
	var ack IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != 1 || ack.Count != 3000 || ack.Stream != "checkout" || ack.N != 256 {
		t.Fatalf("ingest ack = %+v", ack)
	}

	first := post(h, "/v1/learn", streamLearnBody)
	if first.Code != http.StatusOK {
		t.Fatalf("stream learn: code = %d, body %s", first.Code, first.Body.String())
	}
	if st := first.Header().Get(CacheHeader); st != StatusMiss {
		t.Fatalf("first stream learn cache status = %q, want %q", st, StatusMiss)
	}
	var lr LearnResponse
	if err := json.Unmarshal(first.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.N != 256 || lr.Pieces < 1 {
		t.Fatalf("stream learn response: n=%d pieces=%d", lr.N, lr.Pieces)
	}

	// The repeat is a zero-recompute response-cache hit, byte-identical.
	second := post(h, "/v1/learn", streamLearnBody)
	if st := second.Header().Get(CacheHeader); st != StatusRespHit {
		t.Fatalf("repeat cache status = %q, want %q", st, StatusRespHit)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("cached stream response differs from cold body")
	}

	// Testers accept the stream source too.
	for _, path := range []string{"/v1/test/l2", "/v1/test/l1"} {
		body := `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.3,"scale":0.05,"cap":20000,"seed":7}`
		if w := post(h, path, body); w.Code != http.StatusOK {
			t.Fatalf("%s from stream: code = %d, body %s", path, w.Code, w.Body.String())
		}
	}
}

// TestStreamVersionBumpInvalidates is the staleness regression test: an
// ingest batch must drop the dependent response-cache and bundle-cache
// entries, with the learner cost tables attached to those bundles, and
// a stale snapshot must never be served after the bump.
func TestStreamVersionBumpInvalidates(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20})

	post(h, "/v1/ingest", ingestBody("acme", "checkout", 256, 3000))
	sh := s.shardFor("acme", SourceSpec{Stream: "checkout"}.key())
	_, before := sh.cache.stats()
	first := post(h, "/v1/learn", streamLearnBody)
	if first.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", first.Code, first.Body.String())
	}
	if sh.cache.attachedStats() == 0 {
		t.Fatal("expected the learn's cost table attached to its cached bundle")
	}
	if st := post(h, "/v1/learn", streamLearnBody).Header().Get(CacheHeader); st != StatusRespHit {
		t.Fatalf("warmup repeat status = %q, want rhit", st)
	}
	if st := s.respc.stats(); st.Entries == 0 {
		t.Fatal("expected a live response-cache entry")
	}

	// Bump: a second batch with a very different shape.
	vals := make([]int, 2000)
	for i := range vals {
		vals[i] = 255 - (i % 16)
	}
	b, _ := json.Marshal(IngestRequest{Tenant: "acme", Stream: "checkout", N: 256, Values: vals})
	if w := post(h, "/v1/ingest", string(b)); w.Code != http.StatusOK {
		t.Fatalf("second ingest: %d %s", w.Code, w.Body.String())
	}

	// The dependent response entry is gone (eager dep-based eviction).
	if st := s.respc.stats(); st.Invalidations == 0 {
		t.Fatal("version bump should have invalidated the dependent response entries")
	}
	// So are the superseded bundle and its cost table: nothing that the
	// old snapshot drew stays reachable or accounted.
	if table := sh.cache.attachedStats(); table != 0 {
		t.Fatalf("version bump left %d bytes of cost tables cached", table)
	}
	if _, after := sh.cache.stats(); after != before {
		t.Fatalf("shard cache holds %d bytes after the bump, %d before the first learn", after, before)
	}

	// The re-query recomputes (miss, not rhit) and reflects the new data.
	after := post(h, "/v1/learn", streamLearnBody)
	if after.Code != http.StatusOK {
		t.Fatalf("learn after bump: %d %s", after.Code, after.Body.String())
	}
	if st := after.Header().Get(CacheHeader); st == StatusRespHit {
		t.Fatal("stale response served from cache after version bump")
	}
	if after.Body.String() == first.Body.String() {
		t.Fatal("response unchanged after the stream's distribution changed")
	}

	// And the new response caches normally again.
	if st := post(h, "/v1/learn", streamLearnBody).Header().Get(CacheHeader); st != StatusRespHit {
		t.Fatalf("post-bump repeat status = %q, want rhit", st)
	}

	// Backstop: even a response entry that slipped past eager eviction is
	// refused by the version check. Simulate the race by planting a stale
	// entry directly.
	stale := &respEntry{
		tenant: "acme", sourceKey: "s|checkout", bundleKey: "sets|planted",
		streamKey: streamTableKey("acme", "checkout"), streamVersion: 1,
		contentType: jsonContentType, body: []byte(`{"planted":true}`),
	}
	s.respc.put(epLearn, false, []byte(streamLearnBody), stale)
	if w := post(h, "/v1/learn", streamLearnBody); w.Body.String() == `{"planted":true}` {
		t.Fatal("stale planted entry served: version backstop failed")
	}
}

// A stream's bundles derive from each other within one version, but a
// version bump starts a new family: the first bundle miss after it
// draws every set afresh, whatever the old version left.
func TestStreamBumpNeverDerivesAcrossVersions(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 64 << 20})
	sh := s.shardFor("acme", SourceSpec{Stream: "checkout"}.key())
	learn := func(cap int) (ell, r, m int) {
		t.Helper()
		w := post(h, "/v1/learn", fmt.Sprintf(
			`{"tenant":"acme","source":{"stream":"checkout"},"k":3,"eps":0.3,"scale":1,"cap":%d,"seed":7}`, cap))
		if w.Code != http.StatusOK {
			t.Fatalf("learn cap %d: %d %s", cap, w.Code, w.Body.String())
		}
		var resp LearnResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Ell, resp.R, resp.M
	}
	for version := 1; version <= 2; version++ {
		if w := post(h, "/v1/ingest", ingestBody("acme", "checkout", 256, 3000)); w.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", version, w.Code, w.Body.String())
		}
		derived, drawn := sh.derived.Load(), sh.samplesDrawn.Load()
		ell, r, m := learn(300 + 4*version)
		if got, want := sh.samplesDrawn.Load()-drawn, int64(ell+r*m); sh.derived.Load() != derived || got != want {
			t.Fatalf("version %d: first bundle derived (%d -> %d bundles) or drew %d samples, want %d drawn afresh",
				version, derived, sh.derived.Load(), got, want)
		}
		_, r, _ = learn(300 + 4*version + 2)
		if got, want := sh.samplesDrawn.Load()-drawn-int64(ell+r*m), int64(2*(r+1)); sh.derived.Load() != derived+1 || got != want {
			t.Fatalf("version %d: sibling drew %d samples, want %d derived", version, got, want)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	s, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, MaxDomain: 1 << 12, MaxStreams: 2})

	cases := []struct {
		name, body string
		code       int
	}{
		{"no stream", `{"tenant":"t","n":8,"values":[1]}`, 400},
		{"no n", `{"tenant":"t","stream":"s","values":[1]}`, 400},
		{"n too large", `{"tenant":"t","stream":"s","n":8192,"values":[1]}`, 400},
		{"no values", `{"tenant":"t","stream":"s","n":8}`, 400},
		{"value out of domain", `{"tenant":"t","stream":"s","n":8,"values":[8]}`, 400},
		{"unknown field", `{"tenant":"t","stream":"s","n":8,"values":[1],"bogus":1}`, 400},
		{"ok", `{"tenant":"t","stream":"s","n":8,"values":[1,2,3]}`, 200},
		{"domain mismatch", `{"tenant":"t","stream":"s","n":9,"values":[1]}`, 400},
	}
	for _, tc := range cases {
		if w := post(h, "/v1/ingest", tc.body); w.Code != tc.code {
			t.Fatalf("%s: code = %d, want %d; body %s", tc.name, w.Code, tc.code, w.Body.String())
		}
	}

	// A rejected batch must not bump the version.
	if v, ok := s.streams.version(streamTableKey("t", "s")); !ok || v != 1 {
		t.Fatalf("version after one good batch + rejects = %d (ok=%v), want 1", v, ok)
	}

	// The stream table bound sheds (429) rather than growing unboundedly.
	post(h, "/v1/ingest", `{"tenant":"t","stream":"s2","n":8,"values":[1]}`)
	if w := post(h, "/v1/ingest", `{"tenant":"t","stream":"s3","n":8,"values":[1]}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("stream table overflow: code = %d, want 429; body %s", w.Code, w.Body.String())
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// A stream spec mixing generator fields is rejected at decode time.
	if w := post(h, "/v1/learn", `{"tenant":"t","source":{"stream":"s","gen":"zipf","n":8},"k":2,"eps":0.3,"seed":1}`); w.Code != 400 {
		t.Fatalf("mixed stream+generator spec: code = %d, want 400", w.Code)
	}
}

func TestIngestBinary(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	req := &IngestRequest{Tenant: "acme", Stream: "wire", N: 64, Values: []int{1, 2, 3, 2, 1, 63}}
	w := binPost(h, "/v1/ingest", req.appendBinary(nil), BinaryContentType, "")
	if w.Code != http.StatusOK {
		t.Fatalf("binary ingest: code = %d, body %s", w.Code, w.Body.String())
	}
	var ack IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != 1 || ack.Count != 6 {
		t.Fatalf("binary ingest ack = %+v", ack)
	}

	// Round trip: decode(encode(x)) == x.
	var back IngestRequest
	if err := back.decodeBinary(req.appendBinary(nil), DefaultMaxDomain); err != nil {
		t.Fatal(err)
	}
	if back.Tenant != req.Tenant || back.Stream != req.Stream || back.N != req.N || len(back.Values) != len(req.Values) {
		t.Fatalf("binary round trip: %+v != %+v", back, req)
	}

	// Hostile count header cannot force a huge allocation.
	hostile := append([]byte(binReqMagic), opIngest)
	hostile = append(hostile, 0, 0) // empty tenant, empty stream... then n=1, count=2^30
	hostile = append(hostile, 1)
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 4)
	var hr IngestRequest
	if err := hr.decodeBinary(hostile, DefaultMaxDomain); err == nil {
		t.Fatal("hostile value count must be rejected")
	}

	// A binary stream-source learn round-trips too.
	lreq := &LearnRequest{Tenant: "acme", Source: SourceSpec{Stream: "wire"}, K: 2, Eps: 0.3, Seed: 3}
	lw := binPost(h, "/v1/learn", lreq.appendBinary(nil), BinaryContentType, "")
	if lw.Code != http.StatusOK {
		t.Fatalf("binary stream learn: code = %d, body %s", lw.Code, lw.Body.String())
	}
}

// TestStreamEquivalenceAcrossConfigs extends the byte-identity matrix
// to stream-backed sources: the same ingest batches followed by the
// same queries produce bit-identical bodies under any shard/worker
// configuration and any cache setting.
func TestStreamEquivalenceAcrossConfigs(t *testing.T) {
	queries := []struct{ path, body string }{
		{"/v1/learn", streamLearnBody},
		{"/v1/test/l2", `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.3,"scale":0.05,"cap":20000,"seed":7}`},
		{"/v1/test/l1", `{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.3,"scale":0.05,"cap":20000,"seed":7}`},
	}
	batch1 := ingestBody("acme", "checkout", 256, 3000)
	batch2 := ingestBody("acme", "checkout", 256, 500)

	configs := []Config{
		{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20},
		{Shards: 1, WorkersPerShard: 4, CacheBytes: 1 << 20},
		{Shards: 4, WorkersPerShard: 2, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20},
		{Shards: 3, WorkersPerShard: 3},
		{Shards: 8, WorkersPerShard: 1, ResponseCacheBytes: 1 << 20},
	}
	var want []string
	for ci, cfg := range configs {
		_, h := newTestServer(t, cfg)
		for _, b := range []string{batch1, batch2} {
			if w := post(h, "/v1/ingest", b); w.Code != http.StatusOK {
				t.Fatalf("config %d: ingest failed: %d %s", ci, w.Code, w.Body.String())
			}
		}
		for qi, q := range queries {
			// Twice: once cold, once (possibly) cached — both must match.
			for rep := 0; rep < 2; rep++ {
				w := post(h, q.path, q.body)
				if w.Code != http.StatusOK {
					t.Fatalf("config %d %s: %d %s", ci, q.path, w.Code, w.Body.String())
				}
				if ci == 0 && rep == 0 {
					want = append(want, w.Body.String())
				} else if got := w.Body.String(); got != want[qi] {
					t.Fatalf("config %d rep %d %s: body diverged from config 0", ci, rep, q.path)
				}
			}
		}
	}
}

// TestStreamBatchItems exercises stream sources inside /v1/batch: items
// share the response cache with single requests, and a version bump
// re-keys batched results too.
func TestStreamBatchItems(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20})
	post(h, "/v1/ingest", ingestBody("acme", "checkout", 256, 3000))

	envelope := fmt.Sprintf(`{"items":[{"op":"learn","req":%s},{"op":"test_l2","req":%s}]}`,
		streamLearnBody,
		`{"tenant":"acme","source":{"stream":"checkout"},"k":4,"eps":0.3,"scale":0.05,"cap":20000,"seed":7}`)

	first := post(h, "/v1/batch", envelope)
	if first.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", first.Code, first.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("item %d: status %d body %s", i, it.Status, it.Body)
		}
	}

	// Single-request repeat of item 0 hits the entry the batch published.
	if st := post(h, "/v1/learn", streamLearnBody).Header().Get(CacheHeader); st != StatusRespHit {
		t.Fatalf("single after batch: cache status %q, want rhit", st)
	}

	// Bump, then re-batch: items must recompute, not serve stale bytes.
	post(h, "/v1/ingest", ingestBody("acme", "checkout", 256, 777))
	second := post(h, "/v1/batch", envelope)
	var resp2 BatchResponse
	if err := json.Unmarshal(second.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	for i, it := range resp2.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("post-bump item %d: status %d body %s", i, it.Status, it.Body)
		}
		if it.Cache == StatusRespHit {
			t.Fatalf("post-bump item %d served from the response cache: stale", i)
		}
	}
	// The learner's output tracks the data; the tester's verdict may
	// coincide across distributions, so only item 0 asserts a change.
	if string(resp2.Items[0].Body) == string(resp.Items[0].Body) {
		t.Fatal("post-bump learn body unchanged after the stream changed")
	}
}

// TestStreamStatsAndMetrics pins the observability contract: aggregate
// ingest series on /metrics (no per-stream labels), per-stream rows in
// /v1/stats.
func TestStreamStatsAndMetrics(t *testing.T) {
	_, h := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	post(h, "/v1/ingest", `{"tenant":"a","stream":"x","n":16,"values":[1,2,3]}`)
	post(h, "/v1/ingest", `{"tenant":"a","stream":"x","n":16,"values":[4]}`)
	post(h, "/v1/ingest", `{"tenant":"b","stream":"y","n":8,"values":[0,1]}`)

	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	st := stats.Streams
	if st == nil {
		t.Fatal("/v1/stats missing streams section")
	}
	if st.Streams != 2 || st.IngestBatches != 3 || st.IngestObservations != 6 {
		t.Fatalf("stream stats = %+v", st)
	}
	if len(st.PerStream) != 2 || st.PerStream[0].Tenant != "a" || st.PerStream[1].Stream != "y" {
		t.Fatalf("per-stream rows = %+v", st.PerStream)
	}
	if st.PerStream[0].Version != 2 || st.PerStream[0].Count != 4 {
		t.Fatalf("stream a/x row = %+v", st.PerStream[0])
	}
	if st.SketchBytes <= 0 {
		t.Fatal("sketch bytes should be positive")
	}

	m := get(h, "/metrics").Body.String()
	for _, series := range []string{
		"khist_ingest_batches_total 3",
		"khist_ingest_observations_total 6",
		"khist_streams 2",
		"khist_stream_sketch_bytes",
	} {
		if !strings.Contains(m, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	if strings.Contains(m, `stream="x"`) {
		t.Fatal("/metrics must not carry per-stream labels")
	}
}
