package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// replayBody is a rewindable request body for hot-path benchmarks:
// Reset the underlying reader between ops instead of allocating a new
// body per request.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// nullResponseWriter discards the response, recording only the status:
// benchmarking the hit path must not charge it for httptest recorder
// bookkeeping.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkServe measures serving-layer throughput at the handler level
// (no TCP, so the numbers isolate routing + cache + compute):
//
//	mode=cold       every request misses (distinct seeds)
//	mode=cached     every request hits one warmed key, metrics plane
//	                disabled — the baseline the metrics overhead is
//	                measured against
//	mode=metrics    the cached path with the metrics plane enabled
//	                (instrumented handlers, recorders, background
//	                learner): its rps over mode=cached is the whole
//	                observability tax
//	mode=trace      the cached path with the tracing plane enabled
//	                (metrics off, so the delta over mode=cached is the
//	                tracing tax alone: span collection on every request,
//	                tail-based retention at request end); CI gates the
//	                tax through BenchmarkTraceTax, which interleaves the
//	                two configurations
//	mode=coalesced  16 concurrent clients per op share one fresh key
//	mode=quota      cached path with per-tenant quotas enabled: the
//	                admission layer's overhead on the hot path
//	mode=cluster    cached path through a 2-node ring: each op hits the
//	                non-owner and is forwarded over real HTTP to the
//	                owner's warm cache — the full cross-node tax
//	                (routing + TCP round trip + relay), which is why it
//	                is the one mode measured over the network rather
//	                than at the handler
//	mode=rcache     every request hits the response-byte cache: the
//	                zero-recompute path (stored encoded bytes, no
//	                decode, no tabulation, no algorithm, no encode);
//	                its rps over mode=cached is what the response
//	                cache buys, and its allocs/op is the hit path's
//	                allocation bill
//	mode=single     one rcache-hit request per op through the same
//	                full httptest harness mode=batch uses: the
//	                single-request side of the batch amortization
//	                comparison (batch ns_per_query vs this ns/op)
//	mode=batch      one /v1/batch envelope of 64 identical sub-queries
//	                per op: per-request overhead (mux, headers, body
//	                read) amortized across items — khist-bench reports
//	                rps per query and ns_per_query = ns/op / 64; the
//	                envelope repeats, so every op after the first is a
//	                plan-cache hit
//	mode=batch_fresh  each op posts a new envelope of 16 picks from 32
//	                warmed bodies: a plan-cache miss whose items are all
//	                response-cache hits, perfbench hot_repeat's batch
//	                shape; CI gates its allocs/op below 8x mode=single's
//	mode=binary     the rcache path negotiated to
//	                application/x-khist-bin both ways: binary request
//	                decode, stored binary response bytes
//	mode=stream     every request learns from a live ingested stream
//	                and hits the response-byte cache after revalidating
//	                the stream version — the stream-source hot path
//	mode=tester_cold  each op is an l2 tester whose bundle misses with
//	                nothing cached on its (source, seed): r = 207 sets of
//	                2000 samples drawn afresh
//	mode=derive     the same tester with a sibling bundle 10 samples per
//	                set away cached (warmed outside the timer): its miss
//	                builds each set from the sibling's, drawing only
//	                the 10 samples in between
//	mode=stream_cold  each op ingests a batch (bumping the stream
//	                version) then learns from it: snapshot rebuild +
//	                tabulate + learn, the stream-source worst case
//
// cmd/khist-bench renders the output into BENCH_serve.json with
// requests/sec per mode (collect with -benchmem to record allocs);
// CI uploads it as the bench-serve artifact.
func BenchmarkServe(b *testing.B) {
	mkBody := func(seed int) string {
		return fmt.Sprintf(
			`{"tenant":"bench","source":{"gen":"zipf","n":512},"k":4,"eps":0.2,"scale":0.02,"cap":8000,"seed":%d}`, seed)
	}
	jsonPost := func(h http.Handler, path, body string) int {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	learnPost := func(h http.Handler, body string) int {
		return jsonPost(h, "/v1/learn", body)
	}

	b.Run("mode=cold", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 0, Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, mkBody(i)); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=cached", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			Metrics: MetricsConfig{Disabled: true}, Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the key
			b.Fatalf("warmup code %d", code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=metrics", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20, Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the key
			b.Fatalf("warmup code %d", code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
		b.StopTimer()
		// The plane must actually have been measuring: every op observed.
		if got := s.metrics.latency.Count(); got < int64(b.N) {
			b.Fatalf("latency recorder saw %d observations, want >= %d", got, b.N)
		}
	})

	b.Run("mode=trace", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			Metrics: MetricsConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the key
			b.Fatalf("warmup code %d", code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
		b.StopTimer()
		// The plane must actually have been tracing: every op started a
		// collector (retention is tail-based, so only a sampled/slow/error
		// subset is kept, but Started counts them all).
		if got := s.tracer.StatsSnapshot().Started; got < int64(b.N) {
			b.Fatalf("tracer started %d traces, want >= %d", got, b.N)
		}
	})

	b.Run("mode=quota", func(b *testing.B) {
		s := mustNew(b, Config{
			Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			Quotas: QuotaConfig{
				Default: TenantQuota{RPS: 1e12, Burst: 1e12, MaxInFlight: 1 << 20},
			},
			Trace: TraceConfig{Disabled: true},
		})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the key
			b.Fatalf("warmup code %d", code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=cluster", func(b *testing.B) {
		handlers := make([]atomic.Value, 2)
		var urls []string
		for i := 0; i < 2; i++ {
			i := i
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				handlers[i].Load().(http.Handler).ServeHTTP(w, r)
			}))
			defer ts.Close()
			urls = append(urls, ts.URL)
		}
		var servers []*Server
		for i := 0; i < 2; i++ {
			s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
				Cluster: ClusterConfig{Self: urls[i], Peers: urls}, Trace: TraceConfig{Disabled: true}})
			defer s.Close()
			handlers[i].Store(s.Handler())
			servers = append(servers, s)
		}
		body := mkBody(1)
		var req LearnRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			b.Fatal(err)
		}
		// Hit the non-owner so every op crosses the ring.
		target := urls[0]
		if servers[0].ring.Owner(routingKey(req.Tenant, req.Source.key())) == urls[0] {
			target = urls[1]
		}
		forward := func() int {
			resp, err := http.Post(target+"/v1/learn", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := forward(); code != 200 { // warm the owner's key
			b.Fatalf("warmup code %d", code)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := forward(); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=rcache", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the response entry
			b.Fatalf("warmup code %d", code)
		}
		payload := []byte(body)
		rd := bytes.NewReader(payload)
		req := httptest.NewRequest(http.MethodPost, "/v1/learn", rd)
		req.Body = replayBody{rd}
		w := &nullResponseWriter{h: make(http.Header)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(payload)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 200 {
				b.Fatalf("code %d", w.status)
			}
		}
		b.StopTimer()
		if st := s.respc.stats(); st.Hits < int64(b.N) {
			b.Fatalf("response cache saw %d hits, want >= %d", st.Hits, b.N)
		}
	})

	b.Run("mode=single", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := mkBody(1)
		if code := learnPost(h, body); code != 200 { // warm the response entry
			b.Fatalf("warmup code %d", code)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=batch/items=64", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		const items = 64
		var sb strings.Builder
		sb.WriteString(`{"items":[`)
		for i := 0; i < items; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"op":"learn","req":%s}`, mkBody(1))
		}
		sb.WriteString(`]}`)
		body := sb.String()
		batchPost := func() int {
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w.Code
		}
		if code := batchPost(); code != 200 { // warm the response entry
			b.Fatalf("warmup code %d", code)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := batchPost(); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	b.Run("mode=batch_fresh/items=16", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		const items = 16
		var warm []string
		for _, gen := range []string{"zipf", "uniform", "geometric", "staircase"} {
			for _, k := range []int{2, 3, 4, 5} {
				for seed := 1; seed <= 2; seed++ {
					body := fmt.Sprintf(`{"tenant":"bench","source":{"gen":%q,"n":256},"k":%d,"eps":0.2,"scale":0.02,"cap":4000,"seed":%d}`, gen, k, seed)
					if code := learnPost(h, body); code != 200 { // warm the response entry
						b.Fatalf("warmup code %d", code)
					}
					warm = append(warm, `{"op":"learn","req":`+body+`}`)
				}
			}
		}
		rng := rand.New(rand.NewSource(1))
		var env bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Reset()
			env.WriteString(`{"items":[`)
			for j := 0; j < items; j++ {
				if j > 0 {
					env.WriteByte(',')
				}
				env.WriteString(warm[rng.Intn(len(warm))])
			}
			env.WriteString(`]}`)
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(env.Bytes()))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("code %d", w.Code)
			}
		}
		b.StopTimer()
		// Every op planned a new envelope whose items all hit the
		// response cache: hot_repeat's batch shape.
		if got := s.planMisses.Load(); got != int64(b.N) {
			b.Fatalf("%d plan misses, want %d", got, b.N)
		}
		if st := s.respc.stats(); st.Hits != int64(items*b.N) {
			b.Fatalf("response cache saw %d hits, want %d", st.Hits, items*b.N)
		}
	})

	b.Run("mode=binary", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		var lr LearnRequest
		if err := json.Unmarshal([]byte(mkBody(1)), &lr); err != nil {
			b.Fatal(err)
		}
		payload := lr.appendBinary(nil)
		rd := bytes.NewReader(payload)
		req := httptest.NewRequest(http.MethodPost, "/v1/learn", rd)
		req.Body = replayBody{rd}
		req.Header.Set("Content-Type", BinaryContentType)
		req.Header.Set("Accept", BinaryContentType)
		w := &nullResponseWriter{h: make(http.Header)}
		w.status = 0
		h.ServeHTTP(w, req) // warm the response entry
		if w.status != 200 {
			b.Fatalf("warmup code %d", w.status)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(payload)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 200 {
				b.Fatalf("code %d", w.status)
			}
		}
	})

	b.Run("mode=stream", func(b *testing.B) {
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		ingest := `{"tenant":"bench","stream":"live","n":512,"values":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`
		if code := jsonPost(h, "/v1/ingest", ingest); code != 200 {
			b.Fatalf("ingest code %d", code)
		}
		body := `{"tenant":"bench","source":{"stream":"live"},"k":4,"eps":0.2,"scale":0.02,"cap":8000,"seed":1}`
		if code := learnPost(h, body); code != 200 { // warm the response entry
			b.Fatalf("warmup code %d", code)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
		b.StopTimer()
		// Every op must have revalidated against the live stream version
		// and still hit the response cache — the stream-source hot path.
		if st := s.respc.stats(); st.Hits < int64(b.N) {
			b.Fatalf("response cache saw %d hits, want >= %d", st.Hits, b.N)
		}
	})

	b.Run("mode=stream_cold", func(b *testing.B) {
		// Each op ingests a batch (bumping the stream version) and then
		// learns from the stream: snapshot rebuild + tabulate + learn,
		// the worst case for a stream-sourced query.
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
			ResponseCacheBytes: 64 << 20, Metrics: MetricsConfig{Disabled: true},
			Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		body := `{"tenant":"bench","source":{"stream":"live"},"k":4,"eps":0.2,"scale":0.02,"cap":8000,"seed":1}`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest := fmt.Sprintf(`{"tenant":"bench","stream":"live","n":512,"values":[%d,%d,%d,%d]}`,
				i%512, (i+7)%512, (i+49)%512, (i+343)%512)
			if code := jsonPost(h, "/v1/ingest", ingest); code != 200 {
				b.Fatalf("ingest code %d", code)
			}
			if code := learnPost(h, body); code != 200 {
				b.Fatalf("code %d", code)
			}
		}
	})

	testerBody := func(cap, seed int) string {
		return fmt.Sprintf(
			`{"tenant":"bench","source":{"gen":"zipf","n":256},"k":4,"eps":0.2,"scale":0.05,"cap":%d,"seed":%d}`, cap, seed)
	}
	for _, mode := range []string{"tester_cold", "derive"} {
		b.Run("mode="+mode, func(b *testing.B) {
			s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
				Metrics: MetricsConfig{Disabled: true}, Trace: TraceConfig{Disabled: true}})
			defer s.Close()
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "derive" {
					b.StopTimer()
					if code := jsonPost(h, "/v1/test/l2", testerBody(2000, i)); code != 200 {
						b.Fatalf("sibling code %d", code)
					}
					b.StartTimer()
				}
				if code := jsonPost(h, "/v1/test/l2", testerBody(1990, i)); code != 200 {
					b.Fatalf("code %d", code)
				}
			}
			b.StopTimer()
			var derived int64
			for _, sh := range s.shards {
				derived += sh.derived.Load()
			}
			if want := map[string]int64{"tester_cold": 0, "derive": int64(b.N)}[mode]; derived != want {
				b.Fatalf("%d bundles derived, want %d", derived, want)
			}
		})
	}

	b.Run("mode=coalesced", func(b *testing.B) {
		// MaxQueuePerShard stays above the client count so the admission
		// gate never sheds: the mode measures coalescing, not shedding.
		s := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 0, MaxQueuePerShard: 64, Trace: TraceConfig{Disabled: true}})
		defer s.Close()
		h := s.Handler()
		const clients = 16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := mkBody(i) // fresh key: no cache, pure coalescing
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code := learnPost(h, body); code != 200 {
						b.Errorf("code %d", code)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkTraceTax prices the tracing plane against the same cached
// path with tracing off, robustly enough to gate on. Each op sends one
// request to a server configured as BenchmarkServe's mode=cached and one
// to a server configured as its mode=trace, alternating which goes
// first, and the trace/cached metric is the ratio of the two servers'
// median request latencies. Interleaving exposes both sides to the same
// drift in host speed, and the medians ignore GC pauses and scheduler
// outliers; two back-to-back 20-iteration mode rows do neither.
// CI runs it with -benchtime 1000x and gates trace/cached at 1.05.
func BenchmarkTraceTax(b *testing.B) {
	body := `{"tenant":"bench","source":{"gen":"zipf","n":512},"k":4,"eps":0.2,"scale":0.02,"cap":8000,"seed":1}`
	cached := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
		Metrics: MetricsConfig{Disabled: true}, Trace: TraceConfig{Disabled: true}})
	defer cached.Close()
	traced := mustNew(b, Config{Shards: 2, WorkersPerShard: 2, CacheBytes: 256 << 20,
		Metrics: MetricsConfig{Disabled: true}})
	defer traced.Close()
	handlers := [2]http.Handler{cached.Handler(), traced.Handler()}
	post := func(side int) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v1/learn", strings.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		handlers[side].ServeHTTP(w, req)
		elapsed := time.Since(start)
		if w.Code != 200 {
			b.Fatalf("code %d", w.Code)
		}
		return elapsed
	}
	post(0) // warm both keys
	post(1)
	var lat [2][]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i % 2
		lat[first] = append(lat[first], post(first))
		lat[1-first] = append(lat[1-first], post(1-first))
	}
	b.StopTimer()
	if got := traced.tracer.StatsSnapshot().Started; got < int64(b.N) {
		b.Fatalf("tracer started %d traces, want >= %d", got, b.N)
	}
	median := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[(len(d)-1)/2]+d[len(d)/2]) / 2
	}
	b.ReportMetric(median(lat[1])/median(lat[0]), "trace/cached")
}
