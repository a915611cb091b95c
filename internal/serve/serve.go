// Package serve is the long-lived serving layer over the parallel sample
// plane: an HTTP/JSON front end that turns the paper's one-shot
// draw-learn-exit algorithms into a tabulate-once/serve-many system.
//
// Requests are routed by tenant/domain key to one of S shards. Each
// shard owns a persistent internal/par worker pool (compute is bounded
// and goroutines are reused across requests, never spawned per call), an
// LRU cache of immutable tabulated dist.Empirical bundles keyed by
// (source fingerprint, seed, sample budget), and a coalescer that
// collapses concurrent requests sharing a key onto one draw: the first
// request tabulates, the rest wait and share the bundle. A learn attaches
// its cost table to the cached bundle it was filled from (one per scan
// mode), so later learns on that bundle skip the fill; the table is
// charged to the cache budget and leaves with the bundle. A bundle miss
// is built from the cached bundles of its (source, seed), whose set i
// is drawn from the same stream: each set starts from the sibling set
// nearest its size and draws only the samples in between.
//
// Every cache here (the shard bundle caches, the batch plan cache, the
// source registry, the response-byte cache's parts) stores its bytes in
// one byte-budgeted LRU core, lru, with its own index kept beside it.
//
// The plane's PR 2 invariant extends end to end: for a fixed (source,
// seed, budget, request), the response body is bit-identical whether it
// was computed cold, served from cache, coalesced into another request's
// draw, or answered under any -shards / -workers-per-shard setting. Two
// facts make this hold: tabulated bundles are pure functions of their
// cache key (streams are split per sample set, never per worker), and
// the algorithms consuming them are worker-count invariant. Cache
// status therefore travels in the X-Khist-Cache header, never the body.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"khist/internal/cluster"
	"khist/internal/dist"
	"khist/internal/grid"
	"khist/internal/obs/trace"
	"khist/internal/par"
)

// Config sizes a Server.
type Config struct {
	// Shards is the number of independent shards (pools + caches).
	// Values below 1 mean 1.
	Shards int
	// WorkersPerShard is each shard's pool size: the bound on the
	// shard's concurrently executing tabulations and algorithm runs,
	// and the Parallelism passed to the algorithms. Values below 1 mean
	// par.DefaultWorkers().
	WorkersPerShard int
	// CacheBytes is the total tabulation-cache budget, split evenly
	// across shards (rounded up, so any positive budget leaves every
	// shard a positive cap). Non-positive disables sample-set caching
	// (requests still coalesce).
	CacheBytes int64
	// MaxSamplesPerSet is the server-side ceiling on every drawn sample
	// set, applied on top of (and never loosened by) the request's own
	// cap: requests control their budgets only below it, so a single
	// tiny-eps request cannot allocate unbounded memory. Values below 1
	// mean DefaultMaxSamplesPerSet. The ceiling is part of the server
	// config, so clamped responses are still deterministic per config.
	MaxSamplesPerSet int
	// MaxDomain is the largest resolvable source domain (n, or
	// rows*cols); larger sources are rejected with 400. Values below 1
	// mean DefaultMaxDomain.
	MaxDomain int
	// MaxBodyBytes caps every request body (http.MaxBytesReader), so
	// the admission decision happens before a request can allocate:
	// oversized bodies are 413s. Inline-weights sources near MaxDomain
	// need a raised cap. Values below 1 mean DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxQueuePerShard bounds the requests concurrently admitted to one
	// shard (executing plus waiting for a pool worker). Excess requests
	// are shed with 429 + Retry-After instead of piling up on the
	// shard's Pool.Do. Values below 1 mean
	// DefaultQueueFactor * WorkersPerShard.
	MaxQueuePerShard int
	// ResponseCacheBytes is the response-byte cache budget (see
	// rcache.go), split evenly across Shards parts (rounded up).
	// Non-positive disables the cache: every request recomputes, which
	// is also how the on/off equivalence suite forces the slow path.
	// Responses are byte-identical either way; only the X-Khist-Cache
	// header ("rhit") and the latency reveal the setting.
	ResponseCacheBytes int64
	// MaxBatchItems bounds the sub-queries one /v1/batch envelope may
	// carry. Values below 1 mean DefaultMaxBatchItems.
	MaxBatchItems int
	// MaxStreams bounds the live (tenant, stream) sketches the ingest
	// plane retains (see streams.go); batches for new streams past the
	// bound are shed with 429. Values below 1 mean DefaultMaxStreams.
	MaxStreams int
	// StreamBuckets is each stream sketch's bounded-histogram bin budget.
	// Values below 2 mean DefaultStreamBuckets.
	StreamBuckets int
	// StreamReservoir is each stream sketch's reservoir capacity: streams
	// with at most this many observations tabulate exactly. Values below
	// 1 mean DefaultStreamReservoir.
	StreamReservoir int
	// Quotas is the per-tenant admission policy (rate + concurrency).
	// The zero value admits everything. Quotas decide whether a request
	// is admitted, never what an admitted request returns: response
	// bodies stay byte-identical with quotas on or off.
	Quotas QuotaConfig
	// Cluster configures the multi-process tier (see cluster.go). The
	// zero value — and a one-node ring — behaves byte-identically to a
	// standalone server.
	Cluster ClusterConfig
	// Metrics configures the self-measurement plane (see metrics.go).
	// The zero value means enabled with defaults; instrumentation never
	// changes response bodies, only headers and counters.
	Metrics MetricsConfig
	// Trace configures the per-request tracing plane (see trace.go). The
	// zero value means enabled with defaults; tracing never changes
	// response bodies, only intra-cluster headers and the /v1/trace ring.
	Trace TraceConfig
}

// Default resource ceilings: generous for real workloads (a maximal
// request tabulates a few hundred MB), small enough that no single
// request can take the process down.
const (
	DefaultMaxSamplesPerSet = 1 << 20
	DefaultMaxDomain        = 1 << 20
	// DefaultMaxBodyBytes admits inline-weights sources up to several
	// hundred thousand entries; raise it (with -max-body-bytes) to post
	// weights near DefaultMaxDomain.
	DefaultMaxBodyBytes = 16 << 20
	// DefaultQueueFactor sizes the default per-shard admission limit:
	// DefaultQueueFactor * WorkersPerShard requests may be in flight on
	// a shard before load shedding starts.
	DefaultQueueFactor = 8
	// DefaultResponseCacheBytes is khist-server's default response-byte
	// cache budget. Encoded bodies are small (KBs), so 64 MiB holds tens
	// of thousands of distinct hot queries.
	DefaultResponseCacheBytes = 64 << 20
)

// Server is the serving layer: construct with New, mount Handler, Close
// on shutdown.
type Server struct {
	cfg     Config
	shards  []*shard
	sources *registry
	quotas  *quotas
	// perShardCache is the effective per-shard cache cap after the
	// rounded-up split, surfaced in /v1/stats.
	perShardCache int64
	// respc is the response-byte cache (never nil; zero-budget parts
	// never store or hit). perPartRespCache is its per-part cap.
	respc            *respCache
	perPartRespCache int64
	// plans caches decoded /v1/batch envelopes (see batch.go): a repeated
	// identical envelope skips JSON decoding entirely. Budgeted at a
	// quarter of ResponseCacheBytes on top of it, and disabled with it —
	// plans only pay off when the response cache makes repeats cheap.
	plans *cache

	// streams is the live ingest plane (see streams.go): per-(tenant,
	// stream) versioned sketches fed by POST /v1/ingest and resolved as
	// request sources. The counters feed /metrics and /v1/stats.
	streams       *streamTable
	ingestBatches atomic.Int64
	ingestObs     atomic.Int64

	// Cluster tier (nil ring = standalone): the consistent-hash ring
	// over peer processes, the forwarding client, and its counters.
	ring    *cluster.Ring
	peers   *cluster.Client
	cluster clusterCounters

	// Metrics plane (nil = disabled): the obs registry, its recorders,
	// and the background snapshotter that re-learns the latency
	// histogram every Metrics.Window.
	metrics   *serverMetrics
	stopSnap  chan struct{}
	closeOnce sync.Once

	// Tracing plane (nil = disabled): per-request span collection with
	// tail-based retention into the /v1/trace ring (see trace.go).
	tracer *trace.Tracer

	// start anchors khist_uptime_seconds and the /v1/stats uptime field.
	start time.Time
}

// New builds a Server from the config. It errors only on an invalid
// cluster configuration; a standalone config always succeeds.
func New(cfg Config) (*Server, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.WorkersPerShard < 1 {
		cfg.WorkersPerShard = par.DefaultWorkers()
	}
	if cfg.MaxSamplesPerSet < 1 {
		cfg.MaxSamplesPerSet = DefaultMaxSamplesPerSet
	}
	if cfg.MaxDomain < 1 {
		cfg.MaxDomain = DefaultMaxDomain
	}
	if cfg.MaxBodyBytes < 1 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxQueuePerShard < 1 {
		cfg.MaxQueuePerShard = DefaultQueueFactor * cfg.WorkersPerShard
	}
	if cfg.MaxBatchItems < 1 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	if cfg.MaxStreams < 1 {
		cfg.MaxStreams = DefaultMaxStreams
	}
	if cfg.StreamBuckets < 2 {
		cfg.StreamBuckets = DefaultStreamBuckets
	}
	if cfg.StreamReservoir < 1 {
		cfg.StreamReservoir = DefaultStreamReservoir
	}
	// Split the budget rounding up: a floor division would turn any
	// positive budget below the shard count into a per-shard cap of 0 —
	// caching silently disabled on every shard.
	var perShard int64
	if cfg.CacheBytes > 0 {
		perShard = (cfg.CacheBytes + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	}
	var perPartResp int64
	if cfg.ResponseCacheBytes > 0 {
		perPartResp = (cfg.ResponseCacheBytes + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	}
	cfg.Trace = cfg.Trace.withDefaults()
	s := &Server{
		cfg:              cfg,
		start:            time.Now(),
		sources:          newRegistry(),
		quotas:           newQuotas(cfg.Quotas),
		perShardCache:    perShard,
		respc:            newRespCache(cfg.Shards, perPartResp),
		perPartRespCache: perPartResp,
		plans:            newCache(cfg.ResponseCacheBytes / 4),
		streams:          newStreamTable(cfg.MaxStreams, cfg.StreamBuckets, cfg.StreamReservoir),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(cfg.WorkersPerShard, perShard, cfg.MaxQueuePerShard)
		// Nest the response cache inside the bundle cache's lifecycle:
		// evicting a tabulated bundle drops the response bodies derived
		// from it (see cache.onEvict; set before any traffic exists).
		sh.cache.onEvict = s.respc.invalidateBundle
		s.shards = append(s.shards, sh)
	}
	if !cfg.Metrics.Disabled {
		s.metrics = newServerMetrics(cfg.Metrics)
		s.metrics.mirrorServer(s)
		for _, sh := range s.shards {
			sh.metrics = s.metrics
		}
	}
	if !cfg.Trace.Disabled {
		tc := trace.Config{SampleN: cfg.Trace.SampleN, Buffer: cfg.Trace.Buffer, Seed: cfg.Trace.Seed}
		if s.metrics != nil {
			// Tail retention dogfoods the metrics plane: keep any trace
			// slower than the snapshot p99 of the live latency recorder.
			// Before the first snapshot (or with metrics off) the
			// threshold is 0, which disables slow retention — errors and
			// head samples still retain.
			lat := s.metrics.latency
			tc.SlowUS = func() int64 {
				if snap := lat.Latest(); snap != nil {
					return snap.P99US
				}
				return 0
			}
		}
		s.tracer = trace.New(tc)
		if s.metrics != nil {
			s.metrics.mirrorTracer(s.tracer)
		}
	}
	if err := s.initCluster(cfg.Cluster); err != nil {
		s.Close()
		return nil, err
	}
	if s.metrics != nil {
		s.stopSnap = make(chan struct{})
		go s.metrics.snapshotLoop(s.stopSnap)
	}
	return s, nil
}

// Close stops the shard pools. In-flight requests finish first (their
// tasks are already queued), and requests that slip in after Close are
// still served correctly — par.Pool.Do degrades to running the task on
// the calling goroutine, so only the per-shard compute bound is lost,
// never the response. The cluster drain path relies on this: a node
// being removed from the ring can Close its pools and still answer the
// tail of requests (its own and forwarded ones) until the HTTP listener
// shuts, instead of panicking mid-drain.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stopSnap != nil {
			close(s.stopSnap)
		}
	})
	for _, sh := range s.shards {
		sh.close()
	}
}

// sampleCap resolves the effective per-set sample cap: the request's own
// cap when tighter, the server ceiling otherwise — a request can shrink
// its budget but never exceed the server's.
func (s *Server) sampleCap(reqCap int) int {
	if reqCap > 0 && reqCap < s.cfg.MaxSamplesPerSet {
		return reqCap
	}
	return s.cfg.MaxSamplesPerSet
}

// resolveSource is the registry resolve with the server's domain ceiling
// applied before any O(n) construction happens.
func (s *Server) resolveSource(spec SourceSpec) (*dist.Distribution, error) {
	n := spec.N
	if len(spec.Weights) > 0 {
		n = len(spec.Weights)
	}
	if n > s.cfg.MaxDomain {
		return nil, fmt.Errorf("serve: domain size %d exceeds the server's -max-domain %d", n, s.cfg.MaxDomain)
	}
	return s.sources.resolve(spec)
}

// resolveSource2D is resolveSource for grid sources.
func (s *Server) resolveSource2D(spec Source2DSpec) (*grid.Grid, error) {
	if cells := int64(spec.Rows) * int64(spec.Cols); cells > int64(s.cfg.MaxDomain) {
		return nil, fmt.Errorf("serve: grid size %dx%d exceeds the server's -max-domain %d", spec.Rows, spec.Cols, s.cfg.MaxDomain)
	}
	return s.sources.resolve2D(spec)
}

// shardFor routes a request to its shard by tenant/domain key: the
// tenant string plus the source identity, hashed with FNV-1a. All
// requests from one tenant against one source land on one shard, so
// they share its cache and are bounded by its pool; the shard count
// never influences response bodies, only which pool computes them.
// The hash is inlined rather than built on hash/fnv because New32a
// escapes to the heap — an allocation per request the zero-recompute
// hit path cannot afford — and must keep producing the same values
// (tenant, 0x00, sourceKey under FNV-1a): shard placement is part of
// the cache-locality contract.
//
//khist:noalloc
func (s *Server) shardFor(tenant, sourceKey string) *shard {
	h := fnv32a(fnvOffset32, tenant)
	h *= fnvPrime32 // the 0x00 separator: XOR with zero is the identity
	h = fnv32a(h, sourceKey)
	return s.shards[h%uint32(len(s.shards))]
}

// FNV-1a (32-bit) constants and core loop, allocation-free.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

//khist:noalloc
func fnv32a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// admit is the front door every algorithm request passes before any
// resolution or compute: the tenant's quota first (token-bucket rate
// plus concurrency cap, global across shards), then the target shard's
// admission gate. Both decisions need only the request's routing
// strings, so the only work a shed request has cost is its (MaxBodyBytes-
// capped) body decode — no O(n) source build, no sample draw, no seat
// on a shard pool. On success the request is counted and the shard plus
// a release func (call exactly once, when the request finishes) are
// returned; on shedding it returns the 429's Retry-After hint and the
// reason. A shard-gate shed cancels the tenant grant, so the rate token
// it briefly held is refunded — shard saturation never drains tenants'
// rate budgets.
func (s *Server) admit(tenant, sourceKey string) (sh *shard, release func(), retryAfter int, err error) {
	sh = s.shardFor(tenant, sourceKey)
	g, retry, reason, ok := s.quotas.admit(tenant)
	if !ok {
		return nil, nil, retry, fmt.Errorf("serve: %s", reason)
	}
	if !sh.acquire() {
		g.cancel()
		return nil, nil, 1, fmt.Errorf("serve: shard queue full (limit %d requests in flight)", sh.admitLimit)
	}
	sh.requests.Add(1)
	return sh, func() { sh.release(); g.release() }, 0, nil
}

// Handler returns the HTTP API:
//
//	POST /v1/learn          — greedy k-histogram learner (Theorems 1-2)
//	POST /v1/test/l2        — tiling k-histogram tester, l2 (Theorem 3)
//	POST /v1/test/l1        — tiling k-histogram tester, l1 (Theorem 4)
//	POST /v1/learn2d        — rectangle-histogram learner over grids
//	POST /v1/ingest         — stream observation batches (streams.go)
//	POST /v1/batch          — many sub-queries per round trip (batch.go)
//	GET  /v1/stats          — per-shard traffic and cache counters
//	GET  /v1/trace          — recent retained traces (trace.go)
//	GET  /v1/trace/{id}     — one retained trace by id
//	GET  /v1/cluster        — ring membership and forwarding counters
//	POST /v1/cluster/bundle — encoded sample-set bundles for peer warming
//	GET  /metrics           — Prometheus text metrics (unless disabled)
//	GET  /healthz           — liveness probe
//
// The algorithm endpoints route through the cluster ring when one is
// configured; the bundle endpoint is only mounted on cluster nodes.
// Every endpoint passes through the metrics plane's entry/exit
// instrumentation when it is enabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/learn", s.instrumented(epLearn, s.handleAlgo(epLearn, decodeLearn)))
	mux.HandleFunc("POST /v1/test/l2", s.instrumented(epTestL2, s.handleAlgo(epTestL2, algoEndpoints[epTestL2])))
	mux.HandleFunc("POST /v1/test/l1", s.instrumented(epTestL1, s.handleAlgo(epTestL1, algoEndpoints[epTestL1])))
	mux.HandleFunc("POST /v1/learn2d", s.instrumented(epLearn2D, s.handleAlgo(epLearn2D, decodeLearn2D)))
	mux.HandleFunc("POST /v1/ingest", s.instrumented(epIngest, s.handleIngest))
	mux.HandleFunc("POST /v1/batch", s.instrumented("batch", s.handleBatch))
	mux.HandleFunc("GET /v1/stats", s.instrumented("stats", s.handleStats))
	mux.HandleFunc("GET /v1/trace", s.instrumented("trace", s.handleTraceList))
	mux.HandleFunc("GET /v1/trace/{id}", s.instrumented("trace", s.handleTraceGet))
	mux.HandleFunc("GET /v1/cluster", s.instrumented("cluster", s.handleCluster))
	if s.ring != nil {
		mux.HandleFunc("POST "+cluster.BundlePath, s.instrumented("cluster_bundle", s.handleBundle))
	}
	if s.metrics != nil {
		mux.HandleFunc("GET /metrics", s.instrumented("metrics", s.metrics.handleMetrics))
	}
	mux.HandleFunc("GET /healthz", s.instrumented("healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}))
	return mux
}

// instrumented wraps h with the combined metrics and tracing wrapper:
// per-endpoint entry/exit counters and latency recorders (metrics plane
// enabled), plus per-request span collection with tail-based retention
// (tracing enabled and the endpoint traced). With both planes off it is
// the identity. The wrapper allocates nothing in steady state when the
// trace is not retained: the statusWriter and the span collector are
// both pooled, and the retention decision (Tracer.Finish) happens after
// the response is written.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	var em *endpointMetrics
	m := s.metrics
	if m != nil {
		em = m.endpoints[endpoint]
	}
	tr := s.tracer
	if !tracedEndpoints[endpoint] {
		tr = nil
	}
	if em == nil && tr == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if em != nil {
			em.requests.Inc()
			if r.ContentLength > 0 {
				em.reqBytes.Add(r.ContentLength)
			}
		}
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.bytes = w, 0, 0
		if tr != nil {
			// A forwarded request carries the forwarder's trace id: join
			// its trace (and echo the span summary back, see statusWriter)
			// instead of starting a new root.
			parent := trace.ParseID(r.Header.Get(cluster.TraceHeader))
			sw.act = tr.Start(parent)
			sw.echoSpans = parent != 0
		}
		h(sw, r)
		d := time.Since(t0)
		code, bytes, act := sw.status, sw.bytes, sw.act
		sw.ResponseWriter, sw.act, sw.echoSpans = nil, nil, false
		swPool.Put(sw)
		if code == 0 {
			code = http.StatusOK
		}
		if em != nil {
			em.status[statusClass(code)].Inc()
			em.respBytes.Add(bytes)
			em.latency.Observe(d)
			m.latency.Observe(d)
		}
		if act != nil {
			if id, kept := tr.Finish(act, endpoint, code, d); kept && em != nil {
				// Exemplars: the latency families point at the most recent
				// retained trace in their population.
				em.latency.SetExemplar(id, d.Microseconds())
				m.latency.SetExemplar(id, d.Microseconds())
			}
		}
	}
}
