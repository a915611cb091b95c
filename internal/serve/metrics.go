package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"khist/internal/cluster"
	"khist/internal/obs"
	"khist/internal/obs/trace"
)

// The metrics plane. Every layer of the server feeds a lock-cheap obs
// registry — per-endpoint traffic at handler entry/exit, queue-wait vs
// compute split at the shard pools, byte flow at the caches, per-class
// admission at the quota table, per-peer forwarding at the cluster
// client — and the whole registry renders as Prometheus text on
// GET /metrics. The request-latency recorder is the dogfooded one: a
// background snapshotter periodically reads its exact bucket counts and
// runs the repo's own k-bucket v-optimal learner over the counted
// latency distribution, so the server's latency summary on /metrics and
// /v1/stats is the paper's algorithm applied to the server itself.
//
// Instrumentation never touches response bodies — counters and
// recorders only — so the serving plane's byte-identity contract
// (cold/cached/coalesced/forwarded responses are bit-identical) holds
// with metrics on or off.

// Metrics defaults: a 5s learning window keeps the learned histogram
// fresh without measurable load (one snapshot reads 200 bucket counts
// and learns from at most 4096 draws), and k=6 pieces summarize a
// typical bimodal hit/miss latency population with room for tails.
const (
	DefaultMetricsWindow = 5 * time.Second
	DefaultMetricsK      = 6
)

// MetricsConfig sizes the metrics plane. The zero value means enabled
// with defaults, so every configuration of the server — including the
// equivalence suites — exercises the instrumented path.
type MetricsConfig struct {
	// Disabled turns the metrics plane off entirely: no registry, no
	// /metrics endpoint, no snapshotter, zero per-request overhead. The
	// overhead benchmarks use it as their baseline.
	Disabled bool
	// Window is the snapshot period: how often the background
	// snapshotter reads the latency recorders and re-runs the learner.
	// Non-positive means DefaultMetricsWindow.
	Window time.Duration
	// K is the piece budget of the learned latency histogram.
	// Non-positive means DefaultMetricsK.
	K int
}

func (c MetricsConfig) withDefaults() MetricsConfig {
	if c.Window <= 0 {
		c.Window = DefaultMetricsWindow
	}
	if c.K < 1 {
		c.K = DefaultMetricsK
	}
	return c
}

// statusClass buckets an HTTP status code into one of the four rendered
// classes (out-of-range codes clamp to the nearest class).
func statusClass(code int) int {
	c := code / 100
	if c < 2 {
		c = 2
	}
	if c > 5 {
		c = 5
	}
	return c - 2
}

var statusClassNames = [4]string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is one endpoint's traffic series: request count,
// responses by status class, body bytes both ways, and an e2e latency
// recorder (handler entry to handler exit, including the admission and
// relay paths).
type endpointMetrics struct {
	requests  *obs.Counter
	status    [4]*obs.Counter
	reqBytes  *obs.Counter
	respBytes *obs.Counter
	latency   *obs.Recorder
}

// peerMetrics is one cluster peer's forwarding series: completed relays
// by status class, summed round-trip time, and exclusions (transport
// failures plus 421 ring-mismatch refusals).
type peerMetrics struct {
	forwards [4]*obs.Counter
	sumUS    *obs.Counter
	excluded *obs.Counter
}

// serverMetrics wires the obs registry through the server. It is built
// at construction time; the hot path touches only the pre-registered
// counter and recorder handles.
type serverMetrics struct {
	cfg MetricsConfig
	reg *obs.Registry

	// latency is the dogfooded recorder: every request's e2e latency,
	// learned into a k-histogram by the snapshotter.
	latency *obs.Recorder
	// poolWait and compute split each shard-pool run (see shard.run):
	// queue wait (submission to execution start) vs compute (the rest of
	// the run as its caller measures it), one sample each per run.
	poolWait *obs.Recorder
	compute  *obs.Recorder
	// forward is the merged cross-peer relay latency distribution
	// (per-peer means come from the peerMetrics counters).
	forward *obs.Recorder

	endpoints map[string]*endpointMetrics
	peers     map[string]*peerMetrics
	// batchItems counts per-item outcomes inside /v1/batch envelopes by
	// (op, status class). The envelope itself is one request on the
	// batch endpoint — typically a 200 — so without these series a
	// batch full of per-item 429s/421s would be invisible to the
	// status-class counters.
	batchItems map[string]*[4]*obs.Counter

	// aux are the non-learned recorders snapshotAll reads alongside the
	// learned latency recorder.
	aux []*obs.Recorder
}

func newServerMetrics(cfg MetricsConfig) *serverMetrics {
	cfg = cfg.withDefaults()
	m := &serverMetrics{
		cfg:        cfg,
		reg:        obs.NewRegistry(),
		endpoints:  make(map[string]*endpointMetrics),
		peers:      make(map[string]*peerMetrics),
		batchItems: make(map[string]*[4]*obs.Counter),
	}
	m.latency = m.reg.Recorder("khist_request_latency",
		"e2e request latency in us, learned into a k-histogram by the v-optimal learner", true)
	m.poolWait = m.auxRecorder("khist_pool_wait",
		"queue wait on the shard pools in us (submission to execution start)")
	m.compute = m.auxRecorder("khist_compute",
		"compute time on the shard pools in us, each run's time after its queue wait (draws, table fills and algorithm runs)")
	m.forward = m.auxRecorder("khist_forward_latency",
		"cluster forward round-trip in us, all peers merged")
	for _, ep := range []string{
		"learn", "test_l2", "test_l1", "learn2d", "ingest", "batch",
		"stats", "cluster", "cluster_bundle", "healthz", "metrics", "trace",
	} {
		m.endpoints[ep] = m.newEndpoint(ep)
	}
	for _, op := range []string{epLearn, epTestL2, epTestL1, epLearn2D, "other"} {
		var cs [4]*obs.Counter
		for i, class := range statusClassNames {
			cs[i] = m.reg.Counter("khist_batch_item_results_total",
				"per-item outcomes inside /v1/batch envelopes, by op and status class",
				"op", op, "class", class)
		}
		m.batchItems[op] = &cs
	}
	return m
}

// batchItemDone counts one batch item's outcome; unknown ops (which the
// plan rejected with per-item 400s) land on the "other" series.
func (m *serverMetrics) batchItemDone(op string, status int) {
	cs, ok := m.batchItems[op]
	if !ok {
		cs = m.batchItems["other"]
	}
	cs[statusClass(status)].Inc()
}

// auxRecorder registers a non-learned recorder (counts, quantiles and
// cumulative buckets only) and tracks it for the snapshotter.
func (m *serverMetrics) auxRecorder(name, help string) *obs.Recorder {
	rec := m.reg.Recorder(name, help, false)
	m.aux = append(m.aux, rec)
	return rec
}

// newEndpoint registers the per-endpoint series. The ep label is not
// a compile-time constant, but every caller draws it from the fixed
// endpoint table in newServerMetrics/Handler — cardinality is the
// endpoint count, not request-derived.
//
//khist:allow metriclabel ep comes from the fixed endpoint table (newServerMetrics), bounded by the API surface
func (m *serverMetrics) newEndpoint(ep string) *endpointMetrics {
	em := &endpointMetrics{
		requests: m.reg.Counter("khist_requests_total",
			"requests received per endpoint", "endpoint", ep),
		reqBytes: m.reg.Counter("khist_request_bytes_total",
			"request body bytes received per endpoint", "endpoint", ep),
		respBytes: m.reg.Counter("khist_response_bytes_total",
			"response body bytes written per endpoint", "endpoint", ep),
		latency: m.auxRecorder("khist_latency_"+ep,
			"e2e latency of the "+ep+" endpoint in us"),
	}
	for i, class := range statusClassNames {
		em.status[i] = m.reg.Counter("khist_responses_total",
			"responses per endpoint and status class", "endpoint", ep, "class", class)
	}
	return em
}

// newPeer registers the forwarding series for one cluster peer; called
// from initCluster for every ring node except self.
//
//khist:allow metriclabel peer labels are bounded by the static -peers ring configuration
func (m *serverMetrics) newPeer(peer string) *peerMetrics {
	pm := &peerMetrics{
		sumUS: m.reg.Counter("khist_peer_forward_us_total",
			"summed forward round-trip per peer in us", "peer", peer),
		excluded: m.reg.Counter("khist_peer_excluded_total",
			"times this peer was excluded during a forward (transport failure or ring mismatch)",
			"peer", peer),
	}
	for i, class := range statusClassNames {
		pm.forwards[i] = m.reg.Counter("khist_peer_forwards_total",
			"completed forwards per peer and status class", "peer", peer, "class", class)
	}
	m.peers[peer] = pm
	return pm
}

// mirrorServer registers render-time views of the counters that already
// live in the shard, cache, and quota structures — the subsystems keep
// their own atomics (and /v1/stats its existing shape), and /metrics
// reads them through callbacks without double-counting.
func (m *serverMetrics) mirrorServer(s *Server) {
	intGauge := func(name, help string, fn func() int64, kv ...string) {
		m.reg.Gauge(name, help, func() float64 { return float64(fn()) }, kv...)
	}
	intCounter := func(name, help string, fn func() int64, kv ...string) {
		m.reg.CounterFunc(name, help, func() float64 { return float64(fn()) }, kv...)
	}
	m.reg.Gauge("khist_build_info",
		"build metadata as labels; the value is always 1",
		func() float64 { return 1 },
		"version", Version, "go_version", runtime.Version())
	m.reg.Gauge("khist_uptime_seconds",
		"seconds since this server was constructed",
		func() float64 { return time.Since(s.start).Seconds() })
	for i, sh := range s.shards {
		sh := sh
		lbl := strconv.Itoa(i)
		intCounter("khist_shard_requests_total", "admitted requests per shard", sh.requests.Load, "shard", lbl)
		intCounter("khist_shard_shed_total", "requests shed at the shard admission gate", sh.shed.Load, "shard", lbl)
		intGauge("khist_shard_inflight", "currently admitted requests per shard", sh.inflight.Load, "shard", lbl)
		intGauge("khist_shard_queue_depth", "requests waiting on the shard pool", func() int64 { return int64(sh.pool.Pending()) }, "shard", lbl)
		intCounter("khist_cache_hits_total", "tabulation cache hits per shard", sh.bundles.hits.Load, "shard", lbl)
		intCounter("khist_cache_misses_total", "tabulation cache misses per shard", sh.bundles.misses.Load, "shard", lbl)
		intCounter("khist_cache_coalesced_total", "requests coalesced into another request's draw", sh.bundles.coalesced.Load, "shard", lbl)
		intCounter("khist_learn_table_fills_total", "learner cost tables filled per shard", sh.tables.misses.Load, "shard", lbl)
		intCounter("khist_learn_table_hits_total", "learns that ran on a cost table attached to their cached bundle", sh.tables.hits.Load, "shard", lbl)
		intCounter("khist_learn_table_coalesced_total", "learns that waited for another learn's cost-table fill", sh.tables.coalesced.Load, "shard", lbl)
		intGauge("khist_learn_table_bytes", "accounted bytes of the learner cost tables attached to cached bundles per shard", sh.cache.attachedStats, "shard", lbl)
		intCounter("khist_bundle_derived_total", "bundle misses that built sets from a cached sibling bundle's sets per shard", sh.derived.Load, "shard", lbl)
		intCounter("khist_samples_drawn_total", "samples drawn by bundle misses per shard", sh.samplesDrawn.Load, "shard", lbl)
		intGauge("khist_cache_entries", "live tabulation cache entries per shard", func() int64 {
			entries, _ := sh.cache.stats()
			return int64(entries)
		}, "shard", lbl)
		intGauge("khist_cache_bytes", "accounted tabulation cache bytes per shard", func() int64 {
			_, bytes := sh.cache.stats()
			return bytes
		}, "shard", lbl)
		intCounter("khist_cache_hit_bytes_total", "bytes served from the tabulation cache per shard", func() int64 {
			hit, _, _, _ := sh.cache.flowStats()
			return hit
		}, "shard", lbl)
		intCounter("khist_cache_inserted_bytes_total", "bytes accepted into the tabulation cache per shard", func() int64 {
			_, ins, _, _ := sh.cache.flowStats()
			return ins
		}, "shard", lbl)
		intCounter("khist_cache_evictions_total", "tabulation cache evictions per shard", func() int64 {
			_, _, ev, _ := sh.cache.flowStats()
			return ev
		}, "shard", lbl)
		intCounter("khist_cache_evicted_bytes_total", "bytes reclaimed by cache eviction per shard", func() int64 {
			_, _, _, evb := sh.cache.flowStats()
			return evb
		}, "shard", lbl)
	}
	rc := s.respc
	intCounter("khist_rcache_hits_total", "response-byte cache hits (zero-recompute serves)", func() int64 {
		return rc.stats().Hits
	})
	intCounter("khist_rcache_misses_total", "response-byte cache misses", func() int64 {
		return rc.stats().Misses
	})
	intGauge("khist_rcache_entries", "live response-byte cache entries", func() int64 {
		return int64(rc.stats().Entries)
	})
	intGauge("khist_rcache_bytes", "accounted response-byte cache bytes", func() int64 {
		return rc.stats().Bytes
	})
	intCounter("khist_rcache_hit_bytes_total", "bytes served from the response-byte cache", func() int64 {
		return rc.stats().HitBytes
	})
	intCounter("khist_rcache_inserted_bytes_total", "bytes accepted into the response-byte cache", func() int64 {
		return rc.stats().InsertedByte
	})
	intCounter("khist_rcache_evictions_total", "response-byte cache LRU evictions", func() int64 {
		return rc.stats().Evictions
	})
	intCounter("khist_rcache_invalidations_total", "response entries dropped with their parent bundle", func() int64 {
		return rc.stats().Invalidations
	})
	// The batch plan cache's lookups, and its and the source registry's
	// cache occupancy and byte flow.
	intCounter("khist_plan_cache_hits_total", "batch envelopes whose plan was cached", s.planHits.Load)
	intCounter("khist_plan_cache_misses_total", "batch envelopes planned afresh while the plan cache is on", s.planMisses.Load)
	for _, c := range []struct {
		prefix, what string
		cache        *cache
	}{
		{"khist_plan_cache_", "batch plan cache", s.plans},
		{"khist_source_cache_", "source registry cache", s.sources.group.cache},
	} {
		core := c.cache.coreStats
		intGauge(c.prefix+"entries", "live "+c.what+" entries", func() int64 { return int64(core().Entries) })
		intGauge(c.prefix+"bytes", "accounted "+c.what+" bytes", func() int64 { return core().Bytes })
		intCounter(c.prefix+"hit_bytes_total", "bytes served from the "+c.what, func() int64 { return core().HitBytes })
		intCounter(c.prefix+"inserted_bytes_total", "bytes accepted into the "+c.what, func() int64 { return core().InsertedBytes })
		intCounter(c.prefix+"evictions_total", c.what+" evictions", func() int64 { return core().Evictions })
		intCounter(c.prefix+"evicted_bytes_total", "bytes reclaimed by "+c.what+" eviction", func() int64 { return core().EvictedBytes })
	}
	// Streaming ingest plane: aggregate series only — per-stream detail
	// lives in /v1/stats, where label cardinality is not a concern.
	intCounter("khist_ingest_batches_total", "observation batches accepted by /v1/ingest", s.ingestBatches.Load)
	intCounter("khist_ingest_observations_total", "observations accepted by /v1/ingest", s.ingestObs.Load)
	intGauge("khist_streams", "live (tenant, stream) sketches", func() int64 {
		return int64(s.streams.count())
	})
	intGauge("khist_stream_sketch_bytes", "bytes retained by live stream sketches", s.streams.sketchBytes)
	qs := s.quotas
	for i, class := range quotaClassNames {
		i := i
		intCounter("khist_quota_admitted_total", "quota admissions per tenant class", qs.classAdmitted[i].Load, "class", class)
		intCounter("khist_quota_shed_total", "quota sheds per tenant class and kind", qs.classShedRate[i].Load, "class", class, "kind", "rate")
		intCounter("khist_quota_shed_total", "quota sheds per tenant class and kind", qs.classShedConc[i].Load, "class", class, "kind", "concurrency")
	}
	intCounter("khist_quota_untracked_total", "requests served on ephemeral quota states (tenant table hard-full)", qs.untracked.Load)
}

// mirrorCluster registers the forwarding-plane counters; called from
// initCluster once the ring exists.
func (m *serverMetrics) mirrorCluster(s *Server) {
	intCounter := func(name, help string, fn func() int64) {
		m.reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	intCounter("khist_cluster_forwarded_total", "requests relayed to a peer", s.cluster.forwarded.Load)
	intCounter("khist_cluster_forward_retries_total", "dead peers excluded during forwards", s.cluster.forwardRetries.Load)
	intCounter("khist_cluster_fallback_local_total", "forwards that failed entirely, served locally", s.cluster.fallbackLocal.Load)
	intCounter("khist_cluster_served_forwarded_total", "forwarded requests served by this node", s.cluster.servedForwarded.Load)
	intCounter("khist_cluster_loops_rejected_total", "misrouted forwards rejected by the hop guard", s.cluster.loopsRejected.Load)
	intCounter("khist_cluster_bundles_served_total", "bundle fetches answered for peers", s.cluster.bundlesServed.Load)
	intCounter("khist_cluster_bundles_warmed_total", "bundles warmed into the local cache", s.cluster.bundlesWarmed.Load)
}

// mirrorTracer registers render-time views of the tracing plane's
// counters; called from New once the tracer exists.
func (m *serverMetrics) mirrorTracer(tr *trace.Tracer) {
	gauge := func(name, help string, fn func(trace.Stats) int64, kv ...string) {
		m.reg.Gauge(name, help, func() float64 { return float64(fn(tr.StatsSnapshot())) }, kv...)
	}
	counter := func(name, help string, fn func(trace.Stats) int64, kv ...string) {
		m.reg.CounterFunc(name, help, func() float64 { return float64(fn(tr.StatsSnapshot())) }, kv...)
	}
	counter("khist_trace_started_total", "traces started (one per request on a traced endpoint)",
		func(st trace.Stats) int64 { return st.Started })
	counter("khist_trace_retained_total", "traces retained into the /v1/trace ring, by reason",
		func(st trace.Stats) int64 { return st.RetainedError }, "reason", trace.KeptError)
	counter("khist_trace_retained_total", "traces retained into the /v1/trace ring, by reason",
		func(st trace.Stats) int64 { return st.RetainedSlow }, "reason", trace.KeptSlow)
	counter("khist_trace_retained_total", "traces retained into the /v1/trace ring, by reason",
		func(st trace.Stats) int64 { return st.RetainedHead }, "reason", trace.KeptHead)
	counter("khist_trace_span_drops_total", "spans dropped because a trace overflowed its span array",
		func(st trace.Stats) int64 { return st.SpanDrops })
	gauge("khist_trace_buffered", "traces currently held in the /v1/trace ring",
		func(st trace.Stats) int64 { return st.Buffered })
}

// Version is the build's version string, overridable at link time:
//
//	go build -ldflags "-X khist/internal/serve.Version=v1.2.3"
//
// It renders as the version label of khist_build_info.
var Version = "dev"

// statusWriter captures the status code and written byte count of one
// response, and carries the request's span collector (nil when tracing
// is off or the endpoint untraced). Instances are pooled: the
// instrumented hot path allocates nothing in steady state.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// act is the request's trace collector; handlers reach it through
	// activeOf (trace.go).
	act *trace.Active
	// echoSpans marks a forwarded request: the first header flush writes
	// the trace id and the compact span summary into the response
	// headers, so the forwarder can stitch this node's spans into its
	// trace. Never set on direct client requests — their headers stay
	// identical tracing on or off.
	echoSpans bool
}

// WriteHeader and Write are the per-request instrumentation
// middleware: pooled statusWriter, counter bumps, no heap traffic of
// their own (emitTraceHeaders allocates, but only on forwarded
// requests that opted into span echoing).
//
//khist:noalloc
func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
		sw.emitTraceHeaders()
	}
	sw.ResponseWriter.WriteHeader(code)
}

//khist:noalloc
func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
		sw.emitTraceHeaders()
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// emitTraceHeaders flushes the owner-side trace summary before the
// status line goes out (headers are immutable after WriteHeader). The
// spans collected so far are the complete set: handlers add spans
// strictly before writing the response.
func (sw *statusWriter) emitTraceHeaders() {
	if !sw.echoSpans || sw.act == nil {
		return
	}
	h := sw.Header()
	h.Set(cluster.TraceHeader, trace.FormatID(sw.act.TraceID()))
	h.Set(cluster.SpanHeader, sw.act.EncodeWire())
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// hooks builds the cluster client's observation callbacks over the
// registered peer series.
func (m *serverMetrics) forwardDone(peer string, d time.Duration, status int) {
	pm, ok := m.peers[peer]
	if !ok {
		return
	}
	pm.forwards[statusClass(status)].Inc()
	pm.sumUS.Add(d.Microseconds())
	m.forward.Observe(d)
}

func (m *serverMetrics) peerExcluded(peer string) {
	if pm, ok := m.peers[peer]; ok {
		pm.excluded.Inc()
	}
}

// snapshotAll snapshots every recorder — counts, quantiles and
// cumulative buckets for the auxiliary recorders, plus the learned
// k-histogram for the request latency recorder — and returns the
// latency snapshot. It runs off the request path (the background
// snapshotter and SnapshotMetrics).
func (m *serverMetrics) snapshotAll() *obs.LatencySnapshot {
	for _, rec := range m.aux {
		rec.Snapshot(0)
	}
	return m.latency.Snapshot(m.cfg.K)
}

// snapshotLoop is the background snapshotter: every Window it re-learns
// the latency histogram from the live bucket counts until stop closes.
func (m *serverMetrics) snapshotLoop(stop <-chan struct{}) {
	t := time.NewTicker(m.cfg.Window)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.snapshotAll()
		}
	}
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (m *serverMetrics) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	m.reg.WritePrometheus(w)
}

// SnapshotMetrics forces one snapshot-and-learn pass over the metrics
// plane and returns the resulting request-latency snapshot (nil when
// metrics are disabled). The background snapshotter does this every
// Window; tests and the bench driver call it to observe a fresh
// snapshot deterministically.
func (s *Server) SnapshotMetrics() *obs.LatencySnapshot {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.snapshotAll()
}
