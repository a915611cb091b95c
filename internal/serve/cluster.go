package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"khist/internal/cluster"
	"khist/internal/dist"
	"khist/internal/obs/trace"
)

// The cluster tier scales the serving layer across processes. Shard
// routing is already a pure hash of (tenant, source); the ring applies
// the same idea one level up, assigning every routing key one *owning
// node*. A node that receives a request it does not own relays the raw
// body to the owner and streams the answer back, so wherever a client
// connects:
//
//   - the owner's cache is the only one warmed for the key (no N-way
//     duplicate tabulations across the fleet),
//   - the owner's quota table is the only one charged — a tenant's
//     budget stays one budget across the ring (admission runs *after*
//     routing, so forwarders never double-charge),
//   - response bodies are byte-identical to a standalone server's: the
//     forward relays the original body bytes and the owner's compute is
//     the same compute, so only headers (X-Khist-Forwarded) reveal the
//     extra hop.
//
// Failure handling is client-driven: a forwarder that cannot reach the
// owner excludes it and retries the key's substitute owner on the
// reduced ring (carrying the exclusion set so the receiver can verify
// ownership), and when every remote candidate is down it serves the
// request locally — availability over strict ownership, with the
// degradation visible in /v1/cluster counters. A forwarded request is
// never re-forwarded: a receiver that does not own the key answers 421
// (the hop guard), so ring disagreements surface as errors instead of
// request loops.

// SetsKeyHeader advertises the sample-set cache key on responses to
// forwarded requests, so the forwarder can warm its own cache from the
// owner via the bundle endpoint instead of ever re-drawing. It is only
// set on forwarded responses: direct responses stay header-identical to
// a standalone server's.
const SetsKeyHeader = "X-Khist-Sets-Key"

// ClusterConfig wires a Server into a multi-process ring. The zero
// value (no peers) runs standalone.
type ClusterConfig struct {
	// Self is this node's base URL exactly as it appears in Peers
	// (required when Peers is set).
	Self string
	// Peers is every cluster node's base URL, including Self. All nodes
	// must be configured with the same set (order is irrelevant): the
	// ring is a pure function of it.
	Peers []string
	// Replicas is the virtual-node count per peer (0 means
	// cluster.DefaultReplicas).
	Replicas int
	// HTTPClient overrides the forwarding client's transport (tests);
	// nil means a default with a conservative timeout.
	HTTPClient *http.Client
}

// clusterCounters observes the forwarding plane; surfaced by
// GET /v1/cluster.
type clusterCounters struct {
	forwarded       atomic.Int64 // requests relayed to a peer
	forwardRetries  atomic.Int64 // dead peers excluded during forwards
	fallbackLocal   atomic.Int64 // forwards that failed entirely, served here
	servedForwarded atomic.Int64 // forwarded requests served by this node
	loopsRejected   atomic.Int64 // misrouted forwards rejected by the hop guard
	bundlesServed   atomic.Int64 // bundle fetches answered for peers
	bundlesWarmed   atomic.Int64 // bundles warmed into the local cache
}

// initCluster validates the cluster config and builds the ring and
// forwarding client. No peers means standalone: s.ring stays nil and
// every routing check short-circuits.
func (s *Server) initCluster(cfg ClusterConfig) error {
	if len(cfg.Peers) == 0 {
		if cfg.Self != "" {
			return fmt.Errorf("serve: cluster self %q set without peers", cfg.Self)
		}
		return nil
	}
	ring, err := cluster.NewRing(cfg.Peers, cfg.Replicas)
	if err != nil {
		return fmt.Errorf("serve: building cluster ring: %w", err)
	}
	if cfg.Self == "" {
		return fmt.Errorf("serve: cluster peers set without self")
	}
	if !ring.Contains(cfg.Self) {
		return fmt.Errorf("serve: cluster self %q is not in the peer list %v", cfg.Self, ring.Nodes())
	}
	s.ring = ring
	s.peers = cluster.NewClient(cfg.Self, cfg.HTTPClient)
	if s.metrics != nil {
		for _, node := range ring.Nodes() {
			if node != cfg.Self {
				s.metrics.newPeer(node)
			}
		}
		s.metrics.mirrorCluster(s)
		s.peers.SetHooks(cluster.Hooks{
			ForwardDone:  s.metrics.forwardDone,
			PeerExcluded: s.metrics.peerExcluded,
		})
	}
	return nil
}

// routingKey joins tenant and source key — the same composite the shard
// hash uses, so cluster ownership and shard placement nest: one key,
// one owning node, one shard inside it.
func routingKey(tenant, sourceKey string) string {
	return tenant + "\x00" + sourceKey
}

// route decides whether this node serves the request or relays it to
// the ring owner, and reports true when it already wrote the response
// (relayed an owner's answer, or rejected a misrouted forward). It runs
// after decode and before admission, so quotas and shard gates are
// charged only where the request is actually served.
func (s *Server) route(w http.ResponseWriter, r *http.Request, tenant, sourceKey string, body []byte) bool {
	if s.ring == nil {
		return false
	}
	key := routingKey(tenant, sourceKey)
	if from := r.Header.Get(cluster.ForwardedHeader); from != "" {
		// Hop guard: a forwarded request is never re-forwarded. Serve it
		// iff this node owns the key on the sender's view of the ring
		// (its ring minus its exclusions); anything else means the two
		// nodes' rings disagree, and bouncing the request onward would
		// loop — reject it instead.
		excluded := cluster.ParseExcluded(r.Header.Get(cluster.ExcludedHeader))
		owner, ok := s.ring.OwnerExcluding(key, excluded)
		if !ok || owner != s.peers.Self() {
			s.cluster.loopsRejected.Add(1)
			writeErr(w, http.StatusMisdirectedRequest,
				fmt.Errorf("serve: misrouted forward from %s: this node is not the key's owner (%q is)", from, owner))
			return true
		}
		s.cluster.servedForwarded.Add(1)
		// Echo the hop guard so forwards are observable end to end.
		w.Header().Set(cluster.ForwardedHeader, from)
		return false
	}
	if owner := s.ring.Owner(key); owner == s.peers.Self() {
		return false
	}
	relayed, shed := s.forward(r.Context(), activeOf(w), s.shardFor(tenant, sourceKey), key,
		r.URL.Path, r.Header.Get("Content-Type"), r.Header.Get("Accept"), body, func(resp *cluster.Response) {
			s.cluster.forwarded.Add(1)
			s.warmFromOwner(r.Context(), tenant, sourceKey, resp)
			relay(w, resp)
		})
	if shed != nil {
		writeShed(w, 1, shed)
		return true
	}
	if !relayed {
		// Every remote candidate failed (or exclusion walked ownership
		// back to this node): serve locally rather than failing the
		// request. Ownership guarantees degrade for this key until the
		// peers return; the counter makes the degradation visible.
		s.cluster.fallbackLocal.Add(1)
	}
	return relayed
}

// forward is the one relay of singles and batch sub-batches: it sends
// body to the ring owner of key and hands the owner's answer to
// answered, holding sh's admission slot throughout. Forwarding is cheap
// but not free — a blocked goroutine plus the buffered body and
// response — so an unbounded flood at a non-owner node must shed with
// 429 like any other over-admission, not accumulate in-flight forwards.
// Tenant quotas deliberately stay owner-side; this is the node-local
// resource bound only. The slot frees when forward returns, before a
// fallback-local serve re-acquires it through admission.
//
// The request's trace id travels ahead so the owner's spans join the
// same trace; the round trip is a forward span, with the owner's span
// summary (echoed in its response headers) stitched in. forward returns
// shed when the slot is full, and relayed false when every remote
// candidate failed: the caller then serves locally.
func (s *Server) forward(ctx context.Context, act *trace.Active, sh *shard, key, path, contentType, accept string, body []byte,
	answered func(*cluster.Response)) (relayed bool, shed error) {
	if !sh.acquire() {
		return false, fmt.Errorf("serve: shard queue full (limit %d requests in flight)", sh.admitLimit)
	}
	defer sh.release()
	var traceID string
	if act != nil {
		traceID = trace.FormatID(act.TraceID())
	}
	t0 := time.Now()
	resp, err := s.peers.Forward(ctx, s.ring, key, path, contentType, accept, traceID, body)
	if err != nil {
		act.Add(trace.SpanForward, t0, time.Since(t0), "fallback_local")
		return false, nil
	}
	act.Add(trace.SpanForward, t0, time.Since(t0), resp.Node)
	act.AddRemote(resp.Node, t0, trace.ParseWire(resp.Header.Get(cluster.SpanHeader)))
	s.cluster.forwardRetries.Add(int64(resp.Retries))
	answered(resp)
	return true, nil
}

// relayedHeaders are the owner-response headers a forwarder passes
// through to its client; everything the API documents plus the forward
// echo.
var relayedHeaders = []string{"Content-Type", CacheHeader, SetsKeyHeader, cluster.ForwardedHeader, "Retry-After"}

// relay writes a peer's answer — whatever it was, including 4xx/5xx:
// the owner's verdict (a quota 429, a 400) is the request's verdict.
func relay(w http.ResponseWriter, resp *cluster.Response) {
	for _, h := range relayedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// markBundleKey advertises the sample-set cache key on responses to
// forwarded requests (see SetsKeyHeader). Handlers call it once the key
// is known.
func (s *Server) markBundleKey(w http.ResponseWriter, key string) {
	if s.ring != nil && w.Header().Get(cluster.ForwardedHeader) != "" {
		w.Header().Set(SetsKeyHeader, key)
	}
}

// warmFromOwner copies the owner's tabulated bundle into the local
// cache after a successful forward: one (n, occ)-pair transfer over the
// wire codec instead of a local re-draw, so if the owner later fails
// this node serves the key's fallback traffic from warm cache. Warming
// is strictly best-effort — any miss, decode error, or disabled cache
// just skips it — and happens at most once per key (the local cache is
// checked first).
func (s *Server) warmFromOwner(ctx context.Context, tenant, sourceKey string, resp *cluster.Response) {
	key := resp.Header.Get(SetsKeyHeader)
	if resp.Status != http.StatusOK || !strings.HasPrefix(key, "sets|") {
		return
	}
	sh := s.shardFor(tenant, sourceKey)
	if sh.cache.capBytes <= 0 {
		return
	}
	if _, ok := sh.cache.get(key); ok {
		return
	}
	raw, err := s.peers.FetchBundle(ctx, resp.Node, key)
	if err != nil {
		return
	}
	// The cache drops a bundle bigger than its budget anyway, so the
	// decode stops at that budget before allocating past it.
	sets, err := dist.DecodeEmpiricalBundle(raw, s.cfg.MaxDomain, sh.cache.capBytes)
	if err != nil {
		return
	}
	sh.cache.put(key, sets, bundleBytes(sets))
	s.cluster.bundlesWarmed.Add(1)
}

// bundleRequest is the body of POST /v1/cluster/bundle.
type bundleRequest struct {
	Key string `json:"key"`
}

// handleBundle serves a cached sample-set bundle to a peer over the
// dist wire codec (cluster.BundlePath). 404 means "not cached here" —
// the peer treats it as a plain miss. Only sets| keys are served: 2D
// tabulations have no codec yet.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	body, done, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer done()
	var req bundleRequest
	if !s.decodeBytes(w, body, &req) {
		return
	}
	if !strings.HasPrefix(req.Key, "sets|") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bundle key %q is not a sample-set key", req.Key))
		return
	}
	for _, sh := range s.shards {
		v, ok := sh.cache.get(req.Key)
		if !ok {
			continue
		}
		sets, ok := v.([]*dist.Empirical)
		if !ok {
			continue
		}
		s.cluster.bundlesServed.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(dist.EncodeEmpiricalBundle(sets))
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("serve: bundle %q is not cached on this node", req.Key))
}

// ClusterStatsResponse is the body of GET /v1/cluster.
type ClusterStatsResponse struct {
	Enabled         bool     `json:"enabled"`
	Self            string   `json:"self,omitempty"`
	Peers           []string `json:"peers,omitempty"`
	Forwarded       int64    `json:"forwarded"`
	ForwardRetries  int64    `json:"forward_retries"`
	FallbackLocal   int64    `json:"fallback_local"`
	ServedForwarded int64    `json:"served_forwarded"`
	LoopsRejected   int64    `json:"loops_rejected"`
	BundlesServed   int64    `json:"bundles_served"`
	BundlesWarmed   int64    `json:"bundles_warmed"`
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	resp := ClusterStatsResponse{
		Forwarded:       s.cluster.forwarded.Load(),
		ForwardRetries:  s.cluster.forwardRetries.Load(),
		FallbackLocal:   s.cluster.fallbackLocal.Load(),
		ServedForwarded: s.cluster.servedForwarded.Load(),
		LoopsRejected:   s.cluster.loopsRejected.Load(),
		BundlesServed:   s.cluster.bundlesServed.Load(),
		BundlesWarmed:   s.cluster.bundlesWarmed.Load(),
	}
	if s.ring != nil {
		resp.Enabled = true
		resp.Self = s.peers.Self()
		resp.Peers = s.ring.Nodes()
	}
	writeJSON(w, "", resp)
}
