package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"khist/internal/stream"
)

// The streaming ingest plane. POST /v1/ingest feeds observation
// batches into per-(tenant, stream) bounded sketches
// (stream.TStream); /v1/learn, /v1/test/*, and /v1/batch items then
// name a stream as their source ({"source":{"stream":"id"}}), and the
// sketch's snapshot flows through the same resolve → tabulate →
// compute → cache pipeline synthetic sources use.
//
// Placement: a stream's routing key is tenant + "s|" + id — version-
// independent — so the ring owner and the shard that serve its reads
// are the same ones that accept its writes. The sketch exists only
// there; nothing merges across nodes on the serving path, which is
// what makes stream-backed responses byte-identical at any ring size
// (the sketch state is a pure function of the ingest batch sequence
// and the stream's identity-derived seed).
//
// Invalidation: every bundle key tabulated from a stream snapshot is
// recorded on the stream entry. An ingest batch bumps the version and
// retires those bundles from the stream's shard cache, which cascades
// into the response cache through the existing onEvict → deps index —
// so stale cached responses drop eagerly. As a backstop against
// in-flight races (and disabled bundle caches), response entries also
// record their stream version, and the hit path revalidates it against
// the live table before serving stored bytes.

// Stream-plane defaults: a few hundred bins track any realistic shape,
// 4096 reservoir slots keep small streams exact, and 1024 streams
// bound the table against id floods.
const (
	DefaultMaxStreams      = 1024
	DefaultStreamBuckets   = 256
	DefaultStreamReservoir = 4096
)

// maxStreamDeps bounds the bundle keys recorded per stream between
// version bumps. Keys past the bound are not recorded — their bundles
// then retire by LRU instead of eagerly, and the response-entry
// version check still prevents stale serves.
const maxStreamDeps = 1024

// tenantStream is one live stream: the sketch plus the bundle keys
// derived from its current version.
type tenantStream struct {
	tableKey   string // tenant + "\x00" + id, the version-lookup key
	tenant, id string
	sourceKey  string
	ts         *stream.TStream

	mu   sync.Mutex
	deps map[string]struct{}
}

// addDep records a bundle key tabulated from the stream's current
// snapshot, so the next version bump can retire it eagerly.
func (e *tenantStream) addDep(key string) {
	e.mu.Lock()
	if len(e.deps) < maxStreamDeps {
		e.deps[key] = struct{}{}
	}
	e.mu.Unlock()
}

// takeDeps returns and clears the recorded bundle keys.
func (e *tenantStream) takeDeps() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.deps) == 0 {
		return nil
	}
	keys := make([]string, 0, len(e.deps))
	for k := range e.deps {
		keys = append(keys, k)
	}
	e.deps = make(map[string]struct{})
	return keys
}

// streamTable holds every live stream, bounded by max.
type streamTable struct {
	mu        sync.Mutex
	max       int
	buckets   int
	reservoir int
	entries   map[string]*tenantStream
}

func newStreamTable(max, buckets, reservoir int) *streamTable {
	return &streamTable{
		max:       max,
		buckets:   buckets,
		reservoir: reservoir,
		entries:   make(map[string]*tenantStream),
	}
}

func streamTableKey(tenant, id string) string {
	return tenant + "\x00" + id
}

// get returns the live entry for (tenant, id), or nil.
func (st *streamTable) get(tenant, id string) *tenantStream {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries[streamTableKey(tenant, id)]
}

// getOrCreate returns the entry for (tenant, id), creating it with
// domain n on first ingest. The sketch seed derives from the stream's
// identity, never the host, so the same batches build the same sketch
// wherever the ring places the stream.
func (st *streamTable) getOrCreate(tenant, id string, n int) (*tenantStream, error) {
	key := streamTableKey(tenant, id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		return e, nil
	}
	if len(st.entries) >= st.max {
		return nil, fmt.Errorf("serve: stream table full (limit %d streams)", st.max)
	}
	ts, err := stream.NewTStream(n, st.buckets, st.reservoir, stream.SeedFor(tenant, id))
	if err != nil {
		return nil, err
	}
	e := &tenantStream{
		tableKey:  key,
		tenant:    tenant,
		id:        id,
		sourceKey: SourceSpec{Stream: id}.key(),
		ts:        ts,
		deps:      make(map[string]struct{}),
	}
	st.entries[key] = e
	return e, nil
}

// version returns the live version of the stream behind a tableKey.
func (st *streamTable) version(tableKey string) (uint64, bool) {
	st.mu.Lock()
	e := st.entries[tableKey]
	st.mu.Unlock()
	if e == nil {
		return 0, false
	}
	return e.ts.Version(), true
}

// count returns the number of live streams.
func (st *streamTable) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// sketchBytes sums the retained bytes across live sketches.
func (st *streamTable) sketchBytes() int64 {
	st.mu.Lock()
	entries := make([]*tenantStream, 0, len(st.entries))
	for _, e := range st.entries {
		entries = append(entries, e)
	}
	st.mu.Unlock()
	var b int64
	for _, e := range entries {
		b += e.ts.SizeBytes()
	}
	return b
}

// streamFresh reports whether a response-cache entry's stream
// provenance still matches the live table: entries with no stream
// provenance are always fresh (synthetic sources never go stale), and
// a stream entry is fresh only while the recorded version is current.
func (s *Server) streamFresh(tableKey string, version uint64) bool {
	if tableKey == "" {
		return true
	}
	v, ok := s.streams.version(tableKey)
	return ok && v == version
}

// IngestRequest is the body of POST /v1/ingest: one batch of
// observations for (tenant, stream) over the integer domain [0, n).
// The first batch creates the stream with that domain; later batches
// must repeat it.
type IngestRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Stream string `json:"stream"`
	N      int    `json:"n"`
	Values []int  `json:"values"`
}

// IngestResponse acknowledges an accepted batch with the stream's new
// version and cumulative count. Always JSON: acknowledgements are tiny
// and carry no float payload worth a binary encoding.
type IngestResponse struct {
	Stream  string `json:"stream"`
	Version uint64 `json:"version"`
	Count   int64  `json:"count"`
	N       int    `json:"n"`
}

// handleIngest is POST /v1/ingest. Batches pass the same front door as
// queries — bounded body read, cluster routing to the stream's ring
// owner, tenant quota, shard gate — then fold into the sketch, bump
// the version, and retire the superseded version's cached artifacts.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, done, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer done()
	var req IngestRequest
	if r.Header.Get("Content-Type") == BinaryContentType {
		if err := req.decodeBinary(body, s.cfg.MaxDomain); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else if !s.decodeBytes(w, body, &req) {
		return
	}
	if req.Stream == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: ingest batch names no stream"))
		return
	}
	if req.N < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: ingest batch needs a domain size n >= 1"))
		return
	}
	if req.N > s.cfg.MaxDomain {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("serve: domain size %d exceeds the server's -max-domain %d", req.N, s.cfg.MaxDomain))
		return
	}
	if len(req.Values) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: ingest batch carries no values"))
		return
	}
	sourceKey := SourceSpec{Stream: req.Stream}.key()
	if s.route(w, r, req.Tenant, sourceKey, body) {
		return
	}
	adm, retry, err := s.admit(req.Tenant, sourceKey)
	if err != nil {
		writeShed(w, retry, err)
		return
	}
	defer adm.release()
	ent, err := s.streams.getOrCreate(req.Tenant, req.Stream, req.N)
	if err != nil {
		writeShed(w, 1, err)
		return
	}
	if ent.ts.N() != req.N {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("serve: stream %q has domain size %d, batch says %d", req.Stream, ent.ts.N(), req.N))
		return
	}
	version, count, err := ent.ts.Ingest(req.Values)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The version just advanced: retire every bundle tabulated from the
	// superseded snapshot. Dropping the bundle cascades into the
	// response cache through the existing eviction hook; the direct
	// invalidateBundle call covers response entries whose bundle was
	// never cached (tiny or disabled bundle cache).
	for _, key := range ent.takeDeps() {
		s.respc.invalidateBundle(key)
		adm.sh.cache.remove(key)
	}
	s.ingestBatches.Add(1)
	s.ingestObs.Add(int64(len(req.Values)))
	writeJSON(w, "", IngestResponse{Stream: req.Stream, Version: version, Count: count, N: req.N})
}

// StreamInfo is one live stream's row in /v1/stats (ids are fine in
// stats JSON; only /metrics label cardinality is constrained).
type StreamInfo struct {
	Tenant      string `json:"tenant,omitempty"`
	Stream      string `json:"stream"`
	N           int    `json:"n"`
	Version     uint64 `json:"version"`
	Count       int64  `json:"count"`
	SketchBytes int64  `json:"sketch_bytes"`
}

// StreamPlaneStats is the streaming-ingest section of /v1/stats.
type StreamPlaneStats struct {
	Streams            int          `json:"streams"`
	MaxStreams         int          `json:"max_streams"`
	SketchBytes        int64        `json:"sketch_bytes"`
	IngestBatches      int64        `json:"ingest_batches"`
	IngestObservations int64        `json:"ingest_observations"`
	PerStream          []StreamInfo `json:"per_stream,omitempty"`
}

// streamStats assembles the stats section, rows sorted by (tenant, id)
// so the output is deterministic.
func (s *Server) streamStats() *StreamPlaneStats {
	st := s.streams
	st.mu.Lock()
	entries := make([]*tenantStream, 0, len(st.entries))
	for _, e := range st.entries {
		entries = append(entries, e)
	}
	st.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].tableKey < entries[j].tableKey })
	out := &StreamPlaneStats{
		Streams:            len(entries),
		MaxStreams:         st.max,
		IngestBatches:      s.ingestBatches.Load(),
		IngestObservations: s.ingestObs.Load(),
	}
	for _, e := range entries {
		b := e.ts.SizeBytes()
		out.SketchBytes += b
		out.PerStream = append(out.PerStream, StreamInfo{
			Tenant:      e.tenant,
			Stream:      e.id,
			N:           e.ts.N(),
			Version:     e.ts.Version(),
			Count:       e.ts.Count(),
			SketchBytes: b,
		})
	}
	return out
}
