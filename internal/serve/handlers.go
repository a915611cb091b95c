package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"khist/internal/collision"
	"khist/internal/dist"
	"khist/internal/grid"
	"khist/internal/histtest"
	"khist/internal/learn"
	"khist/internal/obs"
	"khist/internal/obs/trace"
	"khist/internal/par"
)

// CacheHeader is the response header carrying the cache status of the
// request's tabulation: "rhit" (served whole from the response-byte
// cache), "hit", "miss", or "coalesced". It is a header rather than a
// body field so bodies stay byte-identical across paths.
const CacheHeader = "X-Khist-Cache"

// Content types of the algorithm endpoints. JSON is the default both
// ways; a request whose Content-Type is BinaryContentType is decoded
// with the delta-varint wire codec (see bincodec.go), and a request
// whose Accept is BinaryContentType gets its response encoded the same
// way — the forwarder relays both headers, so cluster-internal and
// high-volume clients can skip JSON entirely.
const (
	jsonContentType   = "application/json"
	BinaryContentType = "application/x-khist-bin"
)

// Endpoint names: metrics labels, response-cache key prefixes, and the
// op names of /v1/batch items.
const (
	epLearn   = "learn"
	epTestL2  = "test_l2"
	epTestL1  = "test_l1"
	epLearn2D = "learn2d"
	epIngest  = "ingest"
)

// LearnRequest is the body of POST /v1/learn.
type LearnRequest struct {
	// Tenant is the routing key: requests sharing (tenant, source) land
	// on one shard and share its cache and pool.
	Tenant string     `json:"tenant,omitempty"`
	Source SourceSpec `json:"source"`
	// K and Eps are the paper's parameters (pieces to compete against,
	// accuracy).
	K   int     `json:"k"`
	Eps float64 `json:"eps"`
	// Scale multiplies the paper's sample-size formulas (0 = 1).
	Scale float64 `json:"scale,omitempty"`
	// Cap bounds each sample set's size (0 = none).
	Cap int `json:"cap,omitempty"`
	// Seed determines the drawn sample sets; it is part of the cache
	// key, so equal (source, seed, budget) requests share one draw.
	Seed int64 `json:"seed"`
	// Full selects the O(n^2)-scan Algorithm 1 over the fast variant.
	Full bool `json:"full,omitempty"`
}

// LearnResponse is the body of a successful /v1/learn call.
type LearnResponse struct {
	N                 int       `json:"n"`
	K                 int       `json:"k"`
	Bounds            []int     `json:"bounds"`
	Values            []float64 `json:"values"`
	Pieces            int       `json:"pieces"`
	SamplesUsed       int64     `json:"samples_used"`
	Iterations        int       `json:"iterations"`
	CandidatesScanned int64     `json:"candidates_scanned"` // candidates compared: iterations x candidate intervals
	Ell               int       `json:"ell"`
	R                 int       `json:"r"`
	M                 int       `json:"m"`
}

// TestRequest is the body of POST /v1/test/l2 and /v1/test/l1.
type TestRequest struct {
	Tenant string     `json:"tenant,omitempty"`
	Source SourceSpec `json:"source"`
	K      int        `json:"k"`
	Eps    float64    `json:"eps"`
	Scale  float64    `json:"scale,omitempty"`
	Cap    int        `json:"cap,omitempty"`
	Seed   int64      `json:"seed"`
}

// IntervalJSON is a half-open domain interval in a response body.
type IntervalJSON struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// TestResponse is the body of a successful tester call.
type TestResponse struct {
	Accept        bool           `json:"accept"`
	Norm          string         `json:"norm"`
	Partition     []IntervalJSON `json:"partition"`
	SamplesUsed   int64          `json:"samples_used"`
	FlatnessCalls int            `json:"flatness_calls"`
	R             int            `json:"r"`
	M             int            `json:"m"`
}

// Learn2DRequest is the body of POST /v1/learn2d.
type Learn2DRequest struct {
	Tenant string       `json:"tenant,omitempty"`
	Source Source2DSpec `json:"source"`
	K      int          `json:"k"`
	Eps    float64      `json:"eps"`
	// Samples overrides the number of tabulated draws (0 = 200*K/Eps).
	Samples int `json:"samples,omitempty"`
	// MaxCoords caps the per-axis candidate coordinates (0 = 48; 1 and
	// negative values are rejected).
	MaxCoords int   `json:"max_coords,omitempty"`
	Seed      int64 `json:"seed"`
}

// RectJSON is one painted rectangle of a 2D response, in paint order.
type RectJSON struct {
	X0    int     `json:"x0"`
	Y0    int     `json:"y0"`
	X1    int     `json:"x1"`
	Y1    int     `json:"y1"`
	Value float64 `json:"value"`
}

// Learn2DResponse is the body of a successful /v1/learn2d call.
type Learn2DResponse struct {
	Rows              int        `json:"rows"`
	Cols              int        `json:"cols"`
	K                 int        `json:"k"`
	Rects             []RectJSON `json:"rects"`
	SamplesUsed       int64      `json:"samples_used"`
	Iterations        int        `json:"iterations"`
	CandidatesScanned int64      `json:"candidates_scanned"`
}

// respEncoder is a successful algorithm response: JSON-marshalable, and
// able to render itself in the binary wire encoding.
type respEncoder interface {
	appendBinary(buf []byte) []byte
}

// execOut is the per-execution metadata an exec closure reports back:
// the parent tabulated-bundle cache key, the tabulation cache status,
// and — for stream-backed sources — the provenance the response cache
// records (which stream, at which version). It is returned by value
// because prepared values are shared across requests through the batch
// plan cache: per-request state must never be stored on the closure.
type execOut struct {
	bundleKey string
	status    string
	// streamKey is the stream table key ("" for generator sources);
	// streamVersion is the snapshot version this execution resolved.
	streamKey     string
	streamVersion uint64
}

// prepared is one decoded algorithm request: the routing keys the
// cluster ring and admission front door need, plus an exec closure that
// runs resolution, tabulation, and the algorithm on an admitted shard.
// Decoding is split from execution so the single-request handlers, the
// batch endpoint, and both request encodings share one compute path.
type prepared struct {
	tenant    string
	sourceKey string
	// exec returns the response and its execution metadata; on error,
	// code is the HTTP status to report. act, when set, collects the
	// request's spans.
	exec func(ctx context.Context, act *trace.Active, sh *shard) (resp respEncoder, out execOut, code int, err error)
}

// decodeFunc parses a request body (JSON, or the binary wire encoding
// when bin is set) into a prepared request. Decode errors are 400s.
type decodeFunc func(s *Server, body []byte, bin bool) (*prepared, error)

// algoEndpoints maps endpoint/batch-op names to their decoders; the
// batch handler resolves item ops through it.
var algoEndpoints = map[string]decodeFunc{
	epLearn:   decodeLearn,
	epTestL2:  decodeTestNorm("l2"),
	epTestL1:  decodeTestNorm("l1"),
	epLearn2D: decodeLearn2D,
}

func decodeLearn(s *Server, body []byte, bin bool) (*prepared, error) {
	var req LearnRequest
	if bin {
		if err := req.decodeBinary(body, s.cfg.MaxDomain); err != nil {
			return nil, err
		}
	} else if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	src, err := s.sourceFor(req.Tenant, req.Source)
	if err != nil {
		return nil, err
	}
	return &prepared{
		tenant:    req.Tenant,
		sourceKey: src.Key(),
		exec: func(ctx context.Context, act *trace.Active, sh *shard) (respEncoder, execOut, int, error) {
			opts := learn.Options{
				K: req.K, Eps: req.Eps,
				SampleScale:      req.Scale,
				MaxSamplesPerSet: s.sampleCap(req.Cap),
				Parallelism:      s.cfg.WorkersPerShard,
			}
			n, sets, out, code, err := s.bundle(ctx, act, sh, src, req.K, req.Seed, opts.SetSizes)
			if err != nil {
				return nil, out, code, err
			}
			// The cost table depends on the bundle and the scan mode only,
			// so learns on one bundle that differ in k or eps share it.
			table, _, err := sh.learnTable(ctx, act, out.bundleKey, req.Full, func() (any, int64, error) {
				tab, err := learn.NewTable(n, sets[0], sets[1:], !req.Full, s.cfg.WorkersPerShard)
				if err != nil {
					return nil, 0, unprocessable{err}
				}
				return tab, tab.SizeBytes(), nil
			})
			if err != nil {
				code := http.StatusInternalServerError
				if errors.As(err, new(unprocessable)) {
					code = http.StatusUnprocessableEntity
				}
				return nil, out, code, err
			}

			var res *learn.Result
			if rerr := sh.run(act, func() {
				res, err = table.(*learn.Table).Run(opts)
			}); rerr != nil {
				return nil, out, http.StatusInternalServerError, rerr
			}
			if err != nil {
				return nil, out, http.StatusUnprocessableEntity, err
			}
			return &LearnResponse{
				N:                 n,
				K:                 req.K,
				Bounds:            res.Tiling.Bounds(),
				Values:            res.Tiling.Values(),
				Pieces:            res.Tiling.Pieces(),
				SamplesUsed:       res.SamplesUsed,
				Iterations:        res.Iterations,
				CandidatesScanned: res.CandidatesScanned,
				Ell:               res.Ell,
				R:                 res.R,
				M:                 res.M,
			}, out, 0, nil
		},
	}, nil
}

// unprocessable marks an algorithm's rejection of its input, a 422, as
// it crosses the shard's flight group, whose own failures are 500s.
type unprocessable struct{ error }

// bundle is the learner's and the testers' shared first step: resolve
// src, check k against its domain size n, size the sample sets with
// size(n), and fetch or draw the (ell, r x m) bundle through the shard
// cache, recording a stream source's dependency on it. out carries what
// the response cache records; on error, code is the HTTP status.
func (s *Server) bundle(ctx context.Context, act *trace.Active, sh *shard, src Source, k int, seed int64,
	size func(n int) (ell, r, m int, err error)) (n int, sets []*dist.Empirical, out execOut, code int, err error) {
	rs, err := src.Resolve()
	if err != nil {
		return 0, nil, out, http.StatusBadRequest, err
	}
	d := rs.d
	if k > d.N() {
		return 0, nil, out, http.StatusBadRequest, fmt.Errorf("serve: k=%d exceeds domain size %d", k, d.N())
	}
	ell, r, m, err := size(d.N())
	if err != nil {
		return 0, nil, out, http.StatusBadRequest, err
	}
	key := setsKey(rs.fp, seed, ell, r, m)
	out.bundleKey = key
	v, status, err := sh.tabulated(ctx, act, key, func() (any, int64) {
		return sh.drawSets(d, key, seed, ell, r, m, s.cfg.WorkersPerShard)
	})
	out.status = status
	if err != nil {
		return 0, nil, out, http.StatusInternalServerError, err
	}
	if rs.stream != nil {
		// Record after tabulation so the next version bump sees the
		// bundle in cache; the response entry's version check covers the
		// bump-during-tabulation window.
		rs.stream.addDep(key)
		out.streamKey = rs.stream.tableKey
		out.streamVersion = rs.version
	}
	return d.N(), v.([]*dist.Empirical), out, 0, nil
}

func decodeTestNorm(norm string) decodeFunc {
	op := opTestL2
	if norm == "l1" {
		op = opTestL1
	}
	return func(s *Server, body []byte, bin bool) (*prepared, error) {
		var req TestRequest
		if bin {
			if err := req.decodeBinaryOp(body, op, s.cfg.MaxDomain); err != nil {
				return nil, err
			}
		} else if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		src, err := s.sourceFor(req.Tenant, req.Source)
		if err != nil {
			return nil, err
		}
		return &prepared{
			tenant:    req.Tenant,
			sourceKey: src.Key(),
			exec: func(ctx context.Context, act *trace.Active, sh *shard) (respEncoder, execOut, int, error) {
				opts := histtest.Options{
					K: req.K, Eps: req.Eps,
					SampleScale:      req.Scale,
					MaxSamplesPerSet: s.sampleCap(req.Cap),
					Parallelism:      s.cfg.WorkersPerShard,
				}
				// ell = 0: the testers draw only collision sets. The key still
				// shares a namespace with /v1/learn, so a learner and tester
				// with identical budgets share one draw.
				n, sets, out, code, err := s.bundle(ctx, act, sh, src, req.K, req.Seed, func(n int) (int, int, int, error) {
					if norm == "l2" {
						r, m, err := opts.PlanL2(n)
						return 0, r, m, err
					}
					r, m, err := opts.PlanL1(n)
					return 0, r, m, err
				})
				if err != nil {
					return nil, out, code, err
				}

				var res *histtest.Result
				if rerr := sh.run(act, func() {
					if norm == "l2" {
						res, err = histtest.TestTilingL2FromSets(sets, n, opts)
					} else {
						res, err = histtest.TestTilingL1FromSets(sets, n, opts)
					}
				}); rerr != nil {
					return nil, out, http.StatusInternalServerError, rerr
				}
				if err != nil {
					return nil, out, http.StatusUnprocessableEntity, err
				}
				partition := make([]IntervalJSON, len(res.Partition))
				for i, iv := range res.Partition {
					partition[i] = IntervalJSON{Lo: iv.Lo, Hi: iv.Hi}
				}
				return &TestResponse{
					Accept:        res.Accept,
					Norm:          norm,
					Partition:     partition,
					SamplesUsed:   res.SamplesUsed,
					FlatnessCalls: res.FlatnessCalls,
					R:             res.R,
					M:             res.M,
				}, out, 0, nil
			},
		}, nil
	}
}

func decodeLearn2D(s *Server, body []byte, bin bool) (*prepared, error) {
	var req Learn2DRequest
	if bin {
		if err := req.decodeBinary(body, s.cfg.MaxDomain); err != nil {
			return nil, err
		}
	} else if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	return &prepared{
		tenant:    req.Tenant,
		sourceKey: req.Source.key(),
		exec: func(ctx context.Context, act *trace.Active, sh *shard) (respEncoder, execOut, int, error) {
			var out execOut
			g, err := s.resolveSource2D(req.Source)
			if err != nil {
				return nil, out, http.StatusBadRequest, err
			}
			opts := grid.Options2D{
				Rows: g.Rows(), Cols: g.Cols(),
				K: req.K, Eps: req.Eps,
				Samples:     req.Samples,
				MaxCoords:   req.MaxCoords,
				Parallelism: s.cfg.WorkersPerShard,
			}
			if err := opts.Validate(); err != nil {
				return nil, out, http.StatusBadRequest, err
			}
			if req.K > g.Rows()*g.Cols() {
				return nil, out, http.StatusBadRequest, fmt.Errorf("serve: k=%d exceeds grid size %d", req.K, g.Rows()*g.Cols())
			}
			// Clamp the draw count to the server ceiling (covers both an explicit
			// request override and a huge K/Eps-derived default).
			m := opts.SampleSize()
			if m > s.cfg.MaxSamplesPerSet {
				m = s.cfg.MaxSamplesPerSet
			}
			opts.Samples = m

			flat := g.Flatten()
			key := fmt.Sprintf("sets2d|%dx%d|fp=%016x|seed=%d|m=%d", g.Rows(), g.Cols(), flat.Fingerprint(), req.Seed, m)
			out.bundleKey = key
			bundle, status, err := sh.tabulated(ctx, act, key, func() (any, int64) {
				// The fork seeded with req.Seed draws the sampler's own
				// stream, par.NewRand(req.Seed), word for word.
				sampler := dist.NewSampler(flat, par.NewRand(uint64(req.Seed))).(dist.Forkable)
				sh.samplesDrawn.Add(int64(m))
				emp, err := grid.NewEmpirical2DFromCounts(g.Rows(), g.Cols(), dist.NewEmpiricalFromFork(sampler, uint64(req.Seed), m))
				if err != nil {
					// The set is drawn over the same grid, so this is
					// unreachable; surface it as an empty tabulation.
					emp, _ = grid.NewEmpirical2D(g.Rows(), g.Cols(), nil)
				}
				return emp, emp.SizeBytes()
			})
			out.status = status
			if err != nil {
				return nil, out, http.StatusInternalServerError, err
			}
			emp := bundle.(*grid.Empirical2D)

			var res *grid.Result2D
			if rerr := sh.run(act, func() {
				res, err = grid.Greedy2DFromTabulated(emp, opts)
			}); rerr != nil {
				return nil, out, http.StatusInternalServerError, rerr
			}
			if err != nil {
				return nil, out, http.StatusUnprocessableEntity, err
			}
			entries := res.Hist.Entries()
			rects := make([]RectJSON, len(entries))
			for i, e := range entries {
				rects[i] = RectJSON{X0: e.R.X0, Y0: e.R.Y0, X1: e.R.X1, Y1: e.R.Y1, Value: e.V}
			}
			return &Learn2DResponse{
				Rows:              g.Rows(),
				Cols:              g.Cols(),
				K:                 req.K,
				Rects:             rects,
				SamplesUsed:       res.SamplesUsed,
				Iterations:        res.Iterations,
				CandidatesScanned: res.CandidatesScanned,
			}, out, 0, nil
		},
	}, nil
}

// handleAlgo is the single-request handler of the four algorithm
// endpoints. A response-cache hit routes on the entry's stored keys and
// skips decoding; a miss decodes, then routes. A request this node
// serves runs the local pipeline (serveLocal) that batch items run too.
func (s *Server) handleAlgo(ep string, dec decodeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, done, ok := s.readBody(w, r)
		if !ok {
			return
		}
		defer done()
		act := activeOf(w)
		binReq := r.Header.Get("Content-Type") == BinaryContentType
		binResp := wantsBinary(r, binReq)
		var p *prepared
		e := s.cached(act, ep, binResp, body)
		if e != nil {
			// The entry's routing keys were decoded from these exact body
			// bytes when it was built, so the full admission front door
			// (ring ownership, tenant quota, shard gate) runs without a
			// JSON parse.
			if s.route(w, r, e.tenant, e.sourceKey, body) {
				return
			}
		} else {
			st := act.Begin(trace.SpanDecode)
			var err error
			p, err = dec(s, body, binReq)
			st.End("")
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			if s.route(w, r, p.tenant, p.sourceKey, body) {
				return
			}
		}
		s.writeOutcome(w, s.serveLocal(r.Context(), act, ep, binResp, body, e, p))
	}
}

var nlByte = []byte{'\n'}

// wantsBinary decides the response encoding: an explicit Accept wins;
// with no Accept (or a wildcard), a binary request gets a binary
// response and everything else gets JSON.
func wantsBinary(r *http.Request, binReq bool) bool {
	switch r.Header.Get("Accept") {
	case BinaryContentType:
		return true
	case "", "*/*":
		return binReq
	default:
		return false
	}
}

// cached looks body up in the response cache under ep and the response
// encoding, recording the lookup as the request's rcache span. A
// stream-backed entry whose stream moved past the version it recorded
// is a miss: the backstop for an entry put after a version bump's eager
// invalidation.
func (s *Server) cached(act *trace.Active, ep string, binResp bool, body []byte) *respEntry {
	st := act.Begin(trace.SpanRCache)
	e := s.respc.get(ep, binResp, body)
	if e != nil && !s.streamFresh(e.streamKey, e.streamVersion) {
		e = nil
	}
	note := StatusMiss
	if e != nil {
		note = StatusRespHit
	}
	st.End(note)
	return e
}

// outcome is what the local pipeline made of one request: its status,
// with the Retry-After hint of a shed and the error of any failure;
// otherwise the body in contentType with its X-Khist-Cache status. The
// bundle key names the sample sets a computed or cached body came from.
type outcome struct {
	status      int
	retryAfter  int
	err         error
	cache       string
	contentType string
	body        []byte
	bundleKey   string
}

// serveLocal is the one local pipeline of the algorithm endpoints,
// shared by single requests and batch items: admission on the request's
// routing keys, then either the stored bytes of the response-cache hit
// e, or, on a miss (e nil), p's exec, the encode, and the response-cache
// put of the bytes under (ep, binResp, body) for the next identical
// query, single or batched. Admission is released when it returns.
func (s *Server) serveLocal(ctx context.Context, act *trace.Active, ep string, binResp bool, body []byte, e *respEntry, p *prepared) outcome {
	var tenant, sourceKey string
	if e != nil {
		tenant, sourceKey = e.tenant, e.sourceKey
	} else {
		tenant, sourceKey = p.tenant, p.sourceKey
	}
	st := act.Begin(trace.SpanAdmit)
	adm, retry, err := s.admit(tenant, sourceKey)
	st.End("")
	if err != nil {
		return outcome{status: http.StatusTooManyRequests, retryAfter: retry, err: err}
	}
	defer adm.release()
	if e != nil {
		return outcome{status: http.StatusOK, cache: StatusRespHit, contentType: e.contentType, body: e.body, bundleKey: e.bundleKey}
	}
	resp, out, code, err := p.exec(ctx, act, adm.sh)
	if err != nil {
		return outcome{status: code, err: err}
	}
	st = act.Begin(trace.SpanEncode)
	enc, ct, err := encodeResp(resp, binResp)
	st.End("")
	if err != nil {
		return outcome{status: http.StatusInternalServerError, err: err, bundleKey: out.bundleKey}
	}
	s.respc.put(ep, binResp, body, &respEntry{
		tenant:        p.tenant,
		sourceKey:     p.sourceKey,
		bundleKey:     out.bundleKey,
		streamKey:     out.streamKey,
		streamVersion: out.streamVersion,
		contentType:   ct,
		body:          enc,
	})
	return outcome{status: http.StatusOK, cache: out.status, contentType: ct, body: enc, bundleKey: out.bundleKey}
}

// writeOutcome answers a single request: the uniform error body (with
// Retry-After on a shed), or the body in its content type with its cache
// status and, for JSON, the wire newline the stored (batch-embeddable)
// bytes omit. A forwarded request's answer also names its bundle.
func (s *Server) writeOutcome(w http.ResponseWriter, o outcome) {
	if o.bundleKey != "" {
		s.markBundleKey(w, o.bundleKey)
	}
	if o.err != nil {
		if o.status == http.StatusTooManyRequests {
			writeShed(w, o.retryAfter, o.err)
		} else {
			writeErr(w, o.status, o.err)
		}
		return
	}
	w.Header().Set("Content-Type", o.contentType)
	if o.cache != "" {
		w.Header().Set(CacheHeader, o.cache)
	}
	w.Write(o.body)
	if o.contentType == jsonContentType {
		w.Write(nlByte)
	}
}

// encodeResp renders a successful response in the negotiated encoding,
// without the trailing wire newline (JSON only; callers append it).
func encodeResp(resp respEncoder, binary bool) ([]byte, string, error) {
	if binary {
		return resp.appendBinary(nil), BinaryContentType, nil
	}
	enc, err := jsonMarshal(resp)
	if err != nil {
		return nil, "", err
	}
	return enc, jsonContentType, nil
}

// ShardStats is one shard's counters in a /v1/stats response. InFlight
// is the shard's currently admitted requests (executing plus waiting
// for a pool worker), QueueDepth the subset actually waiting on the
// pool right now, and Shed the requests refused at the shard gate.
type ShardStats struct {
	Shard        int   `json:"shard"`
	Requests     int64 `json:"requests"`
	InFlight     int64 `json:"in_flight"`
	QueueDepth   int   `json:"queue_depth"`
	Shed         int64 `json:"shed"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Coalesced    int64 `json:"coalesced"`
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// Cache byte flow: bytes served on hits, bytes accepted on puts, and
	// evictions with the bytes they reclaimed.
	CacheHitBytes      int64 `json:"cache_hit_bytes"`
	CacheInsertedBytes int64 `json:"cache_inserted_bytes"`
	CacheEvictions     int64 `json:"cache_evictions"`
	CacheEvictedBytes  int64 `json:"cache_evicted_bytes"`
	// Learner cost tables, attached to their cached bundles: fills, hits
	// and coalesced waits, and the bytes held (a part of CacheBytes).
	LearnTableFills     int64 `json:"learn_table_fills"`
	LearnTableHits      int64 `json:"learn_table_hits"`
	LearnTableCoalesced int64 `json:"learn_table_coalesced"`
	LearnTableBytes     int64 `json:"learn_table_bytes"`
	// The sample plane: bundle misses that built at least one set from
	// a cached sibling bundle's set instead of drawing it afresh, and
	// the samples the shard's bundle misses drew (a derived set counts
	// only the draws between its sibling's size and its own).
	BundlesDerived int64 `json:"bundles_derived"`
	SamplesDrawn   int64 `json:"samples_drawn"`
}

// StatsResponse is the body of GET /v1/stats. Requests counts admitted
// requests only; Shed counts shard-gate refusals, and the per-tenant
// rate/concurrency sheds live in Tenants.
type StatsResponse struct {
	Shards             int   `json:"shards"`
	WorkersPerShard    int   `json:"workers_per_shard"`
	CacheBytesCap      int64 `json:"cache_bytes_cap"`
	CacheBytesPerShard int64 `json:"cache_bytes_per_shard"`
	MaxQueuePerShard   int   `json:"max_queue_per_shard"`
	// UptimeSeconds is the time since the Server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Shed          int64   `json:"shed"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	Coalesced     int64   `json:"coalesced"`
	// UntrackedTenantRequests counts requests served on ephemeral quota
	// states because the tenant table was hard-full (every unconfigured
	// state busy): sustained growth means a tenant-name flood.
	UntrackedTenantRequests int64         `json:"untracked_tenant_requests,omitempty"`
	PerShard                []ShardStats  `json:"per_shard"`
	Tenants                 []TenantStats `json:"tenants,omitempty"`
	// ResponseCache is the response-byte cache's aggregate counters
	// (present when the cache has a byte budget).
	ResponseCache *RespCacheStats `json:"response_cache,omitempty"`
	// PlanCache is the batch plan cache's lookups and counters (present
	// when it has a byte budget, a quarter of the response cache's), and
	// SourceCache the source registry's cache counters.
	PlanCache   *PlanCacheStats `json:"plan_cache,omitempty"`
	SourceCache *CacheCoreStats `json:"source_cache,omitempty"`
	// Latency is the latest dogfooded latency snapshot: request latency
	// sketched by internal/stream and summarized into a k-histogram by
	// the repo's own v-optimal learner (metrics plane enabled and at
	// least one snapshot window elapsed).
	Latency *obs.LatencySnapshot `json:"latency,omitempty"`
	// Streams is the streaming-ingest plane: live stream count, sketch
	// bytes, ingest counters, and per-stream rows.
	Streams *StreamPlaneStats `json:"streams,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Shards:                  len(s.shards),
		WorkersPerShard:         s.cfg.WorkersPerShard,
		CacheBytesCap:           s.cfg.CacheBytes,
		CacheBytesPerShard:      s.perShardCache,
		MaxQueuePerShard:        s.cfg.MaxQueuePerShard,
		UptimeSeconds:           time.Since(s.start).Seconds(),
		UntrackedTenantRequests: s.quotas.untracked.Load(),
		Tenants:                 s.quotas.stats(),
	}
	if s.metrics != nil {
		resp.Latency = s.metrics.latency.Latest()
	}
	resp.Streams = s.streamStats()
	if s.cfg.ResponseCacheBytes > 0 {
		st := s.respc.stats()
		st.BytesCap = s.cfg.ResponseCacheBytes
		st.BytesPerPart = s.perPartRespCache
		resp.ResponseCache = &st
	}
	if s.plans.capBytes > 0 {
		resp.PlanCache = &PlanCacheStats{Hits: s.planHits.Load(), Misses: s.planMisses.Load(), CacheCoreStats: s.plans.coreStats()}
	}
	sources := s.sources.group.cache.coreStats()
	resp.SourceCache = &sources
	for i, sh := range s.shards {
		entries, bytes := sh.cache.stats()
		hitB, insB, ev, evB := sh.cache.flowStats()
		st := ShardStats{
			Shard:               i,
			Requests:            sh.requests.Load(),
			InFlight:            sh.inflight.Load(),
			QueueDepth:          sh.pool.Pending(),
			Shed:                sh.shed.Load(),
			CacheHits:           sh.bundles.hits.Load(),
			CacheMisses:         sh.bundles.misses.Load(),
			Coalesced:           sh.bundles.coalesced.Load(),
			CacheEntries:        entries,
			CacheBytes:          bytes,
			CacheHitBytes:       hitB,
			CacheInsertedBytes:  insB,
			CacheEvictions:      ev,
			CacheEvictedBytes:   evB,
			LearnTableFills:     sh.tables.misses.Load(),
			LearnTableHits:      sh.tables.hits.Load(),
			LearnTableCoalesced: sh.tables.coalesced.Load(),
			LearnTableBytes:     sh.cache.attachedStats(),
			BundlesDerived:      sh.derived.Load(),
			SamplesDrawn:        sh.samplesDrawn.Load(),
		}
		resp.Requests += st.Requests
		resp.Shed += st.Shed
		resp.CacheHits += st.CacheHits
		resp.CacheMisses += st.CacheMisses
		resp.Coalesced += st.Coalesced
		resp.PerShard = append(resp.PerShard, st)
	}
	writeJSON(w, "", resp)
}

// setsKey is the sample-set cache key: source fingerprint, draw seed, and
// the full budget profile (ell weight samples, r collision sets of m).
// Its prefix up to the sizes is the bundle's family (see setsFamily).
func setsKey(fp uint64, seed int64, ell, r, m int) string {
	return fmt.Sprintf("sets|fp=%016x|seed=%d|sizes=%d:%d:%d", fp, seed, ell, r, m)
}

// setsFamily returns the family of a sample-set key, its prefix
// "sets|fp=…|seed=…": every bundle drawn on one (source, seed), which
// draws its set i from the stream par.Split(seed, i) whatever its sizes.
// It returns "" for any other key.
func setsFamily(key string) string {
	if !strings.HasPrefix(key, "sets|") {
		return ""
	}
	i := strings.LastIndex(key, "|sizes=")
	if i < 0 {
		return ""
	}
	return key[:i]
}

// drawSets draws the (ell, r x m) sample-set bundle for d that is cached
// under key, through the batched sample plane. The bundle is a pure
// function of (d, seed, ell, r, m): streams are split per set from the
// seed, so the worker count never changes the draws — the root of the
// serving plane's cold/cached/coalesced equivalence. Set i of every
// bundle of the key's family is drawn from the same stream, so each set
// is built from the cached sibling set nearest it (nearestSets) when
// that draws fewer samples, and equals a fresh draw either way.
func (sh *shard) drawSets(d *dist.Distribution, key string, seed int64, ell, r, m, workers int) (any, int64) {
	sampler := dist.NewSampler(d, par.NewRand(uint64(seed)))
	var sizes []int
	if ell > 0 {
		sizes = append(sizes, ell)
	}
	for i := 0; i < r; i++ {
		sizes = append(sizes, m)
	}
	sets, drawn := collision.CollectSetsNear(sampler, sizes, workers, uint64(seed), sh.nearestSets(setsFamily(key), sizes))
	sh.samplesDrawn.Add(drawn)
	if drawn < int64(ell+r*m) {
		// A set drawn afresh draws its full size and a derived one less.
		sh.derived.Add(1)
	}
	return sets, bundleBytes(sets)
}

// maxSiblings bounds the cached bundles a miss scans for its nearest
// sets, the newest of its family: a session's walk has a handful, and a
// client that walks one seed through thousands of caps must not make
// every miss scan them all.
const maxSiblings = 16

// nearestSets picks, for each set index i, the set i of the family's
// newest cached bundles from which a derivation to sizes[i] draws the
// fewest samples (dist.Empirical.DeriveDraws), or nil where none draws
// fewer than a fresh draw. The family lookup is no cache hit.
func (sh *shard) nearestSets(family string, sizes []int) []*dist.Empirical {
	siblings := sh.cache.family(family, maxSiblings)
	if len(siblings) == 0 {
		return nil
	}
	near := make([]*dist.Empirical, len(sizes))
	for i, m := range sizes {
		best := m
		for _, v := range siblings {
			if sets, ok := v.([]*dist.Empirical); ok && i < len(sets) {
				if k := sets[i].DeriveDraws(m); k < best {
					best, near[i] = k, sets[i]
				}
			}
		}
	}
	return near
}

// bundleBytes is the accounted size of a sample-set bundle: its sets
// and the slice that holds them.
func bundleBytes(sets []*dist.Empirical) int64 {
	bytes := int64(unsafe.Sizeof(sets)) + int64(cap(sets))*int64(unsafe.Sizeof(sets[0]))
	for _, e := range sets {
		bytes += e.SizeBytes()
	}
	return bytes
}

// bodyBufPool recycles the request-body buffers: the hot path reads
// every body through it, so steady-state serving allocates no per-
// request read buffer.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody buffers the request body through the MaxBodyBytes cap into a
// pooled buffer, so a request cannot allocate unboundedly before
// admission is decided: overflow is a 413, reported before any source
// resolution or sampling happens. The raw bytes are kept because a
// cluster forward relays them verbatim (re-encoding a decoded request
// could reorder fields and break the byte-identity contract between
// direct and forwarded calls) and because they are the response cache's
// content address. done returns the buffer to the pool; the body slice
// must not be retained past it — everything that outlives the handler
// (cache keys, decoded requests, forwarded copies) copies what it keeps.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, done func(), ok bool) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		bodyBufPool.Put(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds the server's -max-body-bytes %d", s.cfg.MaxBodyBytes))
			return nil, nil, false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return nil, nil, false
	}
	return buf.Bytes(), func() { bodyBufPool.Put(buf) }, true
}

// decodeStrict parses a JSON body strictly (unknown fields are errors,
// catching misspelled parameters before they silently default). Nothing
// in dst aliases body after it returns: encoding/json copies strings
// and slices, so pooled body buffers stay safe to recycle.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// decodeBytes parses a JSON request body strictly, writing the 400
// itself on failure.
func (s *Server) decodeBytes(w http.ResponseWriter, body []byte, dst any) bool {
	if err := decodeStrict(body, dst); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// writeShed answers a load-shed request: 429 with a Retry-After hint
// (seconds). Shedding happens before any compute, so the body is the
// uniform error shape — admitted requests are the only ones whose
// bodies carry algorithm output.
func writeShed(w http.ResponseWriter, retryAfter int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeErr(w, http.StatusTooManyRequests, err)
}

// jsonMarshal is the response-marshalling seam: production is
// json.Marshal; tests swap it to exercise the writeErr fallback, since
// marshalling a plain string field cannot otherwise fail.
var jsonMarshal = json.Marshal

// writeErr writes the uniform JSON error body. If marshalling the error
// itself fails, it falls back to a plain-text body rather than emitting
// an empty 4xx/5xx payload — an error response always carries the
// message, whatever the encoder thought of it.
func writeErr(w http.ResponseWriter, code int, err error) {
	body, merr := jsonMarshal(errorResponse{Error: err.Error()})
	if merr != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		io.WriteString(w, err.Error()+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// writeJSON writes a 200 response with the cache-status header (when the
// request went through the tabulation cache) and the marshalled body.
func writeJSON(w http.ResponseWriter, cacheStatus string, body any) {
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set(CacheHeader, cacheStatus)
	}
	enc, err := jsonMarshal(body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(append(enc, '\n'))
}
