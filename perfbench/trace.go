package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"khist/internal/serve"
)

// spanHandle is the root span of every traced request: the time spent
// in the server's Handler().ServeHTTP.
const spanHandle = "serve.handle"

// span is one timed call: a request's handler, or one layer call the
// replay made on the request's behalf (Parent names the handler span).
type span struct {
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Phase  string        `json:"phase"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Work   int64         `json:"work,omitempty"`
	// Note is the request path on handler spans.
	Note string `json:"note,omitempty"`
}

// spanLog keeps spans in memory; they are written out once the run ends.
type spanLog struct {
	phase string
	spans []span
}

func (l *spanLog) add(s span) {
	s.Phase = l.phase
	l.spans = append(l.spans, s)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverConfig is khist-server's configuration at its default flags
// plus an ephemeral address (see cmd/khist-server): four shards, one
// worker per CPU, and the metrics and tracing planes on.
func serverConfig() serve.Config {
	return serve.Config{
		Shards:             4,
		WorkersPerShard:    runtime.GOMAXPROCS(0),
		CacheBytes:         256 << 20,
		ResponseCacheBytes: serve.DefaultResponseCacheBytes,
		Metrics:            serve.MetricsConfig{Window: serve.DefaultMetricsWindow, K: serve.DefaultMetricsK},
		Trace:              serve.TraceConfig{SampleN: serve.DefaultTraceSampleN, Buffer: serve.DefaultTraceBuffer},
	}
}

// tracer replays a script serially against an in-process server. Each
// request is timed around ServeHTTP; its cache status says which layers
// ran, and the replayer calls exactly those, each in its own span, then
// checks that it reproduced the served body byte for byte.
type tracer struct {
	h   http.Handler
	rp  *replayer
	log *spanLog
	req int
}

// tracedRun replays the whole script: setup, the timed units in order
// (round-robin across connections when units are pinned, as the
// connections interleave), then the final reads.
func tracedRun(sc *script) (*spanLog, *replayer, error) {
	srv, err := serve.New(serverConfig())
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	log := &spanLog{}
	t := &tracer{h: srv.Handler(), log: log, rp: newReplayer(runtime.GOMAXPROCS(0), log)}
	log.phase = "setup"
	for _, r := range serialOrder(sc.setup, sc.pinned) {
		if err := t.do(r); err != nil {
			return nil, nil, err
		}
	}
	log.phase = "timed"
	for _, r := range serialOrder(sc.units, sc.pinned) {
		if err := t.do(r); err != nil {
			return nil, nil, err
		}
	}
	log.phase = "final"
	for _, r := range sc.final {
		if err := t.do(r); err != nil {
			return nil, nil, err
		}
	}
	return log, t.rp, nil
}

// serialOrder flattens a phase's units into one sequence.
func serialOrder(units [][]*request, pinned bool) []*request {
	if !pinned {
		return flatten(units)
	}
	var out []*request
	for i := 0; ; i++ {
		more := false
		for _, u := range units {
			if i < len(u) {
				out = append(out, u[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

func (t *tracer) do(r *request) error {
	t.req++
	id := t.req
	hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	if r.binary {
		hr.Header.Set("Content-Type", serve.BinaryContentType)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(rec, hr)
	t.log.add(span{Req: id, Name: spanHandle, Start: t0, Dur: time.Since(t0), Work: int64(len(r.queries)), Note: r.path})
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced %s: status %d: %.200s", r.path, rec.Code, body)
	}
	switch {
	case r.ingest != nil:
		want, err := t.rp.ingest(id, r.ingest)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, body) {
			return fmt.Errorf("traced ingest: served %q, replay %q", body, want)
		}
	case r.path == "/v1/batch":
		var env serve.BatchResponse
		if err := json.Unmarshal(body, &env); err != nil || len(env.Items) != len(r.queries) {
			return fmt.Errorf("traced batch: malformed envelope (%v)", err)
		}
		for i, it := range env.Items {
			if _, err := t.rp.verify(id, r.queries[i], false, it.Cache, it.Body); err != nil {
				return err
			}
		}
	default:
		if !r.binary {
			body = bytes.TrimSuffix(body, []byte("\n"))
		}
		if _, err := t.rp.verify(id, r.queries[0], r.binary, rec.Header().Get(serve.CacheHeader), body); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics aggregates the spans into the per-layer metrics. Layer
// costs (p50s, per-unit costs, work counts) cover every replayed call,
// setup included; the handler, self-time and share metrics cover the
// timed phase, the traffic the end-to-end metrics measure.
func layerMetrics(log *spanLog, rp *replayer) map[string]float64 {
	byName := map[string][]time.Duration{}
	work := map[string]int64{}
	total := map[string]time.Duration{}
	timedLayer := map[string]time.Duration{}
	var handles, selfs []time.Duration
	var handleSum, selfSum, batchSum time.Duration
	var batchItems int64
	flush := func(h *span, children time.Duration) {
		if h == nil || h.Phase != "timed" {
			return
		}
		// The replayed calls ran after the handler, not inside it, so a
		// request's self time is an estimate that noise can push below
		// zero; it is kept signed so the sums stay unbiased.
		self := h.Dur - children
		handles = append(handles, h.Dur)
		selfs = append(selfs, self)
		handleSum += h.Dur
		selfSum += self
		if h.Note == "/v1/batch" {
			batchSum += h.Dur
			batchItems += h.Work
		}
	}
	var cur *span
	var children time.Duration
	for i := range log.spans {
		s := &log.spans[i]
		if s.Name == spanHandle {
			flush(cur, children)
			cur, children = s, 0
			continue
		}
		byName[s.Name] = append(byName[s.Name], s.Dur)
		work[s.Name] += s.Work
		total[s.Name] += s.Dur
		if s.Phase == "timed" {
			timedLayer[s.Name] += s.Dur
		}
		// Encoding is the serve layer's own work; every other child is a
		// call into another layer and leaves serve's self time.
		if s.Name != "serve.encode" {
			children += s.Dur
		}
	}
	flush(cur, children)

	p50 := func(name string, us bool) float64 { return quantile(durs(byName[name], us), 0.5) }
	share := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += timedLayer[n]
		}
		return ratio(int64(d), int64(handleSum))
	}
	perUnit := func(name string) float64 { return ratio(int64(total[name]), work[name]) }
	var sketch int64
	for _, m := range rp.mirrors {
		sketch += m.SizeBytes()
	}
	return map[string]float64{
		"serve.handle_us_p50":     quantile(durs(handles, true), 0.5),
		"serve.self_us_p50":       quantile(durs(selfs, true), 0.5),
		"serve.self_share":        math.Max(0, ratio(int64(selfSum), int64(handleSum))),
		"serve.batch_item_us":     ratio(int64(batchSum), batchItems) / 1e3,
		"serve.encode_us_p50":     p50("serve.encode", true),
		"dist.resolve_us_p50":     p50("dist.resolve", true),
		"collision.draw_ms_p50":   p50("collision.draw", false),
		"collision.ns_per_sample": perUnit("collision.draw"),
		"collision.samples":       float64(work["collision.draw"]),
		"collision.share":         share("collision.draw"),
		"learn.scan_ms_p50":       p50("learn.scan", false),
		"learn.scan_ms_p99":       tailOf(durs(byName["learn.scan"], false), 0.99).value,
		"learn.ns_per_candidate":  perUnit("learn.scan"),
		"learn.share":             share("learn.scan"),
		"histtest.test_ms_p50":    p50("histtest.test", false),
		"histtest.flatness_calls": float64(work["histtest.test"]),
		"histtest.share":          share("histtest.test"),
		"grid.scan_ms_p50":        p50("grid.scan", false),
		"grid.tabulate_ms_p50":    p50("grid.tabulate", false),
		"grid.share":              share("grid.scan", "grid.tabulate"),
		"stream.ingest_us_p50":    p50("stream.ingest", true),
		"stream.snapshot_us_p50":  p50("stream.snapshot", true),
		"stream.sketch_bytes":     float64(sketch),
		"stream.share":            share("stream.ingest", "stream.snapshot"),
	}
}
