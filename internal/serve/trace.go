package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"khist/internal/obs/trace"
)

// The tracing plane. Every request on a traced endpoint gets a pooled
// span collector from internal/obs/trace; handlers time each layer they
// cross (rcache lookup, decode, admission, tabulation, queue wait,
// compute, encode, peer forwards) and the instrumented wrapper decides
// retention at request end — tail-based, so the keep/drop decision can
// see the final status and duration. The slow threshold dogfoods the
// metrics plane: any request slower than the snapshot p99 of the live
// latency recorder is kept, alongside every error/shed response and a
// 1-in-N head sample. Like the metrics plane, tracing never touches
// response bodies — byte identity holds tracing on or off — and the
// unsampled hot path allocates nothing (pinned by TestTraceHotPathAllocs).

// Tracing defaults: head-sample 1 in 16 requests (errors and slow
// requests are always kept regardless), and retain up to 512 traces.
const (
	DefaultTraceSampleN = 16
	DefaultTraceBuffer  = 512
)

// TraceConfig sizes the tracing plane. The zero value means enabled
// with defaults, so every configuration — including the equivalence
// suites — exercises the traced path.
type TraceConfig struct {
	// Disabled turns tracing off entirely: no collector, no /v1/trace
	// buffer, zero per-request overhead.
	Disabled bool
	// SampleN head-samples every Nth request on top of the tail-based
	// error/slow retention. Non-positive means DefaultTraceSampleN; to
	// disable head sampling (tail retention only), set it very large.
	SampleN int
	// Buffer is the total retained-trace capacity. Non-positive means
	// DefaultTraceBuffer.
	Buffer int
	// Seed perturbs trace-id generation (cluster nodes pass distinct
	// seeds so simultaneous starts don't mint colliding ids).
	Seed int64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.SampleN < 1 {
		c.SampleN = DefaultTraceSampleN
	}
	if c.Buffer < 1 {
		c.Buffer = DefaultTraceBuffer
	}
	return c
}

// tracedEndpoints are the endpoints whose requests get a trace: the
// algorithm endpoints and the batch envelope. Introspection endpoints
// (stats, metrics, trace itself, healthz, cluster) are not traced —
// tracing the trace reader would fill the ring with its own scrapes.
var tracedEndpoints = map[string]bool{
	epLearn:   true,
	epTestL2:  true,
	epTestL1:  true,
	epLearn2D: true,
	epIngest:  true,
	"batch":   true,
}

// activeOf recovers the request's span collector from the wrapped
// response writer; nil when tracing is off or the endpoint is untraced.
// Handlers receive the instrumented statusWriter directly (never a
// further wrapper), so a plain type assertion suffices.
func activeOf(w http.ResponseWriter) *trace.Active {
	if sw, ok := w.(*statusWriter); ok {
		return sw.act
	}
	return nil
}

// TraceListResponse is the body of GET /v1/trace.
type TraceListResponse struct {
	Enabled bool `json:"enabled"`
	// SampleN and Buffer echo the plane's configuration.
	SampleN int `json:"sample_n,omitempty"`
	Buffer  int `json:"buffer,omitempty"`
	// Stats are the tracer's lifetime counters.
	Stats trace.Stats `json:"stats"`
	// Traces are the retained traces, newest first, after filtering.
	Traces []*trace.Trace `json:"traces"`
}

// handleTraceList serves GET /v1/trace: recent retained traces, newest
// first, filterable with ?endpoint=, ?status=, ?min_dur_us=, ?limit=.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	resp := TraceListResponse{
		Enabled: s.tracer != nil,
		Traces:  []*trace.Trace{},
	}
	if s.tracer != nil {
		q := r.URL.Query()
		f := trace.Filter{Endpoint: q.Get("endpoint")}
		if v := q.Get("status"); v != "" {
			st, err := strconv.Atoi(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad status filter %q", v))
				return
			}
			f.Status = st
		}
		if v := q.Get("min_dur_us"); v != "" {
			us, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad min_dur_us filter %q", v))
				return
			}
			f.MinDurUS = us
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad limit %q", v))
				return
			}
			f.Limit = n
		}
		resp.SampleN = s.cfg.Trace.SampleN
		resp.Buffer = s.cfg.Trace.Buffer
		resp.Stats = s.tracer.StatsSnapshot()
		if got := s.tracer.Recent(f); got != nil {
			resp.Traces = got
		}
	}
	writeJSON(w, "", resp)
}

// handleTraceGet serves GET /v1/trace/{id}: one retained trace by its
// 16-hex id, or 404 once it has been overwritten in the ring.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.tracer.Get(id)
	if tr == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no retained trace %q (dropped, overwritten, or never kept)", id))
		return
	}
	writeJSON(w, "", tr)
}
