// Package trace is the serving stack's per-request tracing plane.
//
// Each admitted request gets a trace id and an *Active span collector;
// every layer the request crosses (decode, admission, cache lookups,
// queue wait, compute, encode, peer forwards) appends a Span. Retention
// is tail-based: the keep/drop decision happens at request end, so the
// hot path pays nothing for traces that are never kept. A trace is
// retained when the request errored or was shed (status >= 400), when it
// ran slower than a live threshold (the serving layer feeds the learned
// p99 from the metrics plane), or when it was head-sampled (1-in-N).
// Retained traces land in a bounded sharded ring buffer served by
// GET /v1/trace; everything else returns to a sync.Pool without a single
// allocation.
//
// Cross-node stitching: the forwarder sends its trace id ahead in a
// request header, the owner echoes a compact span summary back in a
// response header (EncodeWire/ParseWire), and the forwarder appends the
// parsed spans with node attribution — one trace, both nodes.
package trace

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names used by the serving layer. Kept here so tests, the bench
// client, and the wire format agree on one vocabulary.
const (
	SpanDecode    = "decode"
	SpanAdmit     = "admit"
	SpanRCache    = "rcache"
	SpanTabulate  = "tabulate"
	SpanTable     = "table"
	SpanQueueWait = "queue_wait"
	SpanCompute   = "compute"
	SpanEncode    = "encode"
	SpanForward   = "forward"
	SpanPlan      = "plan"
)

// Retention reasons recorded on kept traces.
const (
	KeptError = "error" // status >= 400: sheds, hop-guard 421s, bad requests
	KeptSlow  = "slow"  // slower than the live threshold (the recorder p99)
	KeptHead  = "head"  // 1-in-N head sample
)

// Span is one timed section of a request. StartUS is the offset from the
// trace start in microseconds; remote spans carry the owning node's base
// URL in Node (local spans leave it empty).
type Span struct {
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// Trace is a retained, immutable trace as served by /v1/trace.
type Trace struct {
	ID          string `json:"id"`
	Endpoint    string `json:"endpoint"`
	Status      int    `json:"status"`
	Retained    string `json:"retained"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurUS       int64  `json:"dur_us"`
	Spans       []Span `json:"spans"`
}

// MaxSpans bounds the per-request span array so Active stays pool-able
// with zero steady-state allocation. Overflowing spans are dropped and
// counted (Stats.SpanDrops); 48 covers every single-request path with
// room for stitched remote spans, and the first items of a batch, whose
// items each record their own pipeline's spans.
const MaxSpans = 48

// Active collects spans for one in-flight request. It is pooled: obtain
// one from Tracer.Start, return it via Tracer.Finish. Methods are safe
// on a nil receiver (no-ops) and safe for concurrent use — batch
// requests fan items out across shard goroutines that share one Active.
type Active struct {
	mu      sync.Mutex
	id      uint64
	start   time.Time
	head    bool
	n       int
	dropped int
	spans   [MaxSpans]Span
}

// TraceID returns the trace id (0 on nil).
func (a *Active) TraceID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// Start returns the trace's start time (zero on nil).
func (a *Active) Start() time.Time {
	if a == nil {
		return time.Time{}
	}
	return a.start
}

// Add appends a local span beginning at t0 and lasting d. It runs on
// every traced request's hot path: the span lands in the fixed-size
// array by value, no heap traffic.
//
//khist:noalloc
func (a *Active) Add(name string, t0 time.Time, d time.Duration, note string) {
	if a == nil {
		return
	}
	a.add(name, t0.Sub(a.start), d, note)
}

// add appends a local span starting off after the trace start and
// lasting d.
//
//khist:noalloc
func (a *Active) add(name string, off, d time.Duration, note string) {
	a.mu.Lock()
	if a.n < MaxSpans {
		a.spans[a.n] = Span{
			Name:    name,
			StartUS: off.Microseconds(),
			DurUS:   d.Microseconds(),
			Note:    note,
		}
		a.n++
	} else {
		a.dropped++
	}
	a.mu.Unlock()
}

// Stage is one open section of a request, from Begin to End. Begin on a
// nil Active returns the zero Stage, whose End records nothing.
type Stage struct {
	a    *Active
	name string
	off  time.Duration // the stage's start, from the trace start
}

// Begin opens a stage named name, to be closed by Stage.End. It reads
// only the monotonic clock (a batch item crosses several stages, and a
// wall-clock read costs as much again), and on a nil Active no clock at
// all, so an untraced request pays nothing.
//
//khist:noalloc
func (a *Active) Begin(name string) Stage {
	if a == nil {
		return Stage{}
	}
	return Stage{a: a, name: name, off: time.Since(a.start)}
}

// End closes the stage and records it as a span carrying note.
//
//khist:noalloc
func (st Stage) End(note string) {
	if st.a == nil {
		return
	}
	st.a.add(st.name, st.off, time.Since(st.a.start)-st.off, note)
}

// AddRemote stitches spans parsed from a peer's response header into
// this trace. The peer's offsets are relative to its own trace start,
// which coincides with the forward: rebase them onto the forward start
// time `at` so local and remote spans share one clock. Node attribution
// is applied to every stitched span.
func (a *Active) AddRemote(node string, at time.Time, spans []Span) {
	if a == nil || len(spans) == 0 {
		return
	}
	base := at.Sub(a.start).Microseconds()
	a.mu.Lock()
	for _, sp := range spans {
		if a.n >= MaxSpans {
			a.dropped++
			continue
		}
		sp.Node = node
		sp.StartUS += base
		a.spans[a.n] = sp
		a.n++
	}
	a.mu.Unlock()
}

// Snapshot returns a copy of the spans collected so far.
func (a *Active) Snapshot() []Span {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := append([]Span(nil), a.spans[:a.n]...)
	a.mu.Unlock()
	return out
}

// EncodeWire renders the collected spans in the compact response-header
// format: `name,startUS,durUS,note` joined by `;`. Node attribution is
// never on the wire — the receiving side knows which peer it called.
func (a *Active) EncodeWire() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	b.Grow(a.n * 24)
	for i := 0; i < a.n; i++ {
		if i > 0 {
			b.WriteByte(';')
		}
		sp := &a.spans[i]
		b.WriteString(sp.Name)
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(sp.StartUS, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(sp.DurUS, 10))
		b.WriteByte(',')
		b.WriteString(sanitizeNote(sp.Note))
	}
	return b.String()
}

// sanitizeNote keeps notes wire-safe: the separators and anything a
// header can't carry become '_'.
func sanitizeNote(s string) string {
	if !strings.ContainsAny(s, ";,\r\n") {
		return s
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ';', ',', '\r', '\n':
			return '_'
		}
		return r
	}, s)
}

// ParseWire decodes an EncodeWire header. Malformed fragments are
// skipped rather than failing the whole header: a trace is diagnostic
// data, and a partial stitch beats none.
func ParseWire(s string) []Span {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ";")
	out := make([]Span, 0, len(parts))
	for _, p := range parts {
		f := strings.SplitN(p, ",", 4)
		if len(f) < 3 || f[0] == "" {
			continue
		}
		start, err1 := strconv.ParseInt(f[1], 10, 64)
		dur, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		sp := Span{Name: f[0], StartUS: start, DurUS: dur}
		if len(f) == 4 {
			sp.Note = f[3]
		}
		out = append(out, sp)
	}
	return out
}

// FormatID renders a trace id as 16 lowercase hex digits.
func FormatID(id uint64) string {
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hex[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// ParseID parses a FormatID string; 0 means absent/invalid.
func ParseID(s string) uint64 {
	if s == "" || len(s) > 16 {
		return 0
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// Config sizes a Tracer.
type Config struct {
	// SampleN head-samples every Nth started trace (the first, then
	// every N after). 1 keeps everything; 0 disables head sampling, so
	// only error/slow traces are retained.
	SampleN int
	// Buffer is the total retained-trace capacity across ring shards.
	Buffer int
	// Shards splits the ring to keep retention off any single lock.
	Shards int
	// Seed perturbs trace-id generation so two nodes started together
	// don't mint colliding ids.
	Seed int64
	// SlowUS returns the live slow-trace threshold in microseconds
	// (the serving layer wires the latency recorder p99 here); nil or a
	// non-positive return disables slow retention.
	SlowUS func() int64
}

// Tracer owns sampling, retention, and the ring of kept traces.
// A nil *Tracer is a valid disabled tracer: Start returns nil and every
// other method no-ops, so call sites need no enabled checks.
type Tracer struct {
	sampleN uint64
	slowUS  func() int64
	seed    uint64
	seq     atomic.Uint64
	pool    sync.Pool
	shards  []*ringShard

	started       atomic.Int64
	retainedHead  atomic.Int64
	retainedError atomic.Int64
	retainedSlow  atomic.Int64
	spanDrops     atomic.Int64
}

type ringShard struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
}

// New builds a Tracer. Zero-value fields get serving defaults
// (buffer 256, 4 ring shards).
func New(cfg Config) *Tracer {
	if cfg.Buffer < 1 {
		cfg.Buffer = 256
	}
	if cfg.Shards < 1 {
		cfg.Shards = 4
	}
	if cfg.Shards > cfg.Buffer {
		cfg.Shards = cfg.Buffer
	}
	t := &Tracer{
		sampleN: uint64(max(cfg.SampleN, 0)),
		slowUS:  cfg.SlowUS,
		seed:    mix64(uint64(cfg.Seed) ^ 0x6b686973745f7472), // "khist_tr"
		shards:  make([]*ringShard, cfg.Shards),
	}
	per := (cfg.Buffer + cfg.Shards - 1) / cfg.Shards
	for i := range t.shards {
		t.shards[i] = &ringShard{buf: make([]*Trace, per)}
	}
	t.pool.New = func() any { return new(Active) }
	return t
}

// Start begins a trace. parent is the id propagated from a forwarding
// peer (0 for a root trace). The returned Active comes from a pool; the
// caller must hand it back via Finish exactly once.
func (t *Tracer) Start(parent uint64) *Active {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	n := t.seq.Add(1)
	a := t.pool.Get().(*Active)
	if parent != 0 {
		a.id = parent
	} else {
		a.id = mix64(t.seed + n*0x9e3779b97f4a7c15)
		if a.id == 0 {
			a.id = 1
		}
	}
	a.start = time.Now()
	a.head = t.sampleN > 0 && n%t.sampleN == 1%t.sampleN
	return a
}

// Finish ends a trace and decides retention: error (status >= 400),
// slow (total duration at or above the live SlowUS threshold), or head
// sample — in that precedence. Kept traces are copied into the ring and
// their formatted id is returned (for metric exemplars); dropped traces
// cost zero allocations. The Active is recycled either way.
func (t *Tracer) Finish(a *Active, endpoint string, status int, d time.Duration) (id string, kept bool) {
	if t == nil || a == nil {
		return "", false
	}
	reason := ""
	switch {
	case status >= 400:
		reason = KeptError
	case t.slow(d):
		reason = KeptSlow
	case a.head:
		reason = KeptHead
	}
	if a.dropped > 0 {
		t.spanDrops.Add(int64(a.dropped))
	}
	if reason == "" {
		t.recycle(a)
		return "", false
	}
	tr := &Trace{
		ID:          FormatID(a.id),
		Endpoint:    endpoint,
		Status:      status,
		Retained:    reason,
		StartUnixNS: a.start.UnixNano(),
		DurUS:       d.Microseconds(),
		Spans:       append([]Span(nil), a.spans[:a.n]...),
	}
	switch reason {
	case KeptError:
		t.retainedError.Add(1)
	case KeptSlow:
		t.retainedSlow.Add(1)
	default:
		t.retainedHead.Add(1)
	}
	rs := t.shards[a.id%uint64(len(t.shards))]
	rs.mu.Lock()
	rs.buf[rs.next] = tr
	rs.next = (rs.next + 1) % len(rs.buf)
	rs.mu.Unlock()
	t.recycle(a)
	return tr.ID, true
}

func (t *Tracer) slow(d time.Duration) bool {
	if t.slowUS == nil {
		return false
	}
	us := t.slowUS()
	return us > 0 && d.Microseconds() >= us
}

// recycle clears and pools a finished collector; paired with the pool
// Get in Start, it keeps the per-request trace plumbing allocation-free
// in steady state.
//
//khist:noalloc
func (t *Tracer) recycle(a *Active) {
	for i := 0; i < a.n; i++ {
		a.spans[i] = Span{} // release string refs
	}
	a.id, a.head, a.n, a.dropped = 0, false, 0, 0
	t.pool.Put(a)
}

// Filter selects traces from Recent. Zero values match everything.
type Filter struct {
	Endpoint string // exact endpoint name
	Status   int    // exact status code
	MinDurUS int64  // minimum total duration
	Limit    int    // max traces returned (0 = 50)
}

// Recent returns retained traces, newest first, after filtering.
func (t *Tracer) Recent(f Filter) []*Trace {
	if t == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 50
	}
	var out []*Trace
	for _, rs := range t.shards {
		rs.mu.Lock()
		for _, tr := range rs.buf {
			if tr == nil {
				continue
			}
			if f.Endpoint != "" && tr.Endpoint != f.Endpoint {
				continue
			}
			if f.Status != 0 && tr.Status != f.Status {
				continue
			}
			if tr.DurUS < f.MinDurUS {
				continue
			}
			out = append(out, tr)
		}
		rs.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNS > out[j].StartUnixNS })
	if len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Get returns the retained trace with the given formatted id, or nil.
func (t *Tracer) Get(id string) *Trace {
	if t == nil || id == "" {
		return nil
	}
	for _, rs := range t.shards {
		rs.mu.Lock()
		for _, tr := range rs.buf {
			if tr != nil && tr.ID == id {
				rs.mu.Unlock()
				return tr
			}
		}
		rs.mu.Unlock()
	}
	return nil
}

// Stats reports tracer counters for /v1/trace and /metrics.
type Stats struct {
	Started       int64 `json:"started"`
	RetainedHead  int64 `json:"retained_head"`
	RetainedError int64 `json:"retained_error"`
	RetainedSlow  int64 `json:"retained_slow"`
	SpanDrops     int64 `json:"span_drops"`
	Buffered      int64 `json:"buffered"`
}

// StatsSnapshot returns current counters (zero Stats on nil).
func (t *Tracer) StatsSnapshot() Stats {
	if t == nil {
		return Stats{}
	}
	s := Stats{
		Started:       t.started.Load(),
		RetainedHead:  t.retainedHead.Load(),
		RetainedError: t.retainedError.Load(),
		RetainedSlow:  t.retainedSlow.Load(),
		SpanDrops:     t.spanDrops.Load(),
	}
	for _, rs := range t.shards {
		rs.mu.Lock()
		for _, tr := range rs.buf {
			if tr != nil {
				s.Buffered++
			}
		}
		rs.mu.Unlock()
	}
	return s
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection used for
// trace-id generation off a plain counter.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
