// Package obs is the serving stack's self-measurement plane: a
// lock-cheap metrics registry (atomic counters, callback gauges, and
// latency recorders) rendered as Prometheus text on GET /metrics and
// summarized in /v1/stats.
//
// The centerpiece closes the loop on the source paper: each latency
// Recorder counts its observations exactly, one atomic counter per
// bucket of a 200-bucket HDR-style latency domain, and a periodic
// snapshot reads the counts, publishes bucket-edge quantiles exact in
// rank, and runs the repo's own k-bucket v-optimal learner
// (internal/learn) over draws of the counted distribution. The system's
// observability layer is the paper's algorithm applied to the system
// itself.
//
// Hot-path cost discipline: counters are single atomic adds; a recorder
// observation is two atomic adds and an atomic max (a load, plus a
// compare-and-swap only when the max grows) and takes no lock; nothing
// on the hot path allocates. All reading, tabulation and learning
// happens on the snapshot path, off the request path.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
//
//khist:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the rendered series to stay a
// valid Prometheus counter; the type does not police it).
//
//khist:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// row is one rendered series: a fixed label set with either a live
// counter or a read callback.
type row struct {
	labels string // rendered {k="v",...} suffix, or ""
	c      *Counter
	fn     func() float64
}

// family is one metric name: help, type, and its rows in registration
// order.
type family struct {
	name, help, typ string
	rows            []row
}

// Registry holds the process's metrics. Registration happens at
// construction time (server startup); the hot path only touches the
// returned *Counter and *Recorder handles, never the registry, so
// rendering and recording never contend.
type Registry struct {
	mu        sync.Mutex
	families  []*family
	byName    map[string]*family
	recorders []*Recorder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Labels renders alternating key/value pairs as a Prometheus label
// suffix. Values are escaped per the text exposition format.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs alternating key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) familyFor(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	return f
}

// Counter registers (or extends) the counter family name with one series
// carrying the given label pairs and returns its live handle. Calling
// twice with the same name and labels returns distinct handles summed
// nowhere — register each series exactly once.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "counter")
	c := &Counter{}
	f.rows = append(f.rows, row{labels: Labels(kv...), c: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// render time — for mirroring counters that already live elsewhere
// (e.g. a subsystem's own atomics) without double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "counter")
	f.rows = append(f.rows, row{labels: Labels(kv...), fn: fn})
}

// Gauge registers a gauge series read from fn at render time.
func (r *Registry) Gauge(name, help string, fn func() float64, kv ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "gauge")
	f.rows = append(f.rows, row{labels: Labels(kv...), fn: fn})
}

// Recorder registers a latency recorder (see recorder.go) under name:
// the rendered series carry the name as their prefix. Snapshots of a
// learned recorder also publish the learned k-histogram.
func (r *Registry) Recorder(name, help string, learned bool) *Recorder {
	rec := NewRecorder(name, help, learned)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorders = append(r.recorders, rec)
	return rec
}

// ContentType is the Prometheus text exposition content type served on
// /metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family and recorder in
// registration order in the Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	recorders := append([]*Recorder(nil), r.recorders...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, row := range f.rows {
			if row.c != nil {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, row.labels, row.c.Load())
			} else {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, row.labels, formatFloat(row.fn()))
			}
		}
	}
	for _, rec := range recorders {
		rec.writePrometheus(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float the way Prometheus clients expect:
// integral values without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
