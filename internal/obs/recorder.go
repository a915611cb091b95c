package obs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"khist/internal/dist"
	"khist/internal/learn"
)

// The latency domain. Durations are mapped to a small discrete domain so
// the k-histogram learner (whose running time scales with the number of
// distinct sampled values) stays cheap enough to run in the background:
// microsecond-exact buckets below 16us, then 8 sub-buckets per power of
// two (HDR-histogram style, <= 12.5% relative width) up to ~134s. The
// mapping is integer-only and monotone, so learned bucket boundaries
// translate back to microsecond ranges exactly.
const (
	latLinear  = 16 // exact 1us buckets for [0, 16) us
	latSubBits = 3
	latSub     = 1 << latSubBits // sub-buckets per octave
	latMaxExp  = 27              // values >= 2^27 us (~134s) clamp to the top bucket

	// LatencyDomain is the recorder's domain size n: every observation
	// maps to a bucket index in [0, LatencyDomain).
	LatencyDomain = latLinear + (latMaxExp-4)*latSub
)

// latencyBucket maps a non-negative microsecond value to its domain
// bucket.
func latencyBucket(us int64) int {
	if us < 0 {
		us = 0
	}
	if us < latLinear {
		return int(us)
	}
	e := bits.Len64(uint64(us)) // e >= 5: 2^(e-1) <= us < 2^e
	if e > latMaxExp {
		return LatencyDomain - 1
	}
	sub := int(us>>(e-1-latSubBits)) & (latSub - 1)
	return latLinear + (e-5)*latSub + sub
}

// BucketLoUS returns the inclusive microsecond lower edge of bucket b.
func BucketLoUS(b int) int64 {
	if b < 0 {
		return 0
	}
	if b < latLinear {
		return int64(b)
	}
	if b >= LatencyDomain {
		return int64(1) << latMaxExp
	}
	oct := (b - latLinear) / latSub // e = oct + 5
	sub := (b - latLinear) % latSub
	return int64(latSub+sub) << (oct + 4 - latSubBits)
}

// BucketHiUS returns the exclusive microsecond upper edge of bucket b.
func BucketHiUS(b int) int64 { return BucketLoUS(b + 1) }

// Recorder measures one latency population as exact per-bucket counts
// over the latency domain, beside an exact sum and max. Observe is safe
// for concurrent use, takes no lock and allocates nothing: three atomic
// operations. Snapshot (periodic, off the hot path) reads the bucket
// counts once and derives every published figure from them: count,
// mean, bucket-edge quantiles exact in rank, the fixed cumulative
// buckets and, for learned recorders, the k-histogram the v-optimal
// learner produces from draws of the counted distribution.
type Recorder struct {
	name, help string
	learned    bool

	buckets [LatencyDomain]atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64

	// snapMu serializes snapshots; snap holds the latest result.
	snapMu    sync.Mutex
	snap      atomic.Pointer[LatencySnapshot]
	snapshots atomic.Int64

	// exemplar is the most recent retained trace attributed to this
	// population (SetExemplar), linking the aggregate series to one
	// concrete request on /metrics.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar ties a latency series to one retained trace id.
type Exemplar struct {
	TraceID string
	US      int64
}

// SetExemplar records the most recent retained trace observed in this
// recorder's population; it renders as a `<name>_exemplar` companion
// series on /metrics. Safe for concurrent use; last writer wins.
func (r *Recorder) SetExemplar(traceID string, us int64) {
	if traceID == "" {
		return
	}
	r.exemplar.Store(&Exemplar{TraceID: traceID, US: us})
}

// LastExemplar returns the current exemplar, or nil.
func (r *Recorder) LastExemplar() *Exemplar { return r.exemplar.Load() }

// NewRecorder builds an unregistered recorder; most callers use
// Registry.Recorder instead. A learned recorder's snapshots also run the
// v-optimal learner and publish the learned pieces; every recorder
// publishes counts, sums, quantiles and cumulative buckets.
func NewRecorder(name, help string, learned bool) *Recorder {
	return &Recorder{name: name, help: help, learned: learned}
}

// Name returns the metric name the recorder renders under.
func (r *Recorder) Name() string { return r.name }

// Observe records one latency; negative durations count as 0.
//
//khist:noalloc
func (r *Recorder) Observe(d time.Duration) {
	us := max(d.Microseconds(), 0)
	r.sumUS.Add(us)
	for {
		old := r.maxUS.Load()
		if us <= old || r.maxUS.CompareAndSwap(old, us) {
			break
		}
	}
	r.buckets[latencyBucket(us)].Add(1)
}

// Count returns the number of observations.
func (r *Recorder) Count() int64 {
	var n int64
	for i := range r.buckets {
		n += r.buckets[i].Load()
	}
	return n
}

// SumUS returns the summed observations in microseconds.
func (r *Recorder) SumUS() int64 { return r.sumUS.Load() }

// MaxUS returns the largest observation in microseconds.
func (r *Recorder) MaxUS() int64 { return r.maxUS.Load() }

// LatencyPiece is one piece of a learned latency histogram: a
// microsecond range and the probability mass the learner assigned it.
type LatencyPiece struct {
	LoUS int64   `json:"lo_us"`
	HiUS int64   `json:"hi_us"`
	Mass float64 `json:"mass"`
}

// fixedLE is the fixed cumulative-bucket grid rendered on /metrics
// (Prometheus needs stable le labels across scrapes), in microseconds.
// Each label is the last microsecond of a bucket, BucketHiUS(b) - 1, so
// the series labelled le counts exactly the observations <= le.
var fixedLE = []int64{255, 1023, 4095, 16383, 65535, 262143, 1048575, 4194303}

// LatencySnapshot is one read of a recorder's bucket counts: stream
// totals, nearest-rank quantiles, a fixed-boundary cumulative histogram,
// and — for learned recorders — the k-histogram the v-optimal learner
// produced from draws of the counted distribution.
type LatencySnapshot struct {
	// Count is the number of observations counted; MeanUS and MaxUS come
	// from the exact sum and max beside the counts.
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  int64   `json:"max_us"`
	// P50US/P90US/P99US are the lower edges of the buckets holding the
	// nearest-rank observations (rank ceil(phi*Count)): exact in rank,
	// within the bucket width (<= 12.5%) in value.
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	// CumLE[i] counts the observations of at most fixedLE[i] us: those
	// in the buckets up to and including the one that fixedLE[i] ends.
	CumLE []int64 `json:"-"`
	// Samples is the number of draws the learner learned from;
	// SamplesSeen the number of observations they were drawn from.
	Samples     int64 `json:"samples"`
	SamplesSeen int64 `json:"samples_seen"`
	// K is the requested piece budget; Pieces the learned histogram
	// (empty when the stream was too short to learn), LearnedK its
	// actual piece count, ErrL2 the squared l2 distance between the
	// learned density and the counted distribution, and SamplesUsed the
	// learner's sample accounting.
	K           int            `json:"k,omitempty"`
	Pieces      []LatencyPiece `json:"pieces,omitempty"`
	LearnedK    int            `json:"learned_k,omitempty"`
	ErrL2       float64        `json:"err_l2,omitempty"`
	SamplesUsed int64          `json:"samples_used,omitempty"`
	// Snapshots counts snapshots taken over the recorder's lifetime.
	Snapshots int64 `json:"snapshots"`
}

// Latest returns the most recent snapshot, or nil before the first one.
func (r *Recorder) Latest() *LatencySnapshot { return r.snap.Load() }

// minLearnSamples is the shortest stream the learner runs on: below it
// the snapshot still carries counts and quantiles, just no learned
// histogram. maxLearnDraws caps the draws the learner takes from the
// counted distribution, and learnSeed seeds them, so a snapshot is a
// pure function of the counts.
const (
	minLearnSamples = 8
	maxLearnDraws   = 4096
	learnSeed       = 0x7f4a7c15
)

// Snapshot reads the bucket counts once, derives the totals, quantiles
// and cumulative buckets from them, runs the k-bucket v-optimal learner
// over draws of the counted distribution (learned recorders with at
// least minLearnSamples observations), stores the result as Latest, and
// returns it. It is cheap relative to its period (the domain is
// LatencyDomain wide) and runs entirely off the request path.
func (r *Recorder) Snapshot(k int) *LatencySnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()

	var counts [LatencyDomain]int64
	var n int64
	for i := range r.buckets {
		counts[i] = r.buckets[i].Load()
		n += counts[i]
	}
	snap := &LatencySnapshot{
		Count:       n,
		SamplesSeen: n,
		MaxUS:       r.maxUS.Load(),
		K:           k,
		Snapshots:   r.snapshots.Add(1),
	}
	if n > 0 {
		snap.MeanUS = float64(r.sumUS.Load()) / float64(n)
		snap.P50US = nearestRank(&counts, n, 50)
		snap.P90US = nearestRank(&counts, n, 90)
		snap.P99US = nearestRank(&counts, n, 99)
		snap.CumLE = make([]int64, len(fixedLE))
		b, cum := 0, int64(0)
		for i, le := range fixedLE {
			for ; b <= latencyBucket(le); b++ {
				cum += counts[b]
			}
			snap.CumLE[i] = cum
		}
	}
	if r.learned && n >= minLearnSamples && k >= 1 {
		r.learn(snap, &counts, n, k)
	}
	r.snap.Store(snap)
	return snap
}

// nearestRank returns the lower edge of the bucket holding the
// observation of rank ceil(pct/100 * n), n > 0.
func nearestRank(counts *[LatencyDomain]int64, n int64, pct int64) int64 {
	rank := max((pct*n+99)/100, 1)
	var cum int64
	for b, c := range counts {
		if cum += c; cum >= rank {
			return BucketLoUS(b)
		}
	}
	return BucketLoUS(LatencyDomain - 1)
}

// learn runs the repo's v-optimal k-histogram learner over draws of the
// counted latency distribution, dogfooding internal/learn as the latency
// summarizer.
func (r *Recorder) learn(snap *LatencySnapshot, counts *[LatencyDomain]int64, n int64, k int) {
	w := make([]float64, LatencyDomain)
	for i, c := range counts {
		w[i] = float64(c)
	}
	p, err := dist.FromWeights(w)
	if err != nil {
		return
	}
	items := dist.Draw(dist.NewSampler(p, rand.New(rand.NewSource(learnSeed))), int(min(n, maxLearnDraws)))
	snap.Samples = int64(len(items))

	// Split the draws like stream.Maintainer does: half for weight
	// estimates, the rest into r collision sets (adaptive so every set
	// keeps at least a few items).
	weights := items[:len(items)/2]
	rest := items[len(items)/2:]
	sets := len(rest) / 4
	if sets < 1 {
		sets = 1
	}
	if sets > 8 {
		sets = 8
	}
	chunk := len(rest) / sets
	coll := make([][]int, sets)
	for i := 0; i < sets; i++ {
		coll[i] = rest[i*chunk : (i+1)*chunk]
	}
	res, err := learn.FromSamples(LatencyDomain, weights, coll, learn.Options{
		K: k, Eps: 0.25, Parallelism: 1,
	}, true)
	if err != nil {
		return
	}
	bounds := res.Tiling.Bounds()
	values := res.Tiling.Values()
	pieces := make([]LatencyPiece, 0, len(values))
	for j := range values {
		pieces = append(pieces, LatencyPiece{
			LoUS: BucketLoUS(bounds[j]),
			HiUS: BucketLoUS(bounds[j+1]),
			Mass: values[j] * float64(bounds[j+1]-bounds[j]),
		})
	}
	snap.Pieces = pieces
	snap.LearnedK = len(pieces)
	snap.SamplesUsed = res.SamplesUsed

	// Learn error: squared l2 distance between the learned density and
	// the counted distribution over the latency domain.
	var errL2 float64
	for j := range values {
		for i := bounds[j]; i < bounds[j+1]; i++ {
			d := p.P(i) - values[j]
			errL2 += d * d
		}
	}
	snap.ErrL2 = errL2
}

// writePrometheus renders the recorder's series: exact totals, the
// latest snapshot's quantiles and fixed-boundary cumulative buckets, and
// (for learned recorders) the learned k-histogram with its boundaries in
// labels and its piece count and learn error as companion series.
func (r *Recorder) writePrometheus(b *strings.Builder) {
	n := r.name
	fmt.Fprintf(b, "# HELP %s_count %s (observations)\n# TYPE %s_count counter\n%s_count %d\n", n, r.help, n, n, r.Count())
	fmt.Fprintf(b, "# TYPE %s_sum_us counter\n%s_sum_us %d\n", n, n, r.SumUS())
	fmt.Fprintf(b, "# TYPE %s_max_us gauge\n%s_max_us %d\n", n, n, r.MaxUS())
	if ex := r.exemplar.Load(); ex != nil {
		fmt.Fprintf(b, "# HELP %s_exemplar latency of the most recent retained trace in this population (id links to /v1/trace/{id})\n", n)
		fmt.Fprintf(b, "# TYPE %s_exemplar gauge\n%s_exemplar{trace_id=%q} %d\n", n, n, ex.TraceID, ex.US)
	}
	snap := r.Latest()
	if snap == nil {
		return
	}
	fmt.Fprintf(b, "# TYPE %s_us gauge\n", n)
	for _, q := range []struct {
		phi string
		v   int64
	}{{"0.5", snap.P50US}, {"0.9", snap.P90US}, {"0.99", snap.P99US}} {
		fmt.Fprintf(b, "%s_us{quantile=%q} %d\n", n, q.phi, q.v)
	}
	if snap.CumLE != nil {
		fmt.Fprintf(b, "# TYPE %s_us_bucket gauge\n", n)
		for i, le := range fixedLE {
			fmt.Fprintf(b, "%s_us_bucket{le=\"%d\"} %d\n", n, le, snap.CumLE[i])
		}
		fmt.Fprintf(b, "%s_us_bucket{le=\"+Inf\"} %d\n", n, snap.Count)
	}
	fmt.Fprintf(b, "# TYPE %s_snapshots_total counter\n%s_snapshots_total %d\n", n, n, snap.Snapshots)
	if len(snap.Pieces) > 0 {
		fmt.Fprintf(b, "# HELP %s_learned_bucket mass per piece of the k-histogram the v-optimal learner learned from the latency bucket counts\n", n)
		fmt.Fprintf(b, "# TYPE %s_learned_bucket gauge\n", n)
		for i, p := range snap.Pieces {
			fmt.Fprintf(b, "%s_learned_bucket{piece=\"%d\",lo_us=\"%d\",hi_us=\"%d\"} %s\n", n, i, p.LoUS, p.HiUS, formatFloat(p.Mass))
		}
		fmt.Fprintf(b, "# TYPE %s_learned_pieces gauge\n%s_learned_pieces %d\n", n, n, snap.LearnedK)
		fmt.Fprintf(b, "# TYPE %s_learned_err_l2 gauge\n%s_learned_err_l2 %s\n", n, n, formatFloat(snap.ErrL2))
		fmt.Fprintf(b, "# TYPE %s_learned_samples gauge\n%s_learned_samples %d\n", n, n, snap.Samples)
	}
}
