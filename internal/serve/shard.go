package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"khist/internal/obs/trace"
	"khist/internal/par"
)

// Cache-status values reported in the X-Khist-Cache response header.
// They live in the header, not the body, so that a response body is
// byte-identical whether it was computed cold, served from cache, or
// coalesced into another request's draw.
const (
	StatusHit       = "hit"
	StatusMiss      = "miss"
	StatusCoalesced = "coalesced"
)

// shard is one unit of the serving plane: a persistent worker pool that
// bounds the shard's compute, an LRU cache of immutable tabulated
// sample-set bundles (each with the learner cost tables filled from it
// attached), a coalescer that collapses concurrent requests for the
// same (source, seed, budget) key onto a single draw and the same
// (bundle, scan mode) onto a single table fill, and an admission gate
// that sheds load once the shard is saturated. Requests are routed to
// shards by tenant/domain key, so one tenant's cache churn and queueing
// cannot evict or starve another shard's.
type shard struct {
	pool  *par.Pool
	cache *cache
	group *flightGroup

	// Admission gate: at most admitLimit requests are concurrently
	// admitted (executing plus waiting on the pool); the rest are shed
	// with 429 before they can queue on Pool.Do or allocate. inflight
	// counts currently admitted requests, shed the rejected ones.
	admitLimit int
	inflight   atomic.Int64
	shed       atomic.Int64

	requests atomic.Int64
	// bundles counts how sample-set bundle lookups resolved, tables how
	// learner cost-table lookups did (a table miss is a fill).
	bundles, tables flightCounts
	// derived counts the bundle misses that built at least one set from
	// a cached sibling's (see drawSets), and samplesDrawn the samples
	// that the shard's bundle misses drew.
	derived, samplesDrawn atomic.Int64

	// metrics, when set, receives the queue wait and compute time of
	// every pool run (see run). Set once at server construction, before
	// any traffic.
	metrics *serverMetrics
}

// flightCounts counts how a shard's flight-group lookups resolved, by
// status.
type flightCounts struct {
	hits, misses, coalesced atomic.Int64
}

func (c *flightCounts) add(status string) {
	switch status {
	case StatusHit:
		c.hits.Add(1)
	case StatusCoalesced:
		c.coalesced.Add(1)
	case StatusMiss:
		c.misses.Add(1)
	}
}

func newShard(workers int, cacheBytes int64, admitLimit int) *shard {
	if admitLimit < 1 {
		admitLimit = 1
	}
	c := newCache(cacheBytes)
	c.familyOf = setsFamily
	return &shard{
		pool:       par.NewPool(workers),
		cache:      c,
		group:      newFlightGroup(c),
		admitLimit: admitLimit,
	}
}

func (sh *shard) close() { sh.pool.Close() }

// acquire admits one request to the shard, or sheds it: when the shard
// already has admitLimit requests in flight (executing or waiting for a
// pool worker), the request is refused before it can block on Pool.Do,
// and the caller answers 429. Call release exactly once per successful
// acquire.
func (sh *shard) acquire() bool {
	if sh.inflight.Add(1) > int64(sh.admitLimit) {
		sh.inflight.Add(-1)
		sh.shed.Add(1)
		return false
	}
	return true
}

func (sh *shard) release() { sh.inflight.Add(-1) }

// tabulated returns the immutable value for key via the shard's
// flightGroup: a cache hit returns immediately; a request that finds
// the key being built waits for the leader and shares its result
// without occupying a pool worker; otherwise the caller becomes the
// leader and builds on the shard pool (bounded by the pool size). The
// returned status says which path was taken. ctx (the request's
// context) bounds a follower's wait: a disconnected client's request
// stops waiting and errors so its admission slots free promptly,
// without disturbing the leader's build.
//
// build must be a pure function of key — that is what makes hit, miss,
// and coalesced responses indistinguishable in content. A panic inside
// build is contained to this request (and its coalesced followers) as an
// error; nothing is cached and the server stays up.
func (sh *shard) tabulated(ctx context.Context, act *trace.Active, key string, build func() (val any, bytes int64)) (any, string, error) {
	return sh.resolve(ctx, act, key, "", trace.SpanTabulate, &sh.bundles, func() (any, int64, error) {
		val, bytes := build()
		return val, bytes, nil
	})
}

// learnTable returns the learner cost table for the bundle cached under
// key and the scan mode (full or fast), the way tabulated returns the
// bundle: a table already attached to the bundle's entry returns at
// once, a request that finds it being filled waits for that fill
// without occupying a pool worker, and otherwise the caller fills it on
// the shard pool and attaches it to the entry, charged to the cache
// budget and retired with the bundle. The handler calls it after
// tabulated and before its algorithm run: a fill nested in a pool task
// could deadlock a one-worker shard. A failed or panicking fill is
// contained to this request and its coalesced followers, and nothing is
// kept.
func (sh *shard) learnTable(ctx context.Context, act *trace.Active, key string, full bool, fill func() (val any, bytes int64, err error)) (any, string, error) {
	name := "learn/fast"
	if full {
		name = "learn/full"
	}
	return sh.resolve(ctx, act, key, name, trace.SpanTable, &sh.tables, fill)
}

// resolve builds or fetches the value named (key, name) through the
// shard's flightGroup (see flightGroup.doAttached), building on the
// shard pool, records the phase as one span named span with the path
// taken in its note, and counts that path in counts.
func (sh *shard) resolve(ctx context.Context, act *trace.Active, key, name, span string, counts *flightCounts, build func() (any, int64, error)) (any, string, error) {
	st := act.Begin(span)
	v, status, err := sh.group.doAttached(ctx, key, name, func() (any, int64, error) {
		var (
			val   any
			bytes int64
			err   error
		)
		if rerr := sh.run(nil, func() { val, bytes, err = build() }); rerr != nil {
			return nil, 0, rerr
		}
		return val, bytes, err
	})
	// One span for the whole phase — a hit is ~instant, a miss covers the
	// leader's build, a coalesced wait covers the follower's wait.
	st.End(status)
	counts.add(status)
	return v, status, err
}

// run executes fn on the shard pool, bounding the shard's concurrent
// compute to the pool size and containing panics: a panicking fn becomes
// an error for this request instead of a process crash (the pool worker
// goroutine has no net/http recover above it). It times every run once:
// the queue wait the pool reports and the compute after it feed
// khist_pool_wait and khist_compute, and an algorithm run (act set)
// records the same two as its queue_wait and compute spans. Bundle draws
// and table fills pass a nil act: their phase is one span (see resolve).
func (sh *shard) run(act *trace.Active, fn func()) (err error) {
	t0 := time.Now()
	wait := sh.pool.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: compute panic: %v", p)
			}
		}()
		fn()
	})
	compute := time.Since(t0) - wait
	if m := sh.metrics; m != nil {
		m.poolWait.Observe(wait)
		m.compute.Observe(compute)
	}
	act.Add(trace.SpanQueueWait, t0, wait, "")
	act.Add(trace.SpanCompute, t0.Add(wait), compute, "")
	return err
}
