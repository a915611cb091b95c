package serve

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup is the serving layer's one singleflight-over-cache
// implementation: a cache (on the lru core) in front of a coalescing
// table, so an immutable value is built at most once across concurrent
// callers and successful builds are published for later hits. Both the
// shard's sample-set tabulations and the source registry's O(n)
// constructions go through it — one copy of the subtle concurrency
// (done-channel fan-out, publish-successes-only, delete-then-close
// ordering) to maintain.
type flightGroup struct {
	cache *cache

	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress build: followers wait on done and then
// share val (or the leader's error). val is immutable once done closes.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup(c *cache) *flightGroup {
	return &flightGroup{cache: c, flights: make(map[string]*flight)}
}

// do returns the immutable value for key, building it at most once
// across concurrent callers: a cache hit returns immediately; a caller
// that finds the key being built waits for the leader and shares its
// result; otherwise the caller becomes the leader, builds, and
// publishes to the cache (successes only — a failed build is retried
// by the next caller, never cached). The returned status says which
// path was taken (StatusHit, StatusCoalesced, StatusMiss).
//
// ctx bounds only the *waiting*: a follower whose context is cancelled
// (its client disconnected) stops waiting and returns ctx's error, so
// the admission slots its request holds are released promptly instead
// of until the leader finishes. The leader deliberately ignores ctx —
// its build may be shared by followers whose clients are still there,
// and an immutable value is worth publishing even if its first
// requester left.
//
// build must be a pure function of key — that is what makes hit, miss,
// and coalesced results indistinguishable in content.
func (g *flightGroup) do(ctx context.Context, key string, build func() (val any, bytes int64, err error)) (any, string, error) {
	return g.doAttached(ctx, key, "", build)
}

// doAttached is do for the value attached as name to the entry cached
// under key (see cache.attach); name "" means the entry's own value. A
// hit is a value already attached; a build is published only while the
// entry is cached, and leaves with it. Flights are keyed by (key, name),
// so an attached value coalesces apart from its entry, and build must be
// a pure function of both.
func (g *flightGroup) doAttached(ctx context.Context, key, name string, build func() (val any, bytes int64, err error)) (any, string, error) {
	flightKey := key
	if name != "" {
		flightKey = key + "\x00" + name
	}
	g.mu.Lock()
	if v, ok := g.lookup(key, name); ok {
		g.mu.Unlock()
		return v, StatusHit, nil
	}
	if f, ok := g.flights[flightKey]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, StatusCoalesced, f.err
		case <-ctx.Done():
			return nil, StatusCoalesced, fmt.Errorf("serve: abandoned wait for %q: %w", key, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[flightKey] = f
	g.mu.Unlock()

	// Contain build panics here, not just in callers: if the leader
	// unwound past the cleanup below, the flight would stay in-flight
	// forever and every later request for the key would hang on done.
	// (The shard path also recovers inside pool tasks; the registry
	// path runs builds inline and relies on this recover.)
	var bytes int64
	func() {
		defer func() {
			if p := recover(); p != nil {
				f.err = fmt.Errorf("serve: build panic: %v", p)
			}
		}()
		f.val, bytes, f.err = build()
	}()

	g.mu.Lock()
	if f.err == nil {
		if name == "" {
			g.cache.put(key, f.val, bytes)
		} else {
			g.cache.attach(key, name, f.val, bytes)
		}
	}
	delete(g.flights, flightKey)
	g.mu.Unlock()
	close(f.done)
	return f.val, StatusMiss, f.err
}

// lookup returns the cached value for (key, name), as doAttached names
// it.
func (g *flightGroup) lookup(key, name string) (any, bool) {
	if name == "" {
		return g.cache.get(key)
	}
	return g.cache.attached(key, name)
}
