package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightGroupBuildPanicDoesNotWedgeKey: a panicking build must
// become an error for the leader (and any coalesced followers), and the
// key must stay buildable — if the leader unwound past the in-flight
// cleanup, every later request for the key would hang forever on the
// flight's done channel. Registry builds run inline (no pool recover
// above them), so this is the only containment they have.
func TestFlightGroupBuildPanicDoesNotWedgeKey(t *testing.T) {
	g := newFlightGroup(newCache(1 << 10))
	_, status, err := g.do(context.Background(), "k", func() (any, int64, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") || status != StatusMiss {
		t.Fatalf("panicking build: status %q err %v, want miss with contained panic", status, err)
	}
	// The key is not wedged and the failure was not cached.
	v, status, err := g.do(context.Background(), "k", func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || status != StatusMiss || v != "ok" {
		t.Fatalf("retry after panic: v=%v status=%q err=%v", v, status, err)
	}
	if v, status, _ := g.do(context.Background(), "k", nil); status != StatusHit || v != "ok" {
		t.Fatalf("success not cached: v=%v status=%q", v, status)
	}
}

// TestFlightGroupErrorsSharedNotSticky: followers coalesced onto a
// failing leader share its error; the next arrival rebuilds.
func TestFlightGroupErrorsSharedNotSticky(t *testing.T) {
	g := newFlightGroup(newCache(1 << 10))
	boom := errors.New("nope")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, status, err := g.do(context.Background(), "k", func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, boom
		})
		if status != StatusMiss || !errors.Is(err, boom) {
			t.Errorf("leader: status %q err %v", status, err)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		// The follower either coalesces onto the failing leader or
		// arrives after cleanup and rebuilds (also failing); both paths
		// must surface the error and cache nothing.
		_, _, err := g.do(context.Background(), "k", func() (any, int64, error) { return nil, 0, boom })
		if !errors.Is(err, boom) {
			t.Errorf("follower err = %v, want %v", err, boom)
		}
	}()
	close(release)
	wg.Wait()
	if _, status, err := g.do(context.Background(), "k", func() (any, int64, error) { return "ok", 1, nil }); status != StatusMiss || err != nil {
		t.Fatalf("error was cached: status %q err %v", status, err)
	}
}

// TestFlightFollowerCancelReleasesWait is the slot-leak regression: a
// follower whose request context is cancelled (client disconnected)
// must stop waiting on the leader and error immediately — before the
// fix it blocked on <-f.done until the leader finished, holding its
// shard admission slot and tenant in-flight slot the whole time. The
// leader must be undisturbed: it still completes, publishes, and serves
// later callers.
func TestFlightFollowerCancelReleasesWait(t *testing.T) {
	g := newFlightGroup(newCache(1 << 10))
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (any, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, "k", func() (any, int64, error) {
			t.Error("follower built instead of coalescing")
			return nil, 0, nil
		})
		followerDone <- err
	}()
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower still blocked on the leader's flight")
	}

	// The leader is undisturbed: it finishes, and the value is cached.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower abandoned: %v", err)
	}
	if v, status, err := g.do(context.Background(), "k", nil); status != StatusHit || v != "v" || err != nil {
		t.Fatalf("post-abandon lookup: v=%v status=%q err=%v", v, status, err)
	}
}

// TestFlightGroupAttached: an attached value is published only while its
// entry is cached, then hits, and is built apart from the entry's own
// value and from other names. Concurrent callers share one build
// through the same flight code as do (TestConcurrentClientsDeterministic
// counts one fill for 16 clients).
func TestFlightGroupAttached(t *testing.T) {
	g := newFlightGroup(newCache(1 << 10))
	builds := 0
	build := func() (any, int64, error) { builds++; return "table", 8, nil }

	// No entry yet: the value is built and served but not kept.
	for i := 0; i < 2; i++ {
		if v, status, err := g.doAttached(context.Background(), "k", "fast", build); v != "table" || status != StatusMiss || err != nil {
			t.Fatalf("uncached entry: v=%v status=%q err=%v", v, status, err)
		}
	}
	if builds != 2 {
		t.Fatalf("%d builds without an entry to keep them, want 2", builds)
	}

	g.do(context.Background(), "k", func() (any, int64, error) { return "bundle", 8, nil })
	g.doAttached(context.Background(), "k", "fast", build)
	if v, status, _ := g.doAttached(context.Background(), "k", "fast", build); v != "table" || status != StatusHit {
		t.Fatalf("attached lookup: v=%v status=%q, want a hit", v, status)
	}
	if v, status, _ := g.do(context.Background(), "k", nil); v != "bundle" || status != StatusHit {
		t.Fatalf("entry lookup: v=%v status=%q, want the bundle", v, status)
	}
	if _, status, _ := g.doAttached(context.Background(), "k", "full", build); status != StatusMiss {
		t.Fatalf("another name: status %q, want its own build", status)
	}
}
