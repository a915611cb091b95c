//go:build !race

package serve

import (
	"testing"
)

// TestRespCacheGetZeroAlloc pins the response-cache hit path at zero
// allocations: a lookup that built a body-sized key string would
// allocate on every request, hit or miss; the lookup reads the body
// through a no-copy view instead. The race detector instruments
// allocations, so this runs without -race only.
func TestRespCacheGetZeroAlloc(t *testing.T) {
	rc := newRespCache(2, 1<<20)
	body := []byte(`{"tenant":"acme","source":{"gen":"zipf","n":64},"k":3,"eps":0.3,"cap":400,"seed":7}`)
	rc.put(epLearn, false, body, &respEntry{
		tenant: "acme", sourceKey: "src", bundleKey: "b1",
		contentType: jsonContentType, body: []byte(`{"ok":true}`),
	})
	if rc.get(epLearn, false, body) == nil {
		t.Fatal("warm-up hit missed")
	}

	missed := false
	avg := testing.AllocsPerRun(2000, func() {
		if rc.get(epLearn, false, body) == nil {
			missed = true
		}
	})
	if missed {
		t.Fatal("entry vanished during the measurement")
	}
	if avg != 0 {
		t.Fatalf("respCache.get allocates %v allocs/op on the hit path, want 0", avg)
	}

	// The miss path may allocate (it doesn't — but only the hit path is
	// contractual); it must at least not hit.
	if rc.get(epLearn, true, body) != nil {
		t.Fatal("binary-encoding lookup unexpectedly hit the JSON entry")
	}
}

// TestRespCachePeekZeroAlloc pins the routing peek of a batch item at
// zero allocations, hit or miss: every item of every envelope makes one
// before it is routed.
func TestRespCachePeekZeroAlloc(t *testing.T) {
	rc := newRespCache(2, 1<<20)
	body := []byte(`{"tenant":"acme","source":{"gen":"zipf","n":64},"k":3,"eps":0.3,"cap":400,"seed":7}`)
	rc.put(epLearn, false, body, &respEntry{
		tenant: "acme", sourceKey: "src", bundleKey: "b1",
		contentType: jsonContentType, body: []byte(`{"ok":true}`),
	})
	missed := false
	avg := testing.AllocsPerRun(2000, func() {
		if rc.peek(epLearn, false, body) == nil || rc.peek(epLearn, true, body) != nil {
			missed = true
		}
	})
	if missed {
		t.Fatal("peek lost the entry or found the binary rendering")
	}
	if avg != 0 {
		t.Fatalf("respCache.peek allocates %v allocs/op, want 0", avg)
	}
}

// TestRespCacheDisabledPutZeroAlloc pins a disabled cache's put at zero
// allocations: it returns before copying the request body into the
// entry's key string, which it would never store.
func TestRespCacheDisabledPutZeroAlloc(t *testing.T) {
	rc := newRespCache(2, 0)
	body := []byte(`{"tenant":"acme","source":{"gen":"zipf","n":64},"k":3,"eps":0.3,"cap":400,"seed":7}`)
	e := &respEntry{
		tenant: "acme", sourceKey: "src", bundleKey: "b1",
		contentType: jsonContentType, body: []byte(`{"ok":true}`),
	}
	if avg := testing.AllocsPerRun(2000, func() { rc.put(epLearn, false, body, e) }); avg != 0 {
		t.Fatalf("disabled respCache.put allocates %v allocs/op, want 0", avg)
	}
	if rc.get(epLearn, false, body) != nil || rc.stats().Entries != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestBatchPlanCacheHitZeroAlloc pins a plan-cache hit lookup at zero
// allocations: handleBatch looks the envelope up through a no-copy
// view, where a key built from the envelope would copy all of it on
// every /v1/batch, hit or miss.
func TestBatchPlanCacheHitZeroAlloc(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, WorkersPerShard: 1, CacheBytes: 1 << 20, ResponseCacheBytes: 1 << 20})
	defer s.Close()
	env := []byte(`{"items":[{"op":"learn","req":{"tenant":"acme","source":{"gen":"zipf","n":64},"k":3,"eps":0.3,"cap":400,"seed":7}}]}`)
	if w := post(s.Handler(), "/v1/batch", string(env)); w.Code != 200 {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body.String())
	}
	if s.cachedPlan(env) == nil {
		t.Fatal("the envelope's plan was not cached")
	}
	missed := false
	avg := testing.AllocsPerRun(2000, func() {
		if s.cachedPlan(env) == nil {
			missed = true
		}
	})
	if missed {
		t.Fatal("plan vanished during the measurement")
	}
	if avg != 0 {
		t.Fatalf("plan-cache hit lookup allocates %v allocs/op, want 0", avg)
	}
}
