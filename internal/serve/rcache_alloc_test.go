//go:build !race

package serve

import (
	"testing"
)

// TestRespCacheGetZeroAlloc pins the response-cache hit path at zero
// allocations. Before the (endpoint, encoding, body) key split, every
// lookup — hit or miss — built a body-sized key string via respKey's
// concatenation; the nested-map form indexes entries[epKey][string(b)]
// with the compiler's no-copy conversion instead. The race detector
// instruments allocations, so this runs without -race only.
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
