package serve

import "testing"

// TestDisabledCacheRejectsZeroByteEntries is the regression test for the
// put guard: with a non-positive budget (caching disabled) a zero-byte
// entry used to slip past the `bytes > capBytes` check (0 > 0 is false)
// and get cached — a "disabled" cache serving hits. The guard must be
// explicit about both the disabled budget and weightless entries.
func TestDisabledCacheRejectsZeroByteEntries(t *testing.T) {
	for _, capBytes := range []int64{0, -1} {
		c := newCache(capBytes)
		c.put("k", "v", 0)
		if _, ok := c.get("k"); ok {
			t.Fatalf("cap %d: zero-byte entry was cached in a disabled cache", capBytes)
		}
		if entries, used := c.stats(); entries != 0 || used != 0 {
			t.Fatalf("cap %d: disabled cache holds %d entries / %d bytes", capBytes, entries, used)
		}
	}
}

// TestEnabledCacheRejectsWeightlessEntries: even with a positive budget,
// entries accounted at <= 0 bytes must not be admitted — they would
// never be reclaimed by eviction (which only frees accounted bytes).
func TestEnabledCacheRejectsWeightlessEntries(t *testing.T) {
	c := newCache(1 << 10)
	c.put("zero", "v", 0)
	c.put("negative", "v", -8)
	for _, key := range []string{"zero", "negative"} {
		if _, ok := c.get(key); ok {
			t.Fatalf("weightless entry %q was cached", key)
		}
	}
	// Sanity: normally weighted entries still work.
	c.put("real", "v", 8)
	if _, ok := c.get("real"); !ok {
		t.Fatal("positively weighted entry missing after put")
	}
}

// TestCacheBudgetStillEvicts guards that the new put guard did not break
// the LRU: entries beyond the budget evict oldest-first.
func TestCacheBudgetStillEvicts(t *testing.T) {
	c := newCache(100)
	c.put("a", 1, 60)
	c.put("b", 2, 60) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived an over-budget put")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("b missing after eviction pass")
	}
	if entries, used := c.stats(); entries != 1 || used != 60 {
		t.Fatalf("stats = %d entries / %d bytes, want 1/60", entries, used)
	}
}

// TestCacheAttach pins the attached-value lifecycle: a value attached to
// an entry is charged to the cache, never outlives the entry (LRU
// eviction and remove drop both and report both in the flow counters),
// survives a refresh of its entry, and is refused when there is no entry
// or the entry would outgrow the budget.
func TestCacheAttach(t *testing.T) {
	c := newCache(100)
	var evicted []string
	c.onEvict = func(key string) { evicted = append(evicted, key) }

	c.attach("missing", "t", "x", 10)
	if _, ok := c.attached("missing", "t"); ok || c.attachedStats() != 0 {
		t.Fatal("value attached to an uncached key")
	}

	c.put("a", 1, 30)
	c.attach("a", "t", "ta", 40)
	c.attach("a", "t", "again", 5) // already attached: kept as is
	c.attach("a", "big", "x", 31)  // a would outgrow the budget
	if v, ok := c.attached("a", "t"); !ok || v != "ta" {
		t.Fatalf("attached(a, t) = %v, %t; want ta", v, ok)
	}
	if _, ok := c.attached("a", "big"); ok {
		t.Fatal("attachment that outgrows the budget was kept")
	}
	if entries, used := c.stats(); entries != 1 || used != 70 || c.attachedStats() != 40 {
		t.Fatalf("stats = %d entries / %d bytes / %d attached, want 1/70/40", entries, used, c.attachedStats())
	}
	c.get("a")
	if hit, ins, _, _ := c.flowStats(); hit != 30 || ins != 70 {
		t.Fatalf("flow = %d hit / %d inserted bytes, want 30/70", hit, ins)
	}

	// Refreshing the entry keeps what is attached to it.
	c.put("a", 1, 30)
	if _, ok := c.attached("a", "t"); !ok {
		t.Fatal("refresh dropped the attached value")
	}

	// LRU pressure evicts the entry with its attachment.
	c.put("b", 2, 40)
	if _, ok := c.attached("a", "t"); ok {
		t.Fatal("attached value outlived its evicted entry")
	}
	if entries, used := c.stats(); entries != 1 || used != 40 || c.attachedStats() != 0 {
		t.Fatalf("after eviction: %d entries / %d bytes / %d attached, want 1/40/0", entries, used, c.attachedStats())
	}
	if _, _, ev, evB := c.flowStats(); ev != 1 || evB != 70 {
		t.Fatalf("eviction flow = %d / %d bytes, want 1 / 70", ev, evB)
	}

	// remove drops an entry with its attachment too.
	c.attach("b", "t", "tb", 50)
	c.remove("b")
	if entries, used := c.stats(); entries != 0 || used != 0 || c.attachedStats() != 0 {
		t.Fatalf("after remove: %d entries / %d bytes / %d attached, want 0/0/0", entries, used, c.attachedStats())
	}
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("onEvict fired for %v, want [a b]", evicted)
	}
}
