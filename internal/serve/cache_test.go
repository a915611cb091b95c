package serve

import (
	"slices"
	"testing"
)

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

// TestCacheFamilyIndex pins the shard cache's family index: the bundles
// of one (source, seed) are listed in insertion order, keys of other
// families and non-bundle keys apart; the lookup is no hit (LRU order
// and hit bytes untouched); and a re-put, an LRU eviction and a remove
// keep the index in step with the entries.
func TestCacheFamilyIndex(t *testing.T) {
	c := newCache(100)
	c.familyOf = setsFamily
	fa := setsFamily(setsKey(1, 7, 0, 1, 10))
	fb := setsFamily(setsKey(2, 7, 0, 1, 10))
	if fa == "" || fa == fb || fa != setsFamily(setsKey(1, 7, 5, 3, 20)) || fa == setsFamily(setsKey(1, 8, 0, 1, 10)) {
		t.Fatalf("families %q and %q: want one per (source, seed) whatever the sizes", fa, fb)
	}
	c.put(setsKey(1, 7, 0, 1, 10), "a10", 20)
	c.put("sets2d|4x4|fp=0000000000000001|seed=7|m=10", "grid", 20)
	c.put(setsKey(2, 7, 0, 1, 10), "b10", 20)
	c.put(setsKey(1, 7, 0, 1, 12), "a12", 20)
	c.put(setsKey(1, 7, 0, 1, 10), "a10'", 20) // a re-put: one entry
	if got := c.family(fa, 16); !slices.Equal(got, []any{"a10'", "a12"}) {
		t.Fatalf("family a = %v, want [a10' a12]", got)
	}
	if got := c.family(fb, 16); !slices.Equal(got, []any{"b10"}) {
		t.Fatalf("family b = %v, want [b10]", got)
	}
	hitBytes, _, _, _ := c.flowStats()
	// b10 and the grid entry are the least recently used: listing b10's
	// family must not save it from eviction by touching it.
	c.family(fb, 16)
	c.put("other", "x", 60) // evicts the grid and b10
	if got, _, _, _ := c.flowStats(); got != hitBytes {
		t.Fatalf("family lookups counted %d hit bytes", got-hitBytes)
	}
	if got := c.family(fb, 16); got != nil {
		t.Fatalf("evicted family b still lists %v", got)
	}
	c.put("more", "y", 20) // evicts a12, the oldest
	if got := c.family(fa, 16); !slices.Equal(got, []any{"a10'"}) {
		t.Fatalf("family a after eviction = %v, want [a10']", got)
	}
	c.remove(setsKey(1, 7, 0, 1, 10))
	if got := c.family(fa, 16); got != nil {
		t.Fatalf("family a after remove = %v, want none", got)
	}
	if len(c.families) != 0 {
		t.Fatalf("index keeps %d empty families", len(c.families))
	}

	// A lookup lists at most the newest limit members.
	for i := range 5 {
		c.put(setsKey(1, 7, 0, 1, i), i, 1)
	}
	if got := c.family(fa, 3); !slices.Equal(got, []any{2, 3, 4}) {
		t.Fatalf("newest 3 of family a = %v, want [2 3 4]", got)
	}
}
