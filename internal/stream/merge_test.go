package stream

import (
	"math/rand"
	"testing"
)

// The reservoir merge behind TStream.Merge: proportional apportionment
// by stream length, quota caps, and uniformity of the merged sample.

func TestReservoirView(t *testing.T) {
	items := []int{5, 6, 7}
	v := ReservoirView(items, 42)
	if v.Len() != 3 || v.Seen() != 42 {
		t.Fatalf("view shape: len=%d seen=%d", v.Len(), v.Seen())
	}
	items[0] = 99 // the view must hold a copy
	if got := v.Items(); got[0] != 5 {
		t.Errorf("view aliases the caller's slice: items[0] = %d", got[0])
	}
	if empty := ReservoirView(nil, 0); empty.Len() != 0 || empty.Cap() < 1 {
		t.Errorf("empty view: len=%d cap=%d", empty.Len(), empty.Cap())
	}
}

func TestMergeReservoirsValidation(t *testing.T) {
	if _, err := MergeReservoirs(0, rand.New(rand.NewSource(1))); err != ErrBadCapacity {
		t.Errorf("capacity 0: err = %v, want ErrBadCapacity", err)
	}
}

// TestMergeReservoirsProportional checks the apportionment: sources
// contribute in proportion to their stream lengths (Seen), not their
// held sizes, and the sources themselves are never modified.
func TestMergeReservoirsProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Shard A saw 9000 elements (all value 1), shard B saw 1000 (value 2);
	// both hold 200-item samples.
	mk := func(v int, seen int64) *Reservoir {
		items := make([]int, 200)
		for i := range items {
			items[i] = v
		}
		return ReservoirView(items, seen)
	}
	a, b := mk(1, 9000), mk(2, 1000)
	merged, err := MergeReservoirs(100, rng, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Seen() != 10000 {
		t.Errorf("merged Seen = %d, want 10000", merged.Seen())
	}
	var ones, twos int
	for _, v := range merged.Items() {
		switch v {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	if ones+twos != merged.Len() {
		t.Fatalf("merged sample holds foreign values")
	}
	// Largest-remainder quotas are deterministic: 90/10.
	if ones != 90 || twos != 10 {
		t.Errorf("composition = %d/%d, want 90/10", ones, twos)
	}
	if a.Len() != 200 || b.Len() != 200 || a.Seen() != 9000 {
		t.Errorf("sources modified by merge")
	}
}

// TestMergeReservoirsQuotaCap checks a source never contributes more
// items than it holds, even when its stream weight earns it more slots.
func TestMergeReservoirsQuotaCap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	big := ReservoirView([]int{1, 1, 1}, 1_000_000) // heavy stream, tiny sample
	small := ReservoirView(make([]int, 100), 10)
	merged, err := MergeReservoirs(50, rng, big, small)
	if err != nil {
		t.Fatal(err)
	}
	var ones int
	for _, v := range merged.Items() {
		if v == 1 {
			ones++
		}
	}
	if ones > big.Len() {
		t.Errorf("source contributed %d items but holds only %d", ones, big.Len())
	}
	if merged.Len() > 50 {
		t.Errorf("merged len %d exceeds capacity", merged.Len())
	}
}

// TestMergeReservoirsUniform feeds one uniform stream round-robin
// through four reservoirs, merges, and checks the merged sample's
// per-value frequencies are consistent with a uniform draw from the
// stream.
func TestMergeReservoirsUniform(t *testing.T) {
	const (
		shards  = 4
		perCap  = 512
		values  = 8
		n       = 100000
		mergeTo = shards * perCap
	)
	rngs := make([]*rand.Rand, shards)
	res := make([]*Reservoir, shards)
	for i := range res {
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
		res[i], _ = NewReservoir(perCap, rngs[i])
	}
	src := rand.New(rand.NewSource(13))
	for i := 0; i < n; i++ {
		res[i%shards].Observe(src.Intn(values))
	}
	merged, err := MergeReservoirs(mergeTo, rand.New(rand.NewSource(14)), res...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Seen() != n {
		t.Errorf("Seen = %d, want %d", merged.Seen(), n)
	}
	if merged.Len() != mergeTo {
		t.Errorf("Len = %d, want %d (all shards full)", merged.Len(), mergeTo)
	}
	counts := make([]int, values)
	for _, v := range merged.Items() {
		counts[v]++
	}
	// Each value should hold ~1/values of the sample; 4 sigma of a
	// binomial(len, 1/values) is ~±45 here. Allow ±60.
	want := merged.Len() / values
	for v, c := range counts {
		if c < want-60 || c > want+60 {
			t.Errorf("value %d appears %d times, want ~%d", v, c, want)
		}
	}
}
