package dist

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestBundleRoundTripPreservesFingerprint is the cluster tier's codec
// contract: an Empirical shipped between nodes as (n, occ) pairs must
// decode to a tabulation that fingerprints identically and answers every
// interval query identically.
func TestBundleRoundTripPreservesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sets []*Empirical
	// Shapes that stress the encoding: empty, dense, sparse, single
	// value repeated, empty domain.
	sets = append(sets, NewEmpirical(nil, 64))
	dense := make([]int, 4096)
	for i := range dense {
		dense[i] = rng.Intn(128)
	}
	sets = append(sets, NewEmpirical(dense, 128))
	sparse := []int{0, 0, 999_999, 500_000}
	sets = append(sets, NewEmpirical(sparse, 1_000_000))
	sets = append(sets, NewEmpirical([]int{3, 3, 3, 3, 3}, 8))
	sets = append(sets, NewEmpirical(nil, 0))

	enc := EncodeEmpiricalBundle(sets)
	dec, err := DecodeEmpiricalBundle(enc, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(sets) {
		t.Fatalf("decoded %d sets, want %d", len(dec), len(sets))
	}
	for i, want := range sets {
		got := dec[i]
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("set %d: fingerprint %016x != %016x after round trip", i, got.Fingerprint(), want.Fingerprint())
		}
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("set %d: shape (%d,%d) != (%d,%d)", i, got.N(), got.M(), want.N(), want.M())
		}
		for trial := 0; trial < 32; trial++ {
			lo := rng.Intn(want.N() + 1)
			hi := lo + rng.Intn(want.N()-lo+1)
			iv := Interval{Lo: lo, Hi: hi}
			if got.Hits(iv) != want.Hits(iv) || got.SelfCollisions(iv) != want.SelfCollisions(iv) {
				t.Fatalf("set %d interval %+v: stats diverge after round trip", i, iv)
			}
		}
	}

	// A second encode of the decoded sets is byte-identical: the wire
	// form is canonical, so nodes can compare bundles bytewise.
	if re := EncodeEmpiricalBundle(dec); string(re) != string(enc) {
		t.Fatal("re-encoding a decoded bundle changed the bytes")
	}
}

// TestBundleDecodeRejectsCorruption: the decoder faces bytes from the
// network, so structural damage must be an error, never a panic or a
// silently wrong tabulation.
func TestBundleDecodeRejectsCorruption(t *testing.T) {
	good := EncodeEmpiricalBundle([]*Empirical{NewEmpirical([]int{1, 2, 2, 7}, 16)})

	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte("nope"), good[4:]...),
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeEmpiricalBundle(data, 0); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A huge value delta (a valid uvarint that would wrap the index
	// negative if applied unchecked) must be an error, not a panic: the
	// bytes come off the network.
	evil := append([]byte(bundleMagic), 1)                                             // one set
	evil = append(evil, 16, 4, 1)                                                      // n=16, m=4, nnz=1
	evil = append(evil, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 4) // delta=2^63+..., occ=4
	if _, err := DecodeEmpiricalBundle(evil, 0); err == nil {
		t.Error("wrapping value delta decoded without error")
	}

	// An occ count past the claimed sample total is rejected before the
	// final checksum (guarding the sum against uint64 wrap games).
	big := append([]byte(bundleMagic), 1)
	big = append(big, 16, 4, 2)  // n=16, m=4, nnz=2
	big = append(big, 0, 200, 1) // occ 200 > m=4... (varint 200 is 2 bytes)
	if _, err := DecodeEmpiricalBundle(big, 0); err == nil {
		t.Error("occ count past the sample total decoded without error")
	}

	// Checksum: flip an occ count so the pair sum disagrees with m.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1]++ // last varint byte is the final occ count
	if _, err := DecodeEmpiricalBundle(bad, 0); err == nil {
		t.Error("corrupted occ count decoded without error")
	}

	// Domain ceiling: a peer cannot force an allocation past maxDomain.
	if _, err := DecodeEmpiricalBundle(good, 8); err == nil {
		t.Error("domain 16 decoded under a ceiling of 8")
	}
	if _, err := DecodeEmpiricalBundle(good, 16); err != nil {
		t.Errorf("domain 16 rejected under a ceiling of 16: %v", err)
	}
}

// fuzzMaxDomain is the decode ceiling FuzzDecodeEmpiricalBundle runs
// under: small, so a hostile input's per-set allocation stays cheap.
const fuzzMaxDomain = 256

// FuzzDecodeEmpiricalBundle feeds the peer-facing bundle decoder
// arbitrary bytes. It must never panic. It may allocate at most what
// the sets the input has room for cost at the maxDomain ceiling: the
// decoded sets, each at most three (maxDomain+1)-long int64 arrays,
// number at most a third of the input's bytes. And every bundle it
// accepts must re-encode to bytes that decode to the same tabulations.
// The seed corpus is in testdata/fuzz/FuzzDecodeEmpiricalBundle.
func FuzzDecodeEmpiricalBundle(f *testing.F) {
	f.Add(EncodeEmpiricalBundle([]*Empirical{NewEmpirical([]int{1, 2, 2, 7}, 16)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sets, err := DecodeEmpiricalBundle(data, fuzzMaxDomain)
		runtime.ReadMemStats(&after)
		const perSet = 2*3*8*(fuzzMaxDomain+1) + 256 // size-class rounding at most doubles
		bound := uint64(len(data)/3+1)*perSet + 8*uint64(len(data)) + 16<<10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		again, err := DecodeEmpiricalBundle(EncodeEmpiricalBundle(sets), fuzzMaxDomain)
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
		if len(again) != len(sets) {
			t.Fatalf("re-decoded %d sets, want %d", len(again), len(sets))
		}
		for i, e := range sets {
			if e.N() > fuzzMaxDomain {
				t.Fatalf("set %d has domain %d past the ceiling %d", i, e.N(), fuzzMaxDomain)
			}
			if again[i].Fingerprint() != e.Fingerprint() || again[i].N() != e.N() || again[i].M() != e.M() {
				t.Fatalf("set %d changed across a re-encode", i)
			}
		}
	})
}
