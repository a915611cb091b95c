package dist

import (
	"math"
	"unsafe"
)

// Fingerprints are the cache-key currency of the serving layer: a
// Distribution or Empirical hashes to one uint64 that is a pure function
// of its content, so two structurally equal values always collide on the
// same cache slot and unequal values almost never do. The hash is FNV-1a
// over a fixed traversal order, making it stable across processes,
// platforms, and worker counts (no map iteration, no pointers).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one word into an FNV-1a state, byte by byte.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// HashFloats returns the FNV-1a content hash of a float64 slice (bit
// patterns, in order). The serving layer keys inline-weight sources with
// it; it shares the mixing function of the Fingerprint methods so all
// content hashes in the module agree on one scheme.
func HashFloats(w []float64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range w {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

// Fingerprint returns a content hash of the distribution: a pure function
// of (n, pmf). Equal pmfs always fingerprint equally; the serving layer
// uses it to key registered sources.
func (d *Distribution) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(d.N()))
	for _, p := range d.pmf {
		h = fnvMix(h, math.Float64bits(p))
	}
	return h
}

// Fingerprint returns a content hash of the tabulation: a pure function of
// (n, m, occurrence counts). Two Empiricals built from the same multiset
// of samples over the same domain always fingerprint equally, regardless
// of sample order or construction parallelism. The serving layer uses it
// to validate cached sample sets.
func (e *Empirical) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(e.n))
	h = fnvMix(h, uint64(e.m))
	for v, c := range e.occ {
		if c != 0 {
			h = fnvMix(h, uint64(v))
			h = fnvMix(h, uint64(c))
		}
	}
	return h
}

// FingerprintWithVersion mixes a monotonic version into the
// tabulation's content hash. Streaming sources key their snapshots
// with it: two snapshots of one stream differ in fingerprint even when
// their tabulated counts happen to coincide, so every cache keyed by
// fingerprint (sample sets, responses, warmed bundles) distinguishes
// stream states without any stream-specific key plumbing.
func (e *Empirical) FingerprintWithVersion(v uint64) uint64 {
	return fnvMix(e.Fingerprint(), v)
}

// SizeBytes returns the approximate heap bytes retained by the
// tabulation: the three length-n(+1) int64 arrays plus the struct itself.
// The serve cache sums it to enforce its -cache-bytes budget; it
// deliberately counts capacity the tabulation will hold for its lifetime,
// not transient construction scratch.
func (e *Empirical) SizeBytes() int64 {
	return structBytes + wordBytes*(int64(cap(e.occ))+int64(cap(e.cumHits))+int64(cap(e.cumColl)))
}

// The units of SizeBytes: the struct, its slice headers and draw marker
// included, and one array element.
const (
	structBytes = int64(unsafe.Sizeof(Empirical{}))
	wordBytes   = 8
)
