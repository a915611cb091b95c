package dist

import (
	"math/rand"
	"testing"
	"unsafe"
)

func TestEmpiricalFingerprintContentOnly(t *testing.T) {
	a := NewEmpirical([]int{1, 3, 3, 7, 0}, 10)
	b := NewEmpirical([]int{7, 0, 3, 1, 3}, 10) // same multiset, different order
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint depends on sample order: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	c := NewEmpirical([]int{1, 3, 3, 7, 1}, 10) // different multiset
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("distinct multisets collided: %x", a.Fingerprint())
	}
	d := NewEmpirical([]int{1, 3, 3, 7, 0}, 11) // same samples, different domain
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatalf("distinct domains collided: %x", a.Fingerprint())
	}
}

func TestEmpiricalFingerprintParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]int, 1<<16)
	for i := range samples {
		samples[i] = rng.Intn(512)
	}
	serial := NewEmpirical(samples, 512)
	parallel := NewEmpiricalParallel(samples, 512, 8)
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Fatalf("parallel tabulation changed the fingerprint: %x vs %x",
			serial.Fingerprint(), parallel.Fingerprint())
	}
}

func TestDistributionFingerprint(t *testing.T) {
	a := Zipf(256, 1.1)
	b := Zipf(256, 1.1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal distributions fingerprint differently")
	}
	c := Zipf(256, 1.2)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("distinct distributions collided")
	}
	u := Uniform(256)
	if a.Fingerprint() == u.Fingerprint() {
		t.Fatalf("zipf and uniform collided")
	}
}

func TestEmpiricalSizeBytes(t *testing.T) {
	n := 1000
	e := NewEmpirical([]int{0, 1, 2}, n)
	got := e.SizeBytes()
	// occ is length n, the two prefix arrays length n+1: the struct
	// itself and at least 8*(3n+2) bytes of array payload must be
	// accounted for.
	min := int64(unsafe.Sizeof(Empirical{})) + int64(8*(3*n+2))
	if got < min {
		t.Fatalf("SizeBytes = %d, want at least %d (struct and array payload)", got, min)
	}
	// Kernel-drawn sets carry the same struct.
	drawn := NewEmpiricalFromFork(NewSampler(Uniform(n), nil).(Forkable), 1, 3)
	if drawn.SizeBytes() != got {
		t.Fatalf("a drawn set's SizeBytes = %d, a tabulated one's %d", drawn.SizeBytes(), got)
	}
	// The estimate must stay an estimate of retained arrays, not of the
	// sample count: growing m without growing n must not change it.
	big := NewEmpirical(make([]int, 100000), n)
	if big.SizeBytes() != got {
		t.Fatalf("SizeBytes depends on sample count: %d vs %d", big.SizeBytes(), got)
	}
	// And it must scale with the domain.
	wide := NewEmpirical([]int{0}, 10*n)
	if wide.SizeBytes() <= got {
		t.Fatalf("SizeBytes does not scale with domain: %d vs %d", wide.SizeBytes(), got)
	}
}
