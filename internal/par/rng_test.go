package par

import (
	"math"
	"testing"
)

// sourceBefore returns a source whose next output word is z.
func sourceBefore(z uint64) *Source { return NewSource(Unmix(z) - Gamma) }

func TestUnmixInvertsFinalizer(t *testing.T) {
	for _, z := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64, 1 << 63} {
		if got := sourceBefore(z).Uint64(); got != z {
			t.Fatalf("placed word %#x, drew %#x", z, got)
		}
	}
}
