package par

import (
	"math"
	"math/rand"
	"testing"
)

// unmix inverts the SplitMix64 finalizer: unmix(z) is the state whose
// output word is z. The finalizer is a bijection (xor-shifts and odd
// multiplies), so any output word can be placed on purpose.
func unmix(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= mulInverse(splitmixMulB)
	z = unxorshift(z, 27)
	z *= mulInverse(splitmixMulA)
	return unxorshift(z, 30)
}

// unxorshift inverts x ^ (x >> k): each pass recovers k more high bits.
func unxorshift(z uint64, k uint) uint64 {
	x := z
	for i := uint(0); i < 64; i += k {
		x = z ^ (x >> k)
	}
	return x
}

// mulInverse returns the inverse of an odd a modulo 2^64 by Newton's
// iteration; a*a = 1 mod 8 seeds it with 3 correct bits, and each step
// doubles them.
func mulInverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// sourceBefore returns a source whose next output word is z.
func sourceBefore(z uint64) *Source { return NewSource(unmix(z) - splitmixGamma) }

func TestUnmixInvertsFinalizer(t *testing.T) {
	for _, z := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64, 1 << 63} {
		if got := sourceBefore(z).Uint64(); got != z {
			t.Fatalf("placed word %#x, drew %#x", z, got)
		}
	}
}

// pair is a concrete source and a rand.Rand over an identical twin, so
// every call can be compared by value and by the state it leaves.
type pair struct {
	got, ref *Source
	r        *rand.Rand
}

func newPair(src *Source) pair {
	ref := *src
	return pair{got: src, ref: &ref, r: rand.New(&ref)}
}

// words returns the output words the last call consumed, given the
// state before it.
func words(before, after uint64) uint64 { return (after - before) * mulInverse(splitmixGamma) }

func (p pair) intn(t *testing.T, n int) (consumed uint64) {
	t.Helper()
	before := p.got.state
	got, want := p.got.Intn(n), p.r.Intn(n)
	if got != want {
		t.Fatalf("Intn(%d) = %d, rand.Rand.Intn = %d", n, got, want)
	}
	if p.got.state != p.ref.state {
		t.Fatalf("Intn(%d): state %#x, rand.Rand left %#x", n, p.got.state, p.ref.state)
	}
	return words(before, p.got.state)
}

func (p pair) float64(t *testing.T) (consumed uint64) {
	t.Helper()
	before := p.got.state
	got, want := p.got.Float64(), p.r.Float64()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Float64 = %v, rand.Rand.Float64 = %v", got, want)
	}
	if p.got.state != p.ref.state {
		t.Fatalf("Float64: state %#x, rand.Rand left %#x", p.got.state, p.ref.state)
	}
	return words(before, p.got.state)
}

// Source.Intn and Source.Float64 must be math/rand's, word for word, in
// the alternation the alias kernel uses: the same values and the same
// state after every call.
func TestSourceMatchesRandInterleaved(t *testing.T) {
	ns := []int{1, 2, 3, 255, 256, 300, 1<<30 + 1, 1<<31 - 1,
		// Past 2^31-1 Intn switches to Int63n.
		1 << 31, 1<<62 + 1, math.MaxInt64}
	for _, n := range ns {
		var rejected bool
		for seed := uint64(0); seed < 8; seed++ {
			p := newPair(NewSource(Split(seed, n)))
			for k := 0; k < 2000; k++ {
				if p.intn(t, n) > 1 {
					rejected = true
				}
				p.float64(t)
			}
		}
		// Half of all draws land past the last whole multiple of these.
		if (n == 1<<30+1 || n == 1<<62+1) && !rejected {
			t.Errorf("Intn(%d) never entered its rejection loop", n)
		}
	}
}

// The rare branches and their boundaries, reached by placing the output
// word that takes them.
func TestSourceMatchesRandRareBranches(t *testing.T) {
	for _, c := range []struct {
		name  string
		word  uint64
		call  func(pair, *testing.T) uint64
		words uint64
	}{
		// Int31n(2^31-1) keeps Int31 = word>>33 up to 2^31-2 and rejects
		// only 2^31-1 (probability 2^-31).
		{"Intn(2^31-1) last kept", (1<<31 - 2) << 33, intnCall(1<<31 - 1), 1},
		{"Intn(2^31-1) rejected", math.MaxUint64, intnCall(1<<31 - 1), 2},
		// Int63n(MaxInt64) keeps Int63 = word>>1 up to 2^63-2.
		{"Intn(MaxInt64) last kept", math.MaxUint64 - 2, intnCall(math.MaxInt64), 1},
		{"Intn(MaxInt64) rejected", math.MaxUint64, intnCall(math.MaxInt64), 2},
		// Float64 divides Int63 = word>>1 by 2^63; from 2^63-2^9 up (words
		// from 2^64-2^10) the quotient rounds to 1.0 and is resampled.
		{"Float64 last below 1", math.MaxUint64 - 1<<10, pair.float64, 1},
		{"Float64 tie rounds to 1", math.MaxUint64 - 1<<10 + 1, pair.float64, 2},
		{"Float64 resampled", math.MaxUint64, pair.float64, 2},
	} {
		if w := c.call(newPair(sourceBefore(c.word)), t); w != c.words {
			t.Errorf("%s: word %#x consumed %d words, want %d", c.name, c.word, w, c.words)
		}
	}
}

func intnCall(n int) func(pair, *testing.T) uint64 {
	return func(p pair, t *testing.T) uint64 { return p.intn(t, n) }
}

func TestSourceIntnPanicsLikeRand(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewSource(1).Intn(n)
		}()
	}
}
