package par

import "math/rand"

// Gamma is SplitMix64's state increment, the golden gamma (Steele, Lea
// & Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA
// 2014). A stream seeded with s walks the states s+Gamma, s+2*Gamma, ...
// and its output words are Mix of those states.
const Gamma = 0x9E3779B97F4A7C15

// The finalizer's two odd multipliers.
const (
	splitmixMulA = 0xBF58476D1CE4E5B9
	splitmixMulB = 0x94D049BB133111EB
)

// Mix is the SplitMix64 finalizer: the output word of a stream whose
// state has just stepped to z. It is the one copy of the finalizer that
// Source, Split and the fused alias kernel in internal/dist share, and
// it is small enough to inline, so a loop that keeps the state in a
// local variable draws a word without a call or a memory round trip.
// Mix is a bijection (xor-shifts and odd multiplies); Unmix inverts it.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * splitmixMulA
	z = (z ^ (z >> 27)) * splitmixMulB
	return z ^ (z >> 31)
}

// Unmix inverts Mix: Mix(Unmix(z)) == z for every z. It places a chosen
// output word at a chosen position of a stream, which is how tests reach
// branches that a random word takes with probability 2^-31 or less: the
// stream seeded with Unmix(z) - (k+1)*Gamma has z as its output word k,
// counting from 0.
func Unmix(z uint64) uint64 {
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

// Split derives the seed of child stream i of a base seed. Distinct
// (base, stream) pairs map to decorrelated seeds — it is the SplitMix64
// output at offset stream of the base sequence, the generator's designed
// split operation — so sibling streams behave as independent generators.
// This is how one user-facing seed fans out into one stream per sample
// set, per trial, or per worker while staying reproducible.
func Split(base uint64, stream int) uint64 {
	return Mix(base + Gamma*uint64(stream) + Gamma)
}

// Source is a rand.Source64 over the SplitMix64 sequence. It is cheap to
// construct (a single word of state), so forking a fresh stream per
// parallel task costs nothing compared to drawing from it.
type Source struct {
	state uint64
}

// NewSource returns a SplitMix64 source with the given seed.
func NewSource(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next output word.
func (s *Source) Uint64() uint64 {
	s.state += Gamma
	return Mix(s.state)
}

// Int63 returns a non-negative 63-bit output, as rand.Source requires.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the stream to the given seed.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// NewRand returns a *rand.Rand over the SplitMix64 stream with the given
// seed. Identical seeds reproduce identical draw sequences; seeds derived
// via Split yield independent streams.
func NewRand(seed uint64) *rand.Rand { return rand.New(NewSource(seed)) }
