package par

import "math/rand"

// SplitMix64 constants (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). The golden-gamma
// increment walks the state; the two multiplies finalize it.
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	splitmixMulA  = 0xBF58476D1CE4E5B9
	splitmixMulB  = 0x94D049BB133111EB
)

// splitmix advances the state by the golden gamma and returns the
// finalized output word.
func splitmix(state *uint64) uint64 {
	*state += splitmixGamma
	z := *state
	z = (z ^ (z >> 30)) * splitmixMulA
	z = (z ^ (z >> 27)) * splitmixMulB
	return z ^ (z >> 31)
}

// Split derives the seed of child stream i of a base seed. Distinct
// (base, stream) pairs map to decorrelated seeds — it is the SplitMix64
// output at offset stream of the base sequence, the generator's designed
// split operation — so sibling streams behave as independent generators.
// This is how one user-facing seed fans out into one stream per sample
// set, per trial, or per worker while staying reproducible.
func Split(base uint64, stream int) uint64 {
	state := base + splitmixGamma*uint64(stream)
	return splitmix(&state)
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
func (s *Source) Uint64() uint64 { return splitmix(&s.state) }

// Int63 returns a non-negative 63-bit output, as rand.Source requires.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the stream to the given seed.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Intn returns a uniform int in [0, n). It is math/rand's Rand.Intn
// called on the concrete source: it consumes the same output words and
// returns the same value as rand.New(s).Intn(n), without the dispatch
// through the rand.Source interface. It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is math/rand's Rand.Int31n for n > 0: a mask when n is a power
// of two, otherwise rejection of the draws above the largest multiple
// of n, then a remainder.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > limit {
		v = s.int31()
	}
	return v % n
}

// int63n is math/rand's Rand.Int63n for n > 0.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// int31 is math/rand's Rand.Int31: the top 31 bits of an Int63.
func (s *Source) int31() int32 { return int32(s.Int63() >> 32) }

// Float64 returns a uniform float64 in [0, 1). It is math/rand's
// Rand.Float64 on the concrete source, including its resample when the
// 63-bit draw rounds up to 1.0, so it consumes the same output words and
// returns the same value as rand.New(s).Float64().
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NewRand returns a *rand.Rand over the SplitMix64 stream with the given
// seed. Identical seeds reproduce identical draw sequences; seeds derived
// via Split yield independent streams.
func NewRand(seed uint64) *rand.Rand { return rand.New(NewSource(seed)) }
