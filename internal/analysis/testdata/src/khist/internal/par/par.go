// Package par is a typecheck stub of the real khist/internal/par,
// carrying just the surface the analyzer fixtures exercise: the
// sanctioned seeded-RNG constructors, and the pool / parallel-for entry
// points the lockio rule treats as blocking. The rules match repo
// packages by import-path suffix, so this stub triggers the same logic
// as the real package.
package par

import (
	"math/rand"
	"time"
)

// NewSource returns a deterministically seeded source.
func NewSource(seed int64) rand.Source { return rand.NewSource(seed) }

// NewRand returns a deterministically seeded generator.
func NewRand(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Jitter uses the global generator — legal only here; the rawrand rule
// exempts internal/par wholesale as the sanctioned RNG plumbing.
func Jitter(n int) int { return rand.Intn(n) }

// Pool is a stub worker pool; Do blocks until f has run.
type Pool struct{}

// Do runs f on the pool, waits for it, and returns its queue wait.
func (p *Pool) Do(f func()) time.Duration { f(); return 0 }

// For runs f(i) for i in [0, n), blocking until all iterations finish.
func For(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
