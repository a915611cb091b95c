//go:build !race

package obs

import (
	"testing"
	"time"
)

// The hot-path cost contract: counters and recorder observations must
// not allocate (the race detector instruments allocs, so the test only
// runs without -race).

func TestCounterZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("khist_alloc_total", "alloc test")
	if avg := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); avg != 0 {
		t.Errorf("Counter allocates %v per op", avg)
	}
}

func TestRecorderObserveZeroAlloc(t *testing.T) {
	rec := NewRecorder("khist_alloc_latency", "alloc test", false)
	d := 137 * time.Microsecond
	if avg := testing.AllocsPerRun(5000, func() { rec.Observe(d) }); avg != 0 {
		t.Errorf("Observe allocates %v per op", avg)
	}
}
