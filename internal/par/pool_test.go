package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForWorkerMatchesSerial(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 3, 4, 9} {
		got := make([]int, n)
		p.ForWorker(workers, n, func(_, i int) { got[i] = i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestPoolWorkerIndexInRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const n, workers = 500, 8
	eff := Workers(workers, n)
	var bad atomic.Int64
	p.ForWorker(workers, n, func(w, _ int) {
		if w < 0 || w >= eff {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d iterations saw a worker index outside [0,%d)", bad.Load(), eff)
	}
}

func TestPoolDoBoundsConcurrency(t *testing.T) {
	const size = 3
	p := NewPool(size)
	defer p.Close()
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(func() {
				cur := running.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				// Hold the slot long enough for contention to be observable.
				for j := 0; j < 10000; j++ {
					_ = j * j
				}
				running.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > size {
		t.Fatalf("Do ran %d tasks concurrently, pool size is %d", got, size)
	}
}

func TestPoolGoNeverBlocksWhenSaturated(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Go(func() { defer wg.Done(); <-block }) // occupy the only worker
	// With the worker busy, further Go submissions must still run.
	var done sync.WaitGroup
	for i := 0; i < 5; i++ {
		done.Add(1)
		p.Go(func() { done.Done() })
	}
	done.Wait()
	close(block)
	wg.Wait()
}

func TestPoolPendingObservesQueueDepth(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if got := p.Pending(); got != 0 {
		t.Fatalf("idle pool Pending = %d, want 0", got)
	}

	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the only worker
		defer wg.Done()
		p.Do(func() { close(started); <-block })
	}()
	<-started
	var queuedWait time.Duration
	go func() { // queued behind it: observable depth
		defer wg.Done()
		queuedWait = p.Do(func() {})
	}()
	// The queued Do registers as pending before a worker accepts it.
	deadline := 0
	for p.Pending() < 1 {
		if deadline++; deadline > 1e7 {
			t.Fatal("queued Do never showed up in Pending")
		}
		runtime.Gosched()
	}
	// Hold it there: its reported wait spans at least this long.
	heldFrom := time.Now()
	time.Sleep(2 * time.Millisecond)
	held := time.Since(heldFrom)
	close(block)
	wg.Wait()
	if got := p.Pending(); got != 0 {
		t.Fatalf("drained pool Pending = %d, want 0", got)
	}
	if queuedWait < held {
		t.Fatalf("queued Do reported a wait of %v, shorter than the %v it was held", queuedWait, held)
	}
}

func TestPoolUsableAfterClose(t *testing.T) {
	// Work submitted after (or racing with) Close must still complete —
	// degraded to the caller or a spawned goroutine — never panic: the
	// serving layer closes pools while late requests may be in flight.
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	ran := false
	wait := p.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do after Close did not run the task")
	}
	if wait < 0 {
		t.Fatalf("Do after Close reported a negative wait %v", wait)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	p.Go(func() { wg.Done() })
	wg.Wait()
	var sum atomic.Int64
	p.ForWorker(4, 100, func(_, i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("ForWorker after Close: sum %d, want 4950", sum.Load())
	}
}

func TestNestedForWorkerCompletes(t *testing.T) {
	// Saturating nested sections must not deadlock: inner stripes fall
	// back to spawned goroutines when the shared pool is busy.
	outer := DefaultWorkers() + 2
	var sum atomic.Int64
	ForWorker(outer, outer, func(_, i int) {
		ForWorker(4, 100, func(_, j int) {
			sum.Add(int64(j))
		})
	})
	want := int64(outer) * 4950
	if sum.Load() != want {
		t.Fatalf("nested sum = %d, want %d", sum.Load(), want)
	}
}
