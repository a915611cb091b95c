package par

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a set of persistent worker goroutines that execute submitted
// tasks, amortizing goroutine startup across many parallel sections. The
// serving layer gives each shard one Pool so a long-lived process reuses
// the same workers for every request instead of spawning per call; the
// package-level For/ForWorker route their stripes through a shared
// default Pool for the same reason.
//
// Determinism is unchanged from the spawn-per-call implementation: work
// is still assigned to stripe indexes, never to goroutine identities, so
// which pool worker happens to run a stripe cannot affect the result.
//
// Two submission modes with different blocking behaviour:
//
//   - Go never blocks: if every pool worker is busy, the task runs on a
//     freshly spawned goroutine instead. This keeps nested parallel
//     sections deadlock-free (a stripe that itself calls ForWorker can
//     always make progress) at the cost of a temporary spawn under
//     saturation.
//   - Do blocks until a pool worker is free, then runs the task to
//     completion before returning its queue wait. This is a hard
//     concurrency bound: at most Size tasks execute at once. The serving
//     layer uses it to cap per-shard compute, and times every run by
//     the wait it returns.
type Pool struct {
	size  int
	tasks chan func()
	quit  chan struct{}

	// pending counts Do-submitted tasks that have not yet started
	// executing: the pool's queue depth. Serving layers read it (via
	// Pending) to observe back-pressure and decide admission before a
	// request blocks on Do.
	pending atomic.Int64

	closeOnce sync.Once
}

// NewPool starts a pool of size persistent workers. size values below 1
// are raised to 1.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size, tasks: make(chan func()), quit: make(chan struct{})}
	for i := 0; i < size; i++ {
		go func() {
			for {
				select {
				case <-p.quit:
					return
				case fn := <-p.tasks:
					fn()
				}
			}
		}()
	}
	return p
}

// Size returns the number of persistent workers.
func (p *Pool) Size() int { return p.size }

// Pending returns the current queue depth: Do-submitted tasks waiting
// for a worker to accept them. It is an instantaneous observation —
// admission gates use it for monitoring, not as a synchronization
// primitive.
func (p *Pool) Pending() int { return int(p.pending.Load()) }

// Go submits fn for asynchronous execution and returns immediately: on a
// pool worker when one is idle, otherwise on a fresh goroutine. fn is
// responsible for its own completion signalling (typically a WaitGroup).
func (p *Pool) Go(fn func()) {
	select {
	case p.tasks <- fn:
	default:
		go fn()
	}
}

// Do runs fn on a pool worker, waits for it to finish, and returns the
// queue wait: the time fn waited for a worker before it started. Unlike
// Go it blocks until a worker accepts the task, so at most Size
// Do-submitted tasks run concurrently. Do must not be called from inside
// another task running on the same pool (the nested Do could wait forever
// for a worker occupied by its own caller); submit nested work with Go
// instead.
//
// After Close, Do degrades to running fn on the calling goroutine — the
// bound is gone but the call still completes, so a request caught
// mid-flight by owner shutdown finishes instead of panicking.
func (p *Pool) Do(fn func()) time.Duration {
	t0 := time.Now()
	p.pending.Add(1)
	// The worker sends the wait back once fn returns: the channel is the
	// completion signal and carries the result, so timing costs no
	// allocation beyond it.
	done := make(chan time.Duration, 1)
	select {
	case p.tasks <- func() {
		p.pending.Add(-1)
		wait := time.Since(t0)
		fn()
		done <- wait
	}:
		return <-done
	case <-p.quit:
		p.pending.Add(-1)
		wait := time.Since(t0)
		fn()
		return wait
	}
}

// ForWorker is the pool-backed form of the package-level ForWorker:
// fn(worker, i) runs for every i in [0, n), striped across at most
// workers concurrent stripes executed via Go. Results are identical to
// the package-level form for every worker count and pool size.
func (p *Pool) ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		p.Go(func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(w, i)
			}
		})
	}
	wg.Wait()
}

// For is ForWorker without the worker index.
func (p *Pool) For(workers, n int, fn func(i int)) {
	p.ForWorker(workers, n, func(_, i int) { fn(i) })
}

// Close stops the persistent workers. Tasks already accepted by a worker
// finish; tasks submitted after (or concurrently with) Close still
// execute, on the caller (Do) or a spawned goroutine (Go), so late
// requests complete instead of panicking — only the reuse and bounding
// go away. Close is idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.quit) })
}

// defaultPool backs the package-level For/ForWorker/MapReduce: one
// process-wide set of reusable workers sized to the machine, started on
// first parallel call. It is never closed.
var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

func sharedPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(DefaultWorkers()) })
	return defaultPool
}
