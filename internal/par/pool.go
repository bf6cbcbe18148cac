// Package par provides the worker-pool primitives behind the repo's
// parallelism, which is always across independent runs, never inside
// one: the concurrent bench grid (internal/bench, one cell per task)
// and the icid job scheduler (internal/server, one job per task).
//
// The design constraint comes from the BDD substrate: a bdd.Manager is
// not safe for concurrent use, so every task builds its own Manager.
// The pool exposes a stable worker identity to every task: tasks that
// share a worker id never run concurrently, which lets callers attach
// per-worker state (a Manager, a scratch buffer) without any locking.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Serve runs n workers (n <= 0 selects GOMAXPROCS) that drain tasks
// from the channel until it is closed and drained, then returns. It is
// the streaming counterpart of Pool.ForEach for long-running callers —
// the icid job scheduler — whose task set is not known up front: tasks
// arrive over the channel's lifetime and each is handed to exactly one
// worker.
//
// The worker argument carries the same stable-identity contract as
// ForEach: tasks with the same worker id never run concurrently, so
// callers may attach per-worker state without locking. Unlike ForEach,
// Serve offers no panic collection — a panic in fn escapes on the
// worker's goroutine and takes the process down, so a daemon must
// recover inside fn (resource overruns inside verification runs are
// already converted to results by bdd.Guard well below fn).
func Serve[T any](n int, tasks <-chan T, fn func(worker int, task T)) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for task := range tasks {
				fn(w, task)
			}
		}(w)
	}
	wg.Wait()
}

// Pool is a fixed-width worker pool. A Pool holds no goroutines between
// calls: each ForEach spins up its workers, drains the tasks, and joins,
// so an idle Pool costs nothing.
type Pool struct {
	workers int
}

// NewPool returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.workers }

// ForEach runs fn(worker, task) for every task in [0, n), distributing
// tasks dynamically across the pool's workers. The worker argument names
// which of the pool's Size() workers is running the task; tasks with the
// same worker id never run concurrently. ForEach returns only after
// every started task has finished — it never leaves goroutines behind,
// so per-worker state is safe to reuse or discard immediately after.
//
// When n is 0 or negative ForEach is a no-op. When the pool has a single
// worker (or a single task), the tasks run inline on the calling
// goroutine in task order, so a Workers=1 configuration exercises the
// same code path deterministically with zero scheduling noise.
//
// A panic in a task stops the distribution of further tasks; after all
// in-flight tasks drain, ForEach re-panics on the calling goroutine with
// the panic value of the lowest-indexed panicking task. Resource-limit
// panics from the bdd package (*LimitError, *DeadlineError) therefore
// propagate to the caller's bdd.Guard exactly as in sequential code, and
// the surviving panic value is chosen stably.
func (p *Pool) ForEach(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}

	var (
		next  atomic.Int64
		abort atomic.Bool
		wg    sync.WaitGroup

		mu         sync.Mutex
		panicTask  = -1
		panicValue any
	)
	run := func(w, t int) {
		defer func() {
			if r := recover(); r != nil {
				abort.Store(true)
				mu.Lock()
				if panicTask < 0 || t < panicTask {
					panicTask, panicValue = t, r
				}
				mu.Unlock()
			}
		}()
		fn(w, t)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !abort.Load() {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				run(w, t)
			}
		}(w)
	}
	wg.Wait()
	if panicTask >= 0 {
		panic(panicValue)
	}
}
