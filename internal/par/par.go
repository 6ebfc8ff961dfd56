// Package par is the shared worker-pool primitive behind Grade10's parallel
// analysis pipeline. Attribution fans out per resource instance, issue
// detection runs one trace replay per candidate issue, and the engine
// simulators precompute per-thread cost models concurrently — all through
// Do, an index-parallel loop with a work-stealing counter.
//
// Determinism contract: Do guarantees only that every fn(i) completes before
// Do returns; callers keep results deterministic by writing fn's output to
// index i of a pre-sized slice and merging in index order afterwards. With a
// resolved worker count of 1 the loop runs inline on the caller's goroutine,
// so serial mode is trivially identical to the pre-parallel code path.
//
// The `-parallelism` flag of cmd/grade10, cmd/runsim, and cmd/serve plumbs
// through each layer's own knob (grade10.Input, stream.Config,
// issues.Config, the simulator Configs), which treats 0 as "use the
// default", GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Default returns the default worker count, GOMAXPROCS.
func Default() int { return runtime.GOMAXPROCS(0) }

// Workers resolves a requested parallelism against the job count: n <= 0
// takes Default(), and the result never exceeds jobs (no idle goroutines).
func Workers(n, jobs int) int {
	if n <= 0 {
		n = Default()
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Do runs fn(i) for every i in [0, jobs) on up to `workers` goroutines
// (resolved via Workers) and returns when all calls have completed. Indices
// are handed out through an atomic counter, so the assignment of index to
// goroutine is nondeterministic — fn must only write to per-index state. A
// panic in any fn is re-raised on the caller's goroutine after the remaining
// workers drain.
func Do(jobs, workers int, fn func(i int)) {
	DoWithWorker(jobs, workers, func(_, i int) { fn(i) })
}

// DoWithWorker is Do with the executing worker's lane id passed to fn
// (0 <= worker < resolved workers). Lane-to-index assignment is
// nondeterministic; the id exists for observability — span tracing renders
// one timeline track per lane — never for result placement.
func DoWithWorker(jobs, workers int, fn func(worker, i int)) {
	if jobs <= 0 {
		return
	}
	workers = Workers(workers, jobs)
	if workers == 1 {
		for i := 0; i < jobs; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs || panicked.Load() != nil {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}
