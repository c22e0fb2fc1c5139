// Package par provides the bounded fork-join primitives the analysis
// read path is built on: every fan-out in the experiment engine —
// per-user shards, per-policy evaluations, per-sweep points — runs
// through ForEach/ForEachErr so the whole process shares one notion
// of parallelism and never spawns unbounded goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values < 1 mean "one
// worker per available CPU", and the count never exceeds n (no point
// parking goroutines with nothing to do).
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (workers < 1 selects GOMAXPROCS). It returns when all
// calls have completed. Indices are handed out atomically, so the
// work distribution is dynamic: cheap items don't stall behind
// expensive ones. fn must be safe for concurrent invocation on
// distinct indices.
//
// A panic in fn behaves as in the serial loop: it surfaces on the
// calling goroutine, so the caller's recover sees it. The worker's
// panic is recovered, no further indices are handed out, and once the
// in-flight calls have returned the first recovered value is
// re-panicked.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any // non-nil once a worker panicked: recover never returns nil for a panic
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// ForEachErr is ForEach for fallible work: it runs fn(i) for every i
// in [0, n) and returns the error from the lowest index that failed
// (deterministic regardless of scheduling). All indices are attempted
// even after a failure, keeping the completion semantics identical to
// the serial loop the caller replaced.
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	ForEach(n, workers, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}
