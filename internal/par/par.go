// Package par is the experiment layer's deterministic worker pool: a
// minimal parallel-for over an index space, used to fan simulation trials
// and sweep points across GOMAXPROCS workers.
//
// Determinism contract: callers pre-split one RNG per task *in submission
// order* (stats.RNG.Split is a pure function of the parent's state, so the
// pre-split sequence is identical to the splits a serial loop would make)
// and write each task's result into a slot indexed by the task number.
// Execution order then cannot influence any result, and parallel output is
// bit-identical to a serial run of the same code.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines.
// Tasks are handed out dynamically, so uneven task costs balance across
// workers. For returns when every call has finished.
//
// fn is invoked exactly once per index; invocations may be concurrent, so
// fn must only touch shared state that is safe for concurrent use (its own
// result slot, pre-split RNGs, concurrency-safe caches). If any fn panics,
// For waits for the remaining workers and re-panics the first panic value
// in the caller's goroutine, matching a serial loop's behaviour.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							// Keep the first panic only; later ones are
							// almost always consequences of the same bug.
							if panicked.CompareAndSwap(false, true) {
								panicVal = r
							}
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}
