// Package parallel provides the bounded worker pool shared by the
// experiment harness (internal/exp) and the fused COMP kernel
// (internal/mlapp).
//
// The pool is deliberately minimal: callers hand it n independent units
// of work that each write into a caller-owned, index-disjoint result
// slot. Because every unit is a pure function of its index, results are
// identical at any worker count — determinism is the caller's contract,
// the pool only bounds concurrency.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values below 1 select
// runtime.GOMAXPROCS(0), everything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run evaluates fn(0) … fn(n-1) on at most workers goroutines and
// returns once all calls finished. With workers <= 1 (or n == 1) it
// degrades to a plain sequential loop on the calling goroutine — the
// exact single-threaded path, no goroutines spawned.
//
// Work units must be independent: fn must only write to caller-owned
// state indexed by its argument. Indices are handed out in order but may
// complete in any order.
func Run(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
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
}
