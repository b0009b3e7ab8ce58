package exp

import (
	"runtime"

	"harmony/internal/parallel"
)

// concurrency bounds how many independent simulation runs the experiment
// sweeps execute at once. Each sim.Run owns its engine, rng and state, so
// runs only share read-only workload tables; results land in index-ordered
// slots, making every figure identical at any setting.
var concurrency = runtime.GOMAXPROCS(0)

// SetConcurrency adjusts the sweep fan-out. Values below 1 restore the
// GOMAXPROCS default; 1 runs everything on the calling goroutine.
func SetConcurrency(n int) { concurrency = parallel.Workers(n) }

// Concurrency reports the current sweep fan-out.
func Concurrency() int { return concurrency }

// runPool evaluates fn(0) … fn(n-1) on the experiment worker pool. Each
// call must write only to its own result slot. All units run even when
// some fail; the lowest-index error is returned so failure reporting does
// not depend on completion order.
func runPool(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	parallel.Run(n, concurrency, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
