package core

import (
	"fmt"
	"runtime"

	"repro/internal/mlg/world"
)

// runFn executes one run; indirected so tests can exercise the scheduler's
// panic capture without a genuinely faulty spec.
var runFn = Run

// runSafe executes one run, converting a panic into a Crashed result so a
// single faulty run cannot take down a whole experiment grid.
func runSafe(spec RunSpec) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{
				Flavor:      spec.Flavor.Name,
				Workload:    spec.Workload.Kind.String(),
				Environment: spec.Env.Name,
				Iteration:   spec.Iteration,
				Crashed:     true,
				CrashReason: fmt.Sprintf("panic: %v", r),
			}
		}
	}()
	return runFn(spec)
}

// Workers normalizes a worker-count request: values below 1 select
// GOMAXPROCS, everything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunParallel executes every spec across a pool of workers and returns the
// results in spec order, regardless of completion order. Each run is
// hermetic (own virtual clock, own seeded RNGs), so results are bit-identical
// to executing the same specs serially. workers < 1 selects GOMAXPROCS; a
// panicking run yields a Crashed result rather than killing the process.
func RunParallel(specs []RunSpec, workers int) []RunResult {
	out := make([]RunResult, len(specs))
	world.Parallel(Workers(workers), len(specs), func(i int) {
		out[i] = runSafe(specs[i])
	})
	return out
}

// RunIterationsParallel is RunIterations drained by the parallel scheduler:
// n iterations of the spec, varying only the iteration index, executed
// across workers with deterministic per-iteration results.
func RunIterationsParallel(spec RunSpec, n, workers int) []RunResult {
	specs := make([]RunSpec, n)
	for it := 0; it < n; it++ {
		specs[it] = spec
		specs[it].Iteration = it
	}
	return RunParallel(specs, workers)
}
