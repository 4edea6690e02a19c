package world

import (
	"sync"
	"sync/atomic"
)

// Parallel runs fn(i) for every i in [0, n) across at most workers
// goroutines, returning when all calls complete. The terrain engine hands it
// the tick's packed region units (atomic work-stealing over a fixed index
// range, sized by SimWorkers).
//
// workers <= 1 or n <= 1 degrades to a plain serial loop on the calling
// goroutine — no goroutines, no synchronization.
//
// fn must be safe to call concurrently for distinct i; calls are not ordered.
func Parallel(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
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

// PackUnits packs n cost-weighted items (identified by index, kept in order)
// into at most maxUnits contiguous [start, end) ranges of roughly equal
// total cost, each targeting at least minUnitCost. The terrain engine's
// region scheduler uses it to size its fan-out by the work available instead
// of by a fixed worker count: a swarm of tiny regions packs into a few units (one worker
// handoff amortized across all of them), and a tick with little total work
// produces few units — Parallel then spawns goroutines only for the units
// that exist. Every returned unit is non-empty and the units exactly cover
// [0, n). Results are appended to dst (reset to length zero), so the
// scheduler can reuse a scratch buffer across ticks.
func PackUnits(dst [][2]int, costs []int, maxUnits, minUnitCost int) [][2]int {
	dst = dst[:0]
	n := len(costs)
	if n == 0 {
		return dst
	}
	total := 0
	for _, c := range costs {
		total += c
	}
	units := 1
	if minUnitCost > 0 {
		units = total / minUnitCost
	}
	if units > maxUnits {
		units = maxUnits
	}
	if units > n {
		units = n
	}
	if units < 1 {
		units = 1
	}
	start, remaining := 0, total
	for u := units; u >= 1; u-- {
		if u == 1 {
			dst = append(dst, [2]int{start, n})
			break
		}
		// Fair share of what remains, while always leaving at least one
		// item for each unit still to come.
		target := remaining / u
		acc := costs[start]
		end := start + 1
		for end < n-(u-1) && acc < target {
			acc += costs[end]
			end++
		}
		dst = append(dst, [2]int{start, end})
		remaining -= acc
		start = end
	}
	return dst
}
