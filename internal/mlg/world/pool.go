package world

import (
	"sync"
	"sync/atomic"
)

// Parallel runs fn(i) for every i in [0, n) across at most workers
// goroutines, returning when all calls complete: the engine's one fan-out.
// The terrain engine hands it the tick's regions, one index per region, and
// core its benchmark runs. Indices are claimed in order by atomic
// work-stealing.
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
