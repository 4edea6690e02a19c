package core

import (
	"sync"

	"repro/internal/mlg/world"
)

// RunCache memoizes benchmark runs keyed on the full RunSpec. Several paper
// artifacts (Figures 7, 9, 11, Table 8) are different views of the same
// benchmark grid, so identical runs should execute exactly once even when a
// parallel scheduler drains the grid: concurrent Gets of the same spec share
// a single execution (singleflight), and the cache is safe under -race.
type RunCache struct {
	mu      sync.Mutex
	entries map[RunSpec]*cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	once sync.Once
	res  RunResult
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{entries: map[RunSpec]*cacheEntry{}}
}

// Get returns the result for spec, executing the run on first use. The
// spec's comparable fields form the key, so any parameter change is a new
// run; concurrent callers with the same spec block on one shared execution.
func (c *RunCache) Get(spec RunSpec) RunResult {
	c.mu.Lock()
	e, ok := c.entries[spec]
	if ok {
		c.hits++
	} else {
		e = &cacheEntry{}
		c.entries[spec] = e
		c.misses++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.res = runSafe(spec) })
	return e.res
}

// GetAll drains specs through the cache across a pool of workers and returns
// results in spec order. Duplicate specs in the list execute once.
func (c *RunCache) GetAll(specs []RunSpec, workers int) []RunResult {
	out := make([]RunResult, len(specs))
	world.Parallel(Workers(workers), len(specs), func(i int) {
		out[i] = c.Get(specs[i])
	})
	return out
}

// Len reports the number of distinct specs executed (or executing).
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports cache hits and misses so far.
func (c *RunCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
