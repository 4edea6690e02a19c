package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

func detSpec(k workload.Kind, bots int) RunSpec {
	ws := k.DefaultSpec()
	if bots > 0 {
		ws.Bots = bots
	}
	return RunSpec{
		Flavor:   server.Vanilla,
		Workload: ws,
		Env:      env.AWSLarge,
		Duration: 3 * time.Second,
		Seed:     42,
	}
}

// TestParallelMatchesSerial: the same RunSpec must yield bit-identical
// results whether executed serially or in parallel with 1, 4 or 8 workers —
// every run owns its virtual clock and RNGs, so the scheduler must not be
// observable in the output.
func TestParallelMatchesSerial(t *testing.T) {
	const n = 8
	// Farm is included deliberately: its spawner/hopper constructs exposed
	// map-iteration-order nondeterminism in the engine (fixed alongside the
	// scheduler; see sim.Engine sortedPositions and world.LoadedChunkRefs).
	for _, k := range []workload.Kind{workload.Control, workload.Players, workload.Farm} {
		spec := detSpec(k, 5)
		serial := RunIterations(spec, n)
		for _, workers := range []int{1, 4, 8} {
			par := RunIterationsParallel(spec, n, workers)
			if len(par) != n {
				t.Fatalf("%v/%d workers: got %d results, want %d", k, workers, len(par), n)
			}
			for i := range par {
				if par[i].ISR != serial[i].ISR {
					t.Errorf("%v/%d workers: iteration %d ISR = %v, serial %v",
						k, workers, i, par[i].ISR, serial[i].ISR)
				}
				if par[i].TickSummary != serial[i].TickSummary {
					t.Errorf("%v/%d workers: iteration %d TickSummary = %+v, serial %+v",
						k, workers, i, par[i].TickSummary, serial[i].TickSummary)
				}
				if !reflect.DeepEqual(par[i], serial[i]) {
					t.Errorf("%v/%d workers: iteration %d result differs from serial",
						k, workers, i)
				}
			}
		}
	}
}

// TestRunParallelOrdering: results come back in spec order regardless of
// completion order (longer runs scheduled first must not displace shorter
// ones).
func TestRunParallelOrdering(t *testing.T) {
	var specs []RunSpec
	for it := 0; it < 6; it++ {
		s := detSpec(workload.Control, 1)
		s.Iteration = it
		s.Duration = time.Duration(3-it%3) * time.Second
		specs = append(specs, s)
	}
	for i, res := range RunParallel(specs, 4) {
		if res.Iteration != specs[i].Iteration {
			t.Errorf("result %d: iteration %d, want %d", i, res.Iteration, specs[i].Iteration)
		}
	}
}

// TestRunParallelPanicCapture: a panicking run must come back as a Crashed
// result, not kill the process, and must not disturb its neighbours.
func TestRunParallelPanicCapture(t *testing.T) {
	orig := runFn
	defer func() { runFn = orig }()
	runFn = func(spec RunSpec) RunResult {
		if spec.Iteration == 1 {
			panic("injected fault")
		}
		return orig(spec)
	}
	res := RunIterationsParallel(detSpec(workload.Control, 1), 3, 3)
	if !res[1].Crashed || res[1].CrashReason != "panic: injected fault" {
		t.Errorf("iteration 1 = %+v, want captured panic", res[1])
	}
	if res[1].Flavor != server.Vanilla.Name || res[1].Iteration != 1 {
		t.Errorf("crashed result lost its identity: %+v", res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i].Crashed {
			t.Errorf("iteration %d crashed: %s", i, res[i].CrashReason)
		}
	}
}

// TestRunCacheSingleflight: concurrent Gets of the same spec share one
// execution, distinct specs execute once each, and results are identical
// for identical specs. Run with -race to guard the cache's locking.
func TestRunCacheSingleflight(t *testing.T) {
	cache := NewRunCache()
	specs := make([]RunSpec, 4)
	for i := range specs {
		specs[i] = detSpec(workload.Control, 1)
		specs[i].Iteration = i % 2 // only two distinct specs
	}

	const goroutines = 8
	results := make([][]RunResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = cache.GetAll(specs, 2)
		}(g)
	}
	wg.Wait()

	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("cache misses = %d, want 2", misses)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Errorf("goroutine %d saw different results", g)
		}
	}
	if !reflect.DeepEqual(results[0][0], results[0][2]) {
		t.Errorf("identical specs returned different results")
	}
}

// TestRunCacheMatchesDirect: a cached result is the same result a direct
// Run produces.
func TestRunCacheMatchesDirect(t *testing.T) {
	spec := detSpec(workload.Control, 1)
	cached := NewRunCache().Get(spec)
	if direct := Run(spec); !reflect.DeepEqual(cached, direct) {
		t.Errorf("cached result differs from direct Run")
	}
}

// TestWorkers: the worker-count normalization.
func TestWorkers(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if w := Workers(-3); w < 1 {
		t.Errorf("Workers(-3) = %d, want >= 1", w)
	}
	if w := Workers(5); w != 5 {
		t.Errorf("Workers(5) = %d, want 5", w)
	}
}

// TestFlavorSeedDistinct: the old len(name)-based seed gave equal-length
// flavor names identical seeds; the FNV-1a seed must not.
func TestFlavorSeedDistinct(t *testing.T) {
	pairs := [][2]string{
		{"Forge", "Gorge"},     // equal length, old scheme collides
		{"PaperMC", "PurpurX"}, // equal length, old scheme collides
		{"Minecraft", "Forge"},
	}
	for _, p := range pairs {
		if FlavorSeed(p[0]) == FlavorSeed(p[1]) {
			t.Errorf("FlavorSeed(%q) == FlavorSeed(%q)", p[0], p[1])
		}
	}
	if FlavorSeed("Forge") != FlavorSeed("Forge") {
		t.Errorf("FlavorSeed not deterministic")
	}
	if FlavorSeed("Minecraft") < 0 {
		t.Errorf("FlavorSeed negative")
	}
}
