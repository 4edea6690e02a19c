package server_test

// Per-workload tick benchmarks: the regression harness for engine-level
// optimizations. Each sub-benchmark builds one of the paper's workload
// scenarios at production entity/player scale, then measures a fixed window
// of game ticks through the storm, so ns/op tracks the real per-tick compute
// cost of that workload. Setup runs off the timer; every iteration gets a
// fresh, deterministic server.
//
// These run in CI with -benchtime=1x as a smoke test; locally, use e.g.
//
//	go test -bench=BenchmarkTick -benchtime=3x ./internal/mlg/server
//
// to compare before/after an engine change.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

// measuredTicks is the per-iteration measurement window: long enough to
// cover a redstone period, spawner period and several explosion waves.
const measuredTicks = 60

func benchClock() *env.VirtualClock {
	return env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
}

func newBenchServer(f server.Flavor, w *world.World) *server.Server {
	return newBenchServerWorkers(f, w, 1)
}

// newBenchServerWorkers pins the terrain-simulation drain parallelism: the
// serial benchmarks stay at 1 so engine-level optimizations keep a fixed
// baseline, and the SimWorkers sweep (BenchmarkTickParallel) varies it.
func newBenchServerWorkers(f server.Flavor, w *world.World, simWorkers int) *server.Server {
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	cfg := server.DefaultConfig(f)
	cfg.Sim.Workers = simWorkers
	return server.New(w, cfg, m, benchClock())
}

// setupWorkload installs a paper workload, connects players and warms the
// world until its constructs settle.
func setupWorkload(tb testing.TB, k workload.Kind, f server.Flavor, players, warmTicks int) *server.Server {
	tb.Helper()
	s := newBenchServer(f, workload.NewWorld(k, world.PaperControlSeed))
	spec := k.DefaultSpec()
	if err := workload.Install(s, spec); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < players; i++ {
		s.Connect("bench")
	}
	for i := 0; i < warmTicks; i++ {
		s.Tick()
	}
	return s
}

// setupTNTStorm ignites the TNT cuboid and advances into the chain reaction
// so the measured window covers peak entity population.
func setupTNTStorm(tb testing.TB) *server.Server {
	tb.Helper()
	s := newBenchServer(server.Vanilla, workload.NewWorld(workload.TNT, world.PaperControlSeed))
	spec := workload.TNT.DefaultSpec()
	spec.IgniteAfterTicks = 2
	if err := workload.Install(s, spec); err != nil {
		tb.Fatal(err)
	}
	s.Connect("bench")
	workload.Arm(s, spec)
	// Run into the cascade until the entity population is at paper scale.
	for i := 0; i < 400 && s.EntityWorld().Count() < 1500; i++ {
		s.Tick()
	}
	return s
}

// setupPlayers builds the §3.4.1 player-based workload scaled to production
// counts: 200 players clustered on a 320x320 region of a 640x640 noise map
// whose entity population is spread across the whole map, as natural
// spawning leaves it — most entities are outside every player's activation
// range. Paper flavor, so the activation-range path is on the hot path.
func setupPlayers(tb testing.TB) *server.Server {
	tb.Helper()
	w := workload.NewWorld(workload.Players, world.PaperControlSeed)
	s := newBenchServer(server.Paper, w)
	w.EnsureArea(world.Pos{X: 320, Y: 0, Z: 320}, 21)
	const nPlayers = 200
	for i := 0; i < nPlayers; i++ {
		p := s.Connect("bench")
		px := float64(160 + (i%15)*21)
		pz := float64(160 + (i/15)*21)
		p.Pos = entity.Vec3{X: px, Y: float64(w.HighestSolidY(int(px), int(pz)) + 1), Z: pz}
	}
	// A paper-scale entity population scattered across the full map.
	ew := s.EntityWorld()
	for i := 0; i < 2900; i++ {
		x, z := 4+(i%90)*7, 4+(i/90)*7
		ew.SpawnItem(world.Pos{X: x, Y: w.HighestSolidY(x, z) + 1, Z: z}, world.Gravel)
	}
	for i := 0; i < 20; i++ {
		s.Tick()
	}
	return s
}

// setupScaledWorkload builds a construct workload at the given scale and
// drain parallelism, warmed until its constructs settle. Scale >= 2 lays
// out that many separated construct clusters (independent simulation
// regions), which is what the SimWorkers sweep parallelizes over.
func setupScaledWorkload(tb testing.TB, k workload.Kind, scale, simWorkers, players, warmTicks int) *server.Server {
	tb.Helper()
	s := newBenchServerWorkers(server.Vanilla, workload.NewWorld(k, world.PaperControlSeed), simWorkers)
	spec := k.DefaultSpec()
	spec.Scale = scale
	if k == workload.TNT {
		spec.IgniteAfterTicks = 2
	}
	if err := workload.Install(s, spec); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < players; i++ {
		s.Connect("bench")
	}
	if k == workload.TNT {
		workload.Arm(s, spec)
		for i := 0; i < 400 && s.EntityWorld().Count() < 1500*scale; i++ {
			s.Tick()
		}
		return s
	}
	for i := 0; i < warmTicks; i++ {
		s.Tick()
	}
	return s
}

// tickScenarios are the per-workload windows at paper scale: BenchmarkTick
// times them and TestTickAllocs bounds their allocations. allocs is the
// bound on one window (measuredTicks ticks after setup): over repeated runs
// at GOMAXPROCS 1, 2 and 4, the highest count seen plus twice the spread
// (map hash seeds and worker scheduling move some counts) plus 10, rounded
// up to ten. One extra allocation per tick adds 60.
var tickScenarios = []struct {
	name   string
	setup  func(tb testing.TB) *server.Server
	allocs uint64
}{
	{"Control", func(tb testing.TB) *server.Server {
		return setupWorkload(tb, workload.Control, server.Vanilla, 1, 20)
	}, 220},
	{"Farm", func(tb testing.TB) *server.Server {
		return setupWorkload(tb, workload.Farm, server.Vanilla, 5, 300)
	}, 70},
	{"TNT", setupTNTStorm, 19180},
	{"Lag", func(tb testing.TB) *server.Server {
		return setupWorkload(tb, workload.Lag, server.Vanilla, 1, 100)
	}, 350},
	{"Players", setupPlayers, 60},
}

// tickParallelScenarios is the SimWorkers sweep over the scale>=2 construct
// workloads, with the same window and bound as tickScenarios.
var tickParallelScenarios = []struct {
	name        string
	kind        workload.Kind
	scale, warm int
	workers     int
	allocs      uint64
}{
	{"Lag2", workload.Lag, 2, 100, 1, 370},
	{"Lag2", workload.Lag, 2, 100, 2, 1290},
	{"Lag2", workload.Lag, 2, 100, 4, 1270},
	{"Farm4", workload.Farm, 4, 300, 1, 180},
	{"Farm4", workload.Farm, 4, 300, 2, 450},
	{"Farm4", workload.Farm, 4, 300, 4, 490},
	{"TNT2", workload.TNT, 2, 0, 1, 24690},
	{"TNT2", workload.TNT, 2, 0, 2, 25440},
	{"TNT2", workload.TNT, 2, 0, 4, 25500},
}

// tickWindow runs the measured window and returns the most simulation
// regions any of its ticks drained.
func tickWindow(s *server.Server) (regions int) {
	for t := 0; t < measuredTicks; t++ {
		if rec := s.Tick(); rec.SimRegions > regions {
			regions = rec.SimRegions
		}
	}
	return regions
}

// BenchmarkTickParallel is the serial-vs-parallel tick benchmark. The
// workers=1 runs are the serial drain; speedup at workers=N requires >= N
// available cores and >= N construct clusters (regions), so interpret a
// timing sweep together with the host's GOMAXPROCS (the -cpu suffix in the
// raw output).
func BenchmarkTickParallel(b *testing.B) {
	for _, sc := range tickParallelScenarios {
		b.Run(fmt.Sprintf("%s/workers%d", sc.name, sc.workers), func(b *testing.B) {
			var regions int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := setupScaledWorkload(b, sc.kind, sc.scale, sc.workers, 1, sc.warm)
				// Collect setup garbage so the measured window starts from
				// a reproducible heap: without this, GC debt inherited from
				// whichever benchmark ran before skews single-sample runs
				// by tens of percent.
				runtime.GC()
				b.StartTimer()
				regions = max(regions, tickWindow(s))
			}
			b.ReportMetric(float64(regions), "regions")
		})
	}
}

// BenchmarkTick measures one game tick per workload at paper scale.
func BenchmarkTick(b *testing.B) {
	for _, sc := range tickScenarios {
		b.Run(sc.name, func(b *testing.B) {
			var entities, players int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := sc.setup(b)
				entities, players = s.EntityWorld().Count(), s.PlayerCount()
				runtime.GC() // reproducible heap (see BenchmarkTickParallel)
				b.StartTimer()
				tickWindow(s)
			}
			b.ReportMetric(float64(entities), "entities")
			b.ReportMetric(float64(players), "players")
		})
	}
}

// TestTickAllocs bounds the allocations of each BenchmarkTick window.
func TestTickAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale tick windows; skipped in -short and under -race")
	}
	for _, sc := range tickScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.setup(t)
			server.CheckAllocs(t, 1, func() { tickWindow(s) }, sc.allocs)
		})
	}
}

// TestTickParallelAllocs bounds the allocations of each
// BenchmarkTickParallel window.
func TestTickParallelAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("scaled tick windows; skipped in -short and under -race")
	}
	for _, sc := range tickParallelScenarios {
		t.Run(fmt.Sprintf("%s/workers%d", sc.name, sc.workers), func(t *testing.T) {
			s := setupScaledWorkload(t, sc.kind, sc.scale, sc.workers, 1, sc.warm)
			server.CheckAllocs(t, 1, func() { tickWindow(s) }, sc.allocs)
		})
	}
}
