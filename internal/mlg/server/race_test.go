package server_test

// Race-detector stress for the region-parallel tick: while a SimWorkers=4
// server drains a two-cluster Lag workload in parallel, other goroutines
// hammer the surfaces real deployments touch concurrently — player joins
// (world generation + spawn probes), terrain reads, and server stat
// queries. Under -race this is the regression guard for the exclusive
// drain phase: region workers write chunks without per-write locking, which
// is only sound while the world write lock shuts readers out.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

func TestParallelTickConcurrentAccessRace(t *testing.T) {
	w := workload.NewWorld(workload.Lag, world.PaperControlSeed)
	cfg := server.DefaultConfig(server.Vanilla)
	cfg.Sim.Seed = 5
	cfg.Sim.Workers = 4
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	s := server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	spec := workload.Lag.DefaultSpec()
	spec.Scale = 2 // two machine clusters: the drains actually run parallel
	if err := workload.Install(s, spec); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Joining players: spawn probes (HighestSolidY), view-area generation,
	// player-map mutation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := s.Connect("racer")
			s.PlayerCount()
			s.Disconnect(p.ID)
			runtime.Gosched()
		}
	}()

	// Terrain readers: the metric-externalizer access pattern, aimed into
	// the active construct area so reads contend with region writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := -64 + (i % 160)
			w.Block(world.Pos{X: x, Y: 12, Z: -64 + (i % 100)})
			w.BlockIfLoaded(world.Pos{X: x, Y: 12, Z: 8})
			w.Stats()
			runtime.Gosched()
		}
	}()

	// Stat readers on the server mutex.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.NetTotals()
			s.TickNumber()
			s.Records()
			runtime.Gosched()
		}
	}()

	parallelSeen := false
	for i := 0; i < 12; i++ {
		if rec := s.Tick(); rec.SimParallel {
			parallelSeen = true
		}
	}
	close(stop)
	wg.Wait()
	if !parallelSeen {
		t.Fatalf("stress run never drained in parallel: %+v", s.Engine().ParallelStats())
	}
}

// TestTNTStormConcurrentJoinRace is the explosion-cascade counterpart:
// while a SimWorkers=4 server runs a two-cluster TNT storm — storm-sized
// entity ticks and blast merges — other goroutines join and leave (world
// generation, spawn probes, player-map mutation), read terrain into the
// crater area, and poll server stats. Under -race this guards the entity
// store's cached terrain reads against concurrent chunk generation.
func TestTNTStormConcurrentJoinRace(t *testing.T) {
	w := workload.NewWorld(workload.TNT, world.PaperControlSeed)
	cfg := server.DefaultConfig(server.Vanilla)
	cfg.Sim.Seed = 7
	cfg.Sim.Workers = 4
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	s := server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	spec := workload.TNT.DefaultSpec()
	spec.Scale = 2 // two cuboids: two storms of entities
	spec.IgniteAfterTicks = 2
	if err := workload.Install(s, spec); err != nil {
		t.Fatal(err)
	}
	s.Connect("storm")
	workload.Arm(s, spec)
	// Run into the chain reaction so the entity population is storm-sized.
	for i := 0; i < 300 && s.EntityWorld().Count() < 400; i++ {
		s.Tick()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := s.Connect("joiner")
			s.PlayerCount()
			s.Disconnect(p.ID)
			runtime.Gosched()
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Crater-area reads contending with the exclusive entity phase.
			w.Block(world.Pos{X: 32 + i%64, Y: 20, Z: 32 + i%64})
			w.BlockIfLoaded(world.Pos{X: 32 + i%64, Y: 20, Z: 40})
			s.NetTotals()
			s.Records()
			runtime.Gosched()
		}
	}()

	for i := 0; i < 15; i++ {
		s.Tick()
	}
	close(stop)
	wg.Wait()
	if n := s.EntityWorld().Count(); n < 400 {
		t.Fatalf("stress run ended with %d entities, want a storm of >= 400", n)
	}
}
