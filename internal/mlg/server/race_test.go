package server_test

// Race-detector stress for the region-parallel tick: while a SimWorkers=4
// server drains a two-cluster Lag workload in parallel, other goroutines
// hammer the surfaces real deployments touch concurrently — player joins
// (world generation + spawn probes), terrain reads, and server stat
// queries. Under -race this is the regression guard for the exclusive
// drain phase: region workers write chunks without per-write locking, which
// is only sound while the world write lock shuts readers out.
//
// The chunk encoding memo adds a second rule: region workers only advance
// revisions, and the memo is filled by readers on the tick goroutine
// between phases — state and MLGP snapshots, socket players' chunk batches.

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
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
			s.Outbound()
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

// TestParallelTickSnapshotChunkBatchRace: the tick goroutine interleaves
// Snapshot, a full EncodeSnapshot and a socket player's join chunk batch —
// every reader that fills chunk encoding memos — with the parallel drains
// of a SimWorkers=4 two-cluster Lag server, while joiners probe terrain.
func TestParallelTickSnapshotChunkBatchRace(t *testing.T) {
	w := workload.NewWorld(workload.Lag, world.PaperControlSeed)
	cfg := server.DefaultConfig(server.Vanilla)
	cfg.Sim.Seed = 5
	cfg.Sim.Workers = 4
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	s := server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	spec := workload.Lag.DefaultSpec()
	spec.Scale = 2
	if err := workload.Install(s, spec); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// A socket player: the login owes it its view area, which the tick
	// goroutine streams as chunk batches of memoized payloads.
	conn, err := protocol.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion})
	conn.WritePacket(&protocol.Login{Name: "batch"})
	var chunks atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			pkt, _, err := conn.ReadPacket()
			if err != nil {
				return // closed at teardown
			}
			if _, ok := pkt.(*protocol.ChunkData); ok {
				chunks.Add(1)
			}
		}
	}()

	// Joiners probing terrain: view-area generation, spawn probes and
	// block reads into the construct area.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := s.Connect("prober")
				w.HighestSolidY(8+g, 8)
				w.Block(world.Pos{X: -64 + (i % 160), Y: 12, Z: -64 + (i % 100)})
				s.Disconnect(p.ID)
				runtime.Gosched()
			}
		}(g)
	}

	parallelSeen := false
	for i := 0; i < 200 && (i < 12 || !parallelSeen || chunks.Load() == 0); i++ {
		if rec := s.Tick(); rec.SimParallel {
			parallelSeen = true
		}
		s.Snapshot()
		s.EncodeSnapshot(nil)
	}
	close(stop)
	s.Stop()
	ln.Close()
	conn.Close()
	wg.Wait()
	if !parallelSeen {
		t.Fatalf("stress run never drained in parallel: %+v", s.Engine().ParallelStats())
	}
	if chunks.Load() == 0 {
		t.Fatal("the socket player never received a chunk batch")
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
			s.Outbound()
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
