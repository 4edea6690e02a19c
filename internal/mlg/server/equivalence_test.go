package server_test

// Serial-vs-parallel equivalence matrix at the server level: every workload
// x flavor runs tick-locked twin servers — SimWorkers=1 (serial drain) vs
// SimWorkers=4 (region-parallel drain) — and asserts identical sim.Counters
// AND entity.Counters on every tick plus identical world contents and
// entity state at the end. Construct workloads run at Scale 2, which lays
// out two separated construct clusters, so the terrain engine actually
// partitions into multiple regions and takes the worker-pool path.
//
// This matrix is the gate future simulation changes must pass: any rule,
// queueing or scheduling change that breaks serial/parallel bit-equality
// fails here tick-by-tick, with the first divergent counter visible.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

func newMatrixServer(k workload.Kind, f server.Flavor, simWorkers int) *server.Server {
	w := workload.NewWorld(k, world.PaperControlSeed)
	cfg := server.DefaultConfig(f)
	cfg.Sim.Seed = 1234
	cfg.Sim.Workers = simWorkers
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	s := server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	spec := k.DefaultSpec()
	switch k {
	case workload.TNT, workload.Farm, workload.Lag:
		spec.Scale = 2 // two construct clusters: >= 2 simulation regions
	}
	if k == workload.TNT {
		spec.IgniteAfterTicks = 4
	}
	if err := workload.Install(s, spec); err != nil {
		panic(err)
	}
	s.Connect("matrix")
	if k == workload.TNT {
		workload.Arm(s, spec)
	}
	return s
}

func TestSerialParallelTickMatrix(t *testing.T) {
	ticksFor := func(k workload.Kind) int {
		if k == workload.TNT {
			// Cover ignition (tick 4), the 80-tick fuse and the first
			// explosion waves.
			return 150
		}
		return 90
	}
	for _, k := range workload.All() {
		for _, f := range server.Flavors() {
			k, f := k, f
			t.Run(fmt.Sprintf("%s/%s", k, f.Name), func(t *testing.T) {
				serial := newMatrixServer(k, f, 1)
				parallel := newMatrixServer(k, f, 4)
				parallelTicks := 0
				for i := 0; i < ticksFor(k); i++ {
					rs := serial.Tick()
					rp := parallel.Tick()
					if rs.Sim != rp.Sim {
						t.Fatalf("tick %d: sim counters diverged\nserial:   %+v\nparallel: %+v",
							i+1, rs.Sim, rp.Sim)
					}
					if rs.Ent != rp.Ent {
						t.Fatalf("tick %d: entity counters diverged\nserial:   %+v\nparallel: %+v",
							i+1, rs.Ent, rp.Ent)
					}
					if rs.Work != rp.Work {
						t.Fatalf("tick %d: cost-model work diverged\nserial:   %+v\nparallel: %+v",
							i+1, rs.Work, rp.Work)
					}
					if rs.Entities != rp.Entities {
						t.Fatalf("tick %d: entity count %d vs %d", i+1, rs.Entities, rp.Entities)
					}
					if rp.SimParallel {
						parallelTicks++
					}
					if rs.SimParallel {
						t.Fatalf("tick %d: SimWorkers=1 server took a parallel path", i+1)
					}
				}
				// Final-state equivalence goes through the same comparison
				// path the scenario harness uses: terrain contents, entity
				// populations and state, collected items, traffic totals.
				ss, ps := serial.Snapshot(), parallel.Snapshot()
				if d := ss.Diff(&ps); d != "" {
					t.Fatalf("final state diverged: %s", d)
				}
				// The redstone-driven construct workloads must actually
				// exercise the region-parallel drain (two clusters at Scale 2).
				if k == workload.Farm || k == workload.Lag {
					if parallelTicks == 0 {
						t.Fatalf("%s scale 2 never drained in parallel: %+v",
							k, parallel.Engine().ParallelStats())
					}
				}
			})
		}
	}
}
