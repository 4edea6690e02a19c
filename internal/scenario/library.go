package scenario

import (
	"fmt"
	"time"

	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// Library returns the curated scenarios: hand-written scripts targeting the
// known escape paths of the region-parallel engine — the places where a
// parallel schedule could legally diverge from the serial one if a guard
// regressed. Each runs green today; a simulation change that breaks one
// names the step and tick where the schedules separated.
func Library() []*Scenario {
	return []*Scenario{
		GenerationHorizonChase(),
		CrossRegionTNT(),
		PackImbalance(),
		JoinLeaveWaves(),
		TeleportStormScenario(),
		ChurnDuringParallelDrain(),
		ReconfigureMidRun(),
		CrashMidCascade(),
		TornSnapshotFallback(),
	}
}

// ByName returns the curated scenario with the given name, or nil.
func ByName(name string) *Scenario {
	for _, sc := range Library() {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}

// GenerationHorizonChase walks players off the generated map with mobs in
// tow: mob pathfinding near the generation frontier is the classic escape
// path (a parallel region whose AI touches an ungenerated chunk must re-tick
// serially, and that fallback must be output-invisible).
func GenerationHorizonChase() *Scenario {
	return &Scenario{
		Name:     "generation-horizon-chase",
		Workload: workload.Control,
		Flavor:   server.Vanilla,
		Seed:     41,
		Warmup:   6,
		Steps: []Step{
			JoinWave(3, 4),
			MobWave(0xC0FFEE, 6, 12, 4),
			Chase(0, 4, 0, 12),
			Chase(1, 0, 4, 12),
			MobWave(0xDECAF, 4, 10, 4),
			Chase(2, 3, 3, 10),
			Quiet(6),
		},
	}
}

// CrossRegionTNT detonates TNT cubes straddling chunk and region borders:
// blast waves crossing a region boundary must roll the parallel attempt
// back without leaking partial state.
func CrossRegionTNT() *Scenario {
	return &Scenario{
		Name:     "cross-region-tnt",
		Workload: workload.Control,
		Flavor:   server.Paper,
		Seed:     43,
		Warmup:   6,
		Steps: []Step{
			JoinWave(2, 3),
			// 8+ox with ox=7 puts the cube corner at x=15/z=15: the cube
			// spans four chunks; the second burst lands two chunks out so
			// the two craters sit in distinct simulation regions.
			TNTBurst(7, 7, 2, 3, 10),
			TNTBurst(-40, -40, 2, 3, 10),
			DigStorm(0xB1A57, 6, 10, 4),
			Quiet(10),
		},
	}
}

// PackImbalance runs the Farm workload at Scale 3 — three separated
// construct clusters of very different sizes once a TNT crater removes part
// of one — so the sized work-unit packer must balance unequal regions
// across workers without reordering effects.
func PackImbalance() *Scenario {
	sc := &Scenario{
		Name:     "pack-imbalance",
		Workload: workload.Farm,
		Scale:    3,
		Flavor:   server.Vanilla,
		Seed:     47,
		Warmup:   10,
		Steps: []Step{
			JoinWave(1, 4),
			TNTBurst(6, 6, 2, 3, 12),
			Quiet(20),
		},
		Expect: func(twins []*Twin) string {
			for _, tw := range twins {
				if tw.Workers <= 1 {
					continue
				}
				par := 0
				for _, r := range tw.Records {
					if r.SimParallel {
						par++
					}
				}
				if par == 0 {
					return fmt.Sprintf("workers=%d twin never drained terrain in parallel", tw.Workers)
				}
			}
			return ""
		},
	}
	return sc
}

// JoinLeaveWaves churns the population in bursts: join floods (chunk-send
// bursts, view-area generation) interleaved with mass departures.
func JoinLeaveWaves() *Scenario {
	return &Scenario{
		Name:     "join-leave-waves",
		Workload: workload.Control,
		Flavor:   server.Forge,
		Seed:     53,
		Warmup:   5,
		Steps: []Step{
			JoinWave(4, 4),
			LeaveWave(2, 3),
			JoinWave(3, 4),
			Churn(2, 2, 3),
			LeaveWave(5, 3),
			JoinWave(1, 4),
			Quiet(5),
		},
	}
}

// TeleportStormScenario scatters the population across a wide radius every
// few ticks: interest sets churn wholesale and view areas land on
// ungenerated terrain.
func TeleportStormScenario() *Scenario {
	return &Scenario{
		Name:     "teleport-storm",
		Workload: workload.Control,
		Flavor:   server.Vanilla,
		Seed:     59,
		Warmup:   5,
		Steps: []Step{
			JoinWave(4, 3),
			TeleportStorm(0xFEED, 80, 5),
			MobWave(0xFACE, 5, 16, 4),
			TeleportStorm(0xBEEF, 120, 5),
			TeleportStorm(0xCAFE, 40, 5),
			Quiet(6),
		},
	}
}

// ChurnDuringParallelDrain connects and disconnects players on the very
// ticks the TNT workload's explosion cascade is in full swing — blast
// merges on the terrain drain, storm-sized entity ticks: the join/leave
// mutates the player set those phases consume (item pickup, interest sets),
// and the churned set must read identically at every worker count.
func ChurnDuringParallelDrain() *Scenario {
	return &Scenario{
		Name:             "churn-during-parallel-drain",
		Workload:         workload.TNT,
		Scale:            2,
		Flavor:           server.Vanilla,
		Seed:             61,
		IgniteAfterTicks: 4,
		// Ignition at tick 4 plus the 80-tick fuse: explosions begin around
		// tick 84, so warmup ends with the cascade in full swing.
		Warmup: 86,
		Steps: []Step{
			Churn(2, 1, 2),
			Churn(1, 1, 2),
			Churn(2, 2, 2),
			Quiet(12),
		},
	}
}

// CrashMidCascade power-cuts the non-reference twins in the middle of a TNT
// cascade — live fuses, blast waves and item storms in flight — and restarts
// them from their per-tick snapshots. The restored twins must stay in
// lockstep with the reference twin that never died, through the rest of the
// cascade and fresh player/mob activity layered on top.
func CrashMidCascade() *Scenario {
	return &Scenario{
		Name:          "crash-mid-cascade",
		Workload:      workload.Control,
		Flavor:        server.Paper,
		Seed:          71,
		Warmup:        5,
		SnapshotEvery: 1,
		Steps: []Step{
			JoinWave(2, 3),
			// Fuse 3 with 4 step ticks: the crash lands with craters half
			// carved and TNT entities mid-air.
			TNTBurst(6, 6, 2, 3, 4),
			Crash(CrashClean, 6),
			MobWave(0x5AFE, 4, 10, 4),
			Chase(0, 3, 2, 6),
			Crash(CrashClean, 4),
			Quiet(6),
		},
	}
}

// TornSnapshotFallback crashes twins with every corruption mode in turn:
// torn tail, in-flight fault injection, and a flipped bit. Each restart must
// detect the damaged newest snapshot by checksum, fall back to the previous
// good one, and re-converge with the reference by replaying the gap — which
// is why every corrupting crash sits behind a Quiet step (the replayed tick
// must have had no client inputs).
func TornSnapshotFallback() *Scenario {
	return &Scenario{
		Name:          "torn-snapshot-fallback",
		Workload:      workload.Farm,
		Scale:         2,
		Flavor:        server.Vanilla,
		Seed:          73,
		Warmup:        8,
		SnapshotEvery: 1,
		Steps: []Step{
			JoinWave(2, 3),
			DigStorm(0xFA11, 4, 8, 2),
			Quiet(4),
			Crash(CrashTruncateLatest, 5),
			Quiet(3),
			Crash(CrashMidSnapshot, 5),
			Quiet(2),
			Crash(CrashBitFlipLatest, 4),
			Quiet(4),
		},
	}
}

// ReconfigureMidRun restarts every non-reference twin at a different
// SimWorkers twice mid-script — a parallel twin comes back serial, then
// parallel again — proving the worker count a snapshot was written under is
// invisible in all state.
func ReconfigureMidRun() *Scenario {
	return &Scenario{
		Name:          "reconfigure-mid-run",
		Workload:      workload.Lag,
		Scale:         2,
		Flavor:        server.Paper,
		Seed:          67,
		Warmup:        8,
		SnapshotEvery: 1,
		// The Lag workload overloads the tick budget by design (its virtual
		// ticks run tens of seconds); only equivalence is asserted here, so
		// the duration and ISR bounds are slack.
		MaxTickDur: 2 * time.Minute,
		MaxISR:     1.0,
		Steps: []Step{
			JoinWave(2, 4),
			Reconfigure(1, 8),
			DigStorm(0xD16, 5, 12, 4),
			Reconfigure(2, 8),
			TNTBurst(10, -10, 2, 3, 10),
			Quiet(6),
		},
	}
}
