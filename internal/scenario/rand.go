package scenario

import (
	"fmt"
	"time"

	"repro/internal/mlg/mrand"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// rng is a scenario's mrand stream: tiny, fast, and fully determined by its
// seed, so a scenario is reproduced exactly by re-running Generate with the
// seed printed on failure.
type rng struct{ mrand.Source }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return r.Intn(n)
}

// pick returns a value in [lo, hi].
func (r *rng) pick(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// Generate derives a random scenario from seed: a workload, a flavor, and
// 6–14 steps drawn from the full step vocabulary, starting with a join wave
// and capped at roughly a hundred ticks. Identical seeds produce identical
// scenarios — the harness's model-checking loop runs Generate over fresh
// seeds and replays failures from the printed one.
func Generate(seed uint64) *Scenario {
	r := rng{mrand.New(seed)}
	kinds := []workload.Kind{workload.Control, workload.Farm, workload.Lag}
	flavors := server.Flavors()

	sc := &Scenario{
		Name:     fmt.Sprintf("random-%#x", seed),
		Workload: kinds[r.intn(len(kinds))],
		Scale:    r.pick(1, 2),
		Flavor:   flavors[r.intn(len(flavors))],
		Seed:     int64(seed%0x7fffffff) + 1,
		Warmup:   r.pick(5, 20),
	}
	if sc.Workload == workload.Lag {
		// The Lag workload overloads the tick budget by design; generated
		// scenarios assert equivalence, so its duration/ISR bounds go slack.
		sc.MaxTickDur = 2 * time.Minute
		sc.MaxISR = 1.0
	}

	budget := 100 // total scripted ticks, keeps a round affordable
	nsteps := r.pick(6, 14)
	for i := 0; i < nsteps && budget > 0; i++ {
		ticks := r.pick(1, 8)
		if ticks > budget {
			ticks = budget
		}
		budget -= ticks
		var st Step
		if i == 0 {
			st = JoinWave(r.pick(1, 4), ticks)
		} else {
			switch r.intn(10) {
			case 0:
				st = JoinWave(r.pick(1, 3), ticks)
			case 1:
				st = LeaveWave(r.pick(1, 2), ticks)
			case 2:
				st = Churn(r.pick(1, 2), r.pick(1, 2), ticks)
			case 3:
				st = TeleportStorm(r.Uint64(), r.pick(16, 96), ticks)
			case 4:
				st = Chase(r.intn(4), r.pick(-4, 4), r.pick(-4, 4), ticks)
			case 5:
				st = TNTBurst(r.pick(-24, 24), r.pick(-24, 24), r.pick(1, 2), r.pick(1, 4), ticks)
			case 6:
				st = DigStorm(r.Uint64(), r.pick(2, 10), r.pick(4, 24), ticks)
			case 7:
				st = MobWave(r.Uint64(), r.pick(1, 6), r.pick(4, 24), ticks)
			case 8:
				// A clean restart at another worker count: see case 9.
				st = Reconfigure(r.pick(1, 2), ticks)
				sc.SnapshotEvery = 1
			case 9:
				// Clean crash-restart from the per-tick snapshot: safe at any
				// point in a random script (no replay gap). Corruption modes
				// need input-free gap ticks, which a random script cannot
				// guarantee, so only the curated library exercises them.
				st = Crash(CrashClean, ticks)
				sc.SnapshotEvery = 1
			}
		}
		sc.Steps = append(sc.Steps, st)
	}
	if budget > 0 && r.intn(2) == 0 {
		q := budget
		if q > 10 {
			q = 10
		}
		sc.Steps = append(sc.Steps, Quiet(q))
	}
	return sc
}
