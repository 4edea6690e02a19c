package scenario

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

// Options configures one scenario execution.
type Options struct {
	// Workers is the SimWorkers value of each twin (default {1, 2, 4}; the
	// first should be 1 so the legacy serial paths anchor the comparison).
	Workers []int
	// Env is the machine profile (default env.DAS5SixteenCore);
	// MachineSeed seeds its jitter streams (all twins share one seed).
	Env         env.Profile
	MachineSeed int64
	// Fault, when set, runs before each step on every twin — meta-tests use
	// it to corrupt one twin's state and prove the harness catches it.
	Fault func(step int, tw *Twin)
}

func (o Options) workers() []int {
	if len(o.Workers) == 0 {
		return []int{1, 2, 4}
	}
	return o.Workers
}

// Result reports one scenario execution.
type Result struct {
	Scenario *Scenario
	// GenSeed is the generator seed when the scenario came from Generate
	// (RunRandom fills it in), 0 otherwise.
	GenSeed uint64
	Failed  bool
	// Step is the step index at failure: -1 = warmup, len(Steps) =
	// end-of-run checks. StepName and Tick (global tick number) locate it.
	Step     int
	StepName string
	Tick     int
	Detail   string
	// Ticks is how many ticks actually ran; ISR is the end-of-run
	// Instability Ratio of the first twin.
	Ticks int
	ISR   float64
	// ShrunkSteps is the length of the minimal failing step prefix when
	// shrinking ran, 0 otherwise.
	ShrunkSteps int
}

func (r *Result) String() string {
	if !r.Failed {
		return fmt.Sprintf("PASS %s (%d ticks, ISR %.3f)", r.Scenario.Name, r.Ticks, r.ISR)
	}
	loc := "end-of-run"
	switch {
	case r.Step < 0:
		loc = "warmup"
	case r.Step < len(r.Scenario.Steps):
		loc = fmt.Sprintf("step %d %q", r.Step, r.StepName)
	}
	msg := fmt.Sprintf("FAIL %s at %s, tick %d: %s", r.Scenario.Name, loc, r.Tick, r.Detail)
	if r.GenSeed != 0 {
		msg += fmt.Sprintf("\n  replay: go test ./internal/scenario -run TestScenarioRandom -scenario.seed=%d", r.GenSeed)
	}
	if r.ShrunkSteps > 0 {
		msg += fmt.Sprintf("\n  shrunk to %d-step prefix", r.ShrunkSteps)
	}
	return msg
}

// Run executes the scenario against lockstep twins and returns the first
// invariant violation, if any.
func Run(sc *Scenario, opts Options) *Result {
	res := &Result{Scenario: sc, Step: -1}
	workers := opts.workers()
	profile := opts.Env
	if profile.Name == "" {
		profile = env.DAS5SixteenCore
	}

	// mkServer builds one bare twin server — also how a Crash step stands up
	// the replacement process image before restoring its snapshot. The
	// delivery hook is part of the construction-time config, so a rebuilt
	// server observes deliveries into the same twin without re-registration.
	mkServer := func(tw *Twin, n int) (*server.Server, env.Clock) {
		w := workload.NewWorld(sc.Workload, world.PaperControlSeed)
		cfg := server.DefaultConfig(sc.Flavor)
		cfg.Sim.Seed = sc.Seed
		cfg.Sim.Workers = n
		cfg.Net.ClientTimeout = sc.ClientTimeout
		if tw.store != nil {
			// Sync: snapshots land on the tick boundary they were taken at,
			// so a Crash step knows exactly which ticks are on disk.
			cfg.Persist = server.PersistConfig{Store: tw.store, Every: sc.SnapshotEvery, Sync: true}
		}
		cfg.Hooks.EntityDelivery = func(pid int64, c world.ChunkPos) {
			tw.deliveries = append(tw.deliveries, delivery{player: pid, chunk: c})
		}
		clock := env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
		return server.New(w, cfg, env.NewMachine(profile, opts.MachineSeed), clock), clock
	}

	twins := make([]*Twin, len(workers))
	for i, n := range workers {
		tw := &Twin{Index: i, Workers: n, allWorkers: workers,
			prevRevs: map[world.ChunkPos]uint64{}}
		// The reference twin never restarts (CrashRestart), so it takes no
		// snapshots.
		if sc.SnapshotEvery > 0 && i > 0 {
			dir, err := os.MkdirTemp("", "scenario-snap-")
			if err != nil {
				res.Failed = true
				res.Detail = fmt.Sprintf("snapshot dir: %v", err)
				return res
			}
			defer os.RemoveAll(dir)
			st, err := persist.NewStore(dir)
			if err != nil {
				res.Failed = true
				res.Detail = fmt.Sprintf("snapshot store: %v", err)
				return res
			}
			tw.store = st
		}
		tw.S, tw.Clock = mkServer(tw, n)
		tw.rebuild = func(n int) (*server.Server, env.Clock) { return mkServer(tw, n) }

		spec := sc.Workload.DefaultSpec()
		if sc.Scale > 0 {
			spec.Scale = sc.Scale
		}
		spec.IgniteAfterTicks = sc.IgniteAfterTicks
		if err := workload.Install(tw.S, spec); err != nil {
			res.Failed = true
			res.Detail = fmt.Sprintf("workload install: %v", err)
			return res
		}
		if sc.IgniteAfterTicks > 0 {
			workload.Arm(tw.S, spec)
		}
		twins[i] = tw
	}

	maxDur := sc.MaxTickDur
	if maxDur <= 0 {
		maxDur = 5 * time.Second
	}
	maxISR := sc.MaxISR
	if maxISR <= 0 {
		maxISR = 0.9
	}

	tick := 0
	// runTicks drives all twins n lockstep ticks under step index step,
	// checking per-tick invariants; it returns false on failure (res filled).
	runTicks := func(step int, st *Step, n int) bool {
		for k := 0; k < n; k++ {
			if st != nil && st.EachTick != nil {
				for _, tw := range twins {
					st.EachTick(tw, k)
				}
			}
			recs := make([]server.TickRecord, len(twins))
			for i, tw := range twins {
				recs[i] = tw.S.Tick()
				tw.Records = append(tw.Records, recs[i])
				tw.StepOfTick = append(tw.StepOfTick, step)
				if sn := tw.S.Snapshotter(); sn != nil && sn.Err() != nil {
					res.Failed = true
					res.Detail = fmt.Sprintf("twin[%d] (workers=%d) snapshot write: %v", i, tw.Workers, sn.Err())
					return false
				}
			}
			tick++
			res.Tick, res.Ticks = tick, tick
			for i, tw := range twins {
				if crashed, why := tw.S.Crashed(); crashed {
					res.Failed = true
					res.Detail = fmt.Sprintf("twin[%d] (workers=%d) crashed: %s", i, tw.Workers, why)
					return false
				}
				if recs[i].Dur > maxDur {
					res.Failed = true
					res.Detail = fmt.Sprintf("twin[%d] (workers=%d) tick duration %v exceeds bound %v",
						i, tw.Workers, recs[i].Dur, maxDur)
					return false
				}
				if d := diffRecords(&recs[0], &recs[i]); i > 0 && d != "" {
					res.Failed = true
					res.Detail = fmt.Sprintf("tick record diverged, twin[0] (workers=%d) vs twin[%d] (workers=%d): %s",
						twins[0].Workers, i, tw.Workers, d)
					return false
				}
				if d := tw.checkInterest(); d != "" {
					res.Failed = true
					res.Detail = fmt.Sprintf("twin[%d] (workers=%d) interest violation: %s", i, tw.Workers, d)
					return false
				}
			}
		}
		return true
	}

	// checkState compares full snapshots across twins and revision
	// consistency within each twin; returns false on failure.
	checkState := func() bool {
		base := twins[0].S.Snapshot()
		for i, tw := range twins {
			var snap server.Snapshot
			if i == 0 {
				snap = base
			} else {
				snap = tw.S.Snapshot()
			}
			if i > 0 {
				if d := base.Diff(&snap); d != "" {
					res.Failed = true
					res.Detail = fmt.Sprintf("state diverged, twin[0] (workers=%d) vs twin[%d] (workers=%d): %s",
						twins[0].Workers, i, tw.Workers, d)
					return false
				}
			}
			if d := tw.checkRevisions(tw.S.World(), snap.Chunks); d != "" {
				res.Failed = true
				res.Detail = fmt.Sprintf("twin[%d] (workers=%d) revision inconsistency: %s", i, tw.Workers, d)
				return false
			}
		}
		return true
	}

	if sc.Warmup > 0 {
		if !runTicks(-1, nil, sc.Warmup) || !checkState() {
			return res
		}
	}

	for si := range sc.Steps {
		st := &sc.Steps[si]
		res.Step, res.StepName = si, st.Name
		for i, tw := range twins {
			if opts.Fault != nil {
				opts.Fault(si, tw)
			}
			if st.Before != nil {
				st.Before(tw)
			}
			if tw.fail != "" {
				res.Failed = true
				res.Detail = fmt.Sprintf("twin[%d] (workers=%d) %s", i, tw.Workers, tw.fail)
				return res
			}
		}
		if !runTicks(si, st, st.Ticks) || !checkState() {
			return res
		}
	}

	res.Step, res.StepName = len(sc.Steps), "end-of-run"
	res.ISR = metrics.ISR(durationsMS(twins[0].Records), metrics.TickBudgetMS, len(twins[0].Records))
	if res.ISR > maxISR {
		res.Failed = true
		res.Detail = fmt.Sprintf("end-of-run ISR %.3f exceeds bound %.3f", res.ISR, maxISR)
		return res
	}
	if sc.Expect != nil {
		if d := sc.Expect(twins); d != "" {
			res.Failed = true
			res.Detail = "expectation failed: " + d
			return res
		}
	}
	return res
}

// diffRecords compares two tick records for schedule-independent fields and
// returns "" when equivalent. Start (wall position) and the
// SimRegions/SimParallel schedule attribution legitimately differ across
// worker counts and are excluded.
func diffRecords(a, b *server.TickRecord) string {
	switch {
	case a.Tick != b.Tick:
		return fmt.Sprintf("tick number %d vs %d", a.Tick, b.Tick)
	case a.Work != b.Work:
		return fmt.Sprintf("cost-model work %+v vs %+v", a.Work, b.Work)
	case a.Players != b.Players:
		return fmt.Sprintf("players %d vs %d", a.Players, b.Players)
	case a.Entities != b.Entities:
		return fmt.Sprintf("entities %d vs %d", a.Entities, b.Entities)
	case a.Backlog != b.Backlog:
		return fmt.Sprintf("backlog %d vs %d", a.Backlog, b.Backlog)
	case a.Sim != b.Sim:
		return fmt.Sprintf("sim counters %+v vs %+v", a.Sim, b.Sim)
	case a.Ent != b.Ent:
		return fmt.Sprintf("entity counters %+v vs %+v", a.Ent, b.Ent)
	}
	return ""
}

// checkInterest validates and clears the tick's recorded entity-update
// deliveries: each delivered chunk must lie within the receiving player's
// view distance. The check recomputes the predicate from player positions
// rather than trusting the server's own interest test.
func (tw *Twin) checkInterest() string {
	defer func() { tw.deliveries = tw.deliveries[:0] }()
	vd := tw.S.Config().Net.ViewDistance
	for _, d := range tw.deliveries {
		p := tw.S.PlayerByID(d.player)
		if p == nil {
			return fmt.Sprintf("update for chunk %v delivered to departed player %d", d.chunk, d.player)
		}
		pc := world.ChunkPosAt(world.Pos{X: int(p.Pos.X), Y: int(p.Pos.Y), Z: int(p.Pos.Z)})
		dx, dz := int(d.chunk.X-pc.X), int(d.chunk.Z-pc.Z)
		if dx < 0 {
			dx = -dx
		}
		if dz < 0 {
			dz = -dz
		}
		if dx > vd || dz > vd {
			return fmt.Sprintf("update for chunk %v delivered to player %d in chunk %v (view distance %d)",
				d.chunk, d.player, pc, vd)
		}
	}
	return ""
}

// checkRevisions enforces per-twin revision consistency: revisions never
// decrease across steps, and every loaded chunk's memoized Sum equals the
// FNV-64a of a fresh AppendRLE. A block write that skipped the revision
// bump would leave the chunk's encoding memo — and with it wire payloads,
// snapshots and shard mirrors — serving stale bytes.
func (tw *Twin) checkRevisions(w *world.World, chunks []world.ChunkState) string {
	var buf []byte
	for _, c := range chunks {
		if prev, ok := tw.prevRevs[c.Pos]; ok && c.Revision < prev {
			return fmt.Sprintf("chunk %v revision went backwards: %d -> %d", c.Pos, prev, c.Revision)
		}
		tw.prevRevs[c.Pos] = c.Revision
		buf = w.ChunkIfLoaded(c.Pos).AppendRLE(buf[:0])
		h := fnv.New64a()
		h.Write(buf)
		if h.Sum64() != c.Sum {
			return fmt.Sprintf("chunk %v cache stale at revision %d", c.Pos, c.Revision)
		}
	}
	return ""
}

func durationsMS(recs []server.TickRecord) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = float64(recs[i].Dur) / float64(time.Millisecond)
	}
	return out
}
