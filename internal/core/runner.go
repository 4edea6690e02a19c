package core

import (
	"math/rand"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// RunSpec fully describes one benchmark run: which MLG, which workload,
// which deployment environment, for how long.
type RunSpec struct {
	Flavor    server.Flavor
	Workload  workload.Spec
	Env       env.Profile
	Duration  time.Duration
	Iteration int
	Seed      int64
	// ProbeEvery overrides the chat-probe interval (default 1 s).
	ProbeEvery time.Duration
	// SimWorkers sets the terrain-drain parallelism of the server under
	// test (0 = GOMAXPROCS, 1 = serial). Simulation output is bit-identical
	// at any value — the golden checksum suite and the serial-vs-parallel
	// equivalence matrices enforce it — so this knob trades wall-clock time
	// only.
	SimWorkers int
}

// TickPoint is one tick of the run's tick-time series (Figure 9 data).
type TickPoint struct {
	// AtMS is the tick's start offset from run start, in virtual ms.
	AtMS float64
	// DurMS is the tick's busy duration in ms.
	DurMS float64
}

// RunResult aggregates everything one run produced.
type RunResult struct {
	Flavor      string
	Workload    string
	Environment string
	Iteration   int

	// TickMS is the tick-duration trace in milliseconds; Series adds
	// timestamps for time-series plots.
	TickMS []float64
	Series []TickPoint
	// TickSummary summarizes TickMS; ISR is the Instability Ratio over the
	// run (Equation 1).
	TickSummary metrics.Summary
	ISR         float64
	// Overloaded counts ticks above the 50 ms budget.
	Overloaded int

	// ResponseMS are completed chat-probe round trips in milliseconds.
	ResponseMS      []float64
	ResponseSummary metrics.Summary

	// Crashed reports abnormal termination (e.g. client timeouts under the
	// Lag workload on starved nodes).
	Crashed     bool
	CrashReason string

	// Net totals feed Table 8; Fig11 the tick-distribution plot.
	Net   server.NetTotals
	Fig11 server.Fig11Totals

	// FinalEntities and ItemsCollected describe the end state.
	FinalEntities  int
	ItemsCollected int64
	// Machine state for environment analysis.
	Throttled bool
	BusyHost  bool
}

// probeKey matches a chat echo back to its sending bot.
type probeKey struct {
	playerID int64
	sentNano int64
}

// Run executes one benchmark run on a virtual clock and returns its
// result. Runs are deterministic in (spec.Seed, spec fields).
func Run(spec RunSpec) RunResult {
	if spec.ProbeEvery <= 0 {
		spec.ProbeEvery = time.Second
	}
	res := RunResult{
		Flavor:      spec.Flavor.Name,
		Workload:    spec.Workload.Kind.String(),
		Environment: spec.Env.Name,
		Iteration:   spec.Iteration,
	}

	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := env.NewVirtualClock(start)
	machine := env.NewMachine(spec.Env, spec.Seed*2654435761+int64(spec.Iteration))

	w := workload.NewWorld(spec.Workload.Kind, world.PaperControlSeed)
	scfg := server.DefaultConfig(spec.Flavor)
	scfg.Sim.Seed = spec.Seed
	scfg.Net.ClientTimeout = spec.Env.ConnTimeout
	scfg.Sim.Workers = spec.SimWorkers
	s := server.New(w, scfg, machine, clock)
	if err := workload.Install(s, spec.Workload); err != nil {
		res.Crashed, res.CrashReason = true, err.Error()
		return res
	}

	// Warm-up: let the freshly installed world settle (fluid spread, wire
	// power-up, construct start-up cascades) before player emulation
	// connects — the paper's initialize step. No players are connected, so
	// no measurement and no crash semantics apply.
	for i := 0; i < 600; i++ {
		rec := s.Tick()
		if i >= 30 && rec.Backlog == 0 {
			break
		}
	}

	// Short runs pull the TNT ignition forward so the chain reaction fits
	// inside the measured window.
	if ticks := int(spec.Duration / server.TickBudget); spec.Workload.IgniteAfterTicks >= ticks {
		spec.Workload.IgniteAfterTicks = ticks / 3
		if spec.Workload.IgniteAfterTicks < 1 {
			spec.Workload.IgniteAfterTicks = 1
		}
	}

	// Player emulation: bots connect staggered a few ticks apart, as
	// Yardstick ramps its emulated players up, so 25 simultaneous join
	// bursts do not land on one tick. The first join still produces the
	// post-connect response-time outliers of MF1.
	const connectStaggerTicks = 5
	behavior := bot.Idle
	if spec.Workload.BotsMove {
		behavior = bot.RandomWalk
	}
	swarm := bot.NewSwarm(spec.Workload.Bots, behavior, spec.ProbeEvery, spec.Seed+77)
	botIDs := make([]int64, len(swarm.Bots))
	connected := make([]bool, len(swarm.Bots))
	connectBot := func(i int) {
		p := s.Connect(swarm.Bots[i].Name())
		botIDs[i] = p.ID
		connected[i] = true
	}
	connectBot(0)

	// Trigger the workload (TNT ignition) relative to player connect.
	workload.Arm(s, spec.Workload)

	sent := make(map[probeKey]time.Time)
	var responses []float64
	// Bots act at uniformly random offsets within each tick cycle, like
	// real clients whose inputs are not phase-locked to the server tick.
	sendJitter := rand.New(rand.NewSource(spec.Seed ^ 0x5ca1ab1e))

	runStart := clock.Now()
	end := runStart.Add(spec.Duration)
	tickIndex := 0
	for clock.Now().Before(end) {
		tickStart := clock.Now()
		tickIndex++

		// Bots act somewhere inside the current tick cycle; their packets
		// arrive after the uplink latency and queue until the next tick —
		// the input-queue wait of the operational model.
		for i, b := range swarm.Bots {
			if !connected[i] {
				if tickIndex >= i*connectStaggerTicks {
					connectBot(i)
				}
				continue
			}
			sentAt := tickStart.Add(time.Duration(sendJitter.Int63n(int64(server.TickBudget))))
			for _, pkt := range b.Actions(sentAt) {
				arrival := sentAt.Add(machine.NetOneWay())
				s.Enqueue(botIDs[i], pkt, arrival)
				if chat, ok := pkt.(*protocol.Chat); ok {
					sent[probeKey{botIDs[i], chat.SentUnixNano}] = sentAt
				}
			}
		}

		rec := s.Tick()
		durMS := float64(rec.Dur) / float64(time.Millisecond)
		res.TickMS = append(res.TickMS, durMS)
		res.Series = append(res.Series, TickPoint{
			AtMS:  float64(tickStart.Sub(runStart)) / float64(time.Millisecond),
			DurMS: durMS,
		})
		res.Fig11.Add(rec)

		// Complete chat probes: echo flush time plus downlink.
		for _, echo := range s.DrainChatEchoes() {
			key := probeKey{echo.PlayerID, echo.SentUnixNano}
			sentAt, ok := sent[key]
			if !ok {
				continue
			}
			delete(sent, key)
			recvAt := echo.ReadyAt.Add(machine.NetOneWay())
			responses = append(responses, float64(recvAt.Sub(sentAt))/float64(time.Millisecond))
		}

		if crashed, reason := s.Crashed(); crashed {
			res.Crashed = true
			res.CrashReason = reason
			break
		}
	}

	res.TickSummary = metrics.Summarize(res.TickMS)
	res.ISR = metrics.ISR(res.TickMS, metrics.TickBudgetMS,
		metrics.ExpectedTicks(spec.Duration, server.TickBudget))
	for _, d := range res.TickMS {
		if d > metrics.TickBudgetMS {
			res.Overloaded++
		}
	}
	res.ResponseMS = responses
	res.ResponseSummary = metrics.Summarize(responses)
	res.Net = s.NetTotals()
	res.FinalEntities = s.EntityWorld().Count()
	res.ItemsCollected = s.Engine().ItemsCollected
	res.Throttled = machine.Throttled()
	res.BusyHost = machine.BusyHost()
	return res
}

// RunIterations executes n iterations of the spec, varying the iteration
// index (and with it the machine placement), like the paper's 50-iteration
// MF3 experiment.
func RunIterations(spec RunSpec, n int) []RunResult {
	out := make([]RunResult, 0, n)
	for it := 0; it < n; it++ {
		s := spec
		s.Iteration = it
		out = append(out, Run(s))
	}
	return out
}

// ISRs extracts the ISR of each result.
func ISRs(results []RunResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.ISR
	}
	return out
}

// MeanTicks extracts the mean tick duration (ms) of each result.
func MeanTicks(results []RunResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.TickSummary.Mean
	}
	return out
}
