// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablation benches for the engine's design choices.
// Each benchmark executes the same code path the cmd/experiments
// reproduction uses, at a reduced virtual duration so `go test -bench=.`
// stays tractable; cmd/experiments regenerates the full artifacts.
//
// Reported custom metrics: isr (Instability Ratio), tick_ms_mean, and where
// relevant resp_ms_p95, so benchmark output doubles as a compact regression
// record of the reproduced results.
package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

const benchDuration = 15 * time.Second

func benchSpec(k workload.Kind, f server.Flavor, p env.Profile) core.RunSpec {
	return core.RunSpec{
		Flavor:   f,
		Workload: k.DefaultSpec(),
		Env:      p,
		Duration: benchDuration,
		Seed:     7,
	}
}

func reportRun(b *testing.B, res core.RunResult) {
	b.ReportMetric(res.ISR, "isr")
	b.ReportMetric(res.TickSummary.Mean, "tick_ms_mean")
	if res.ResponseSummary.N > 0 {
		b.ReportMetric(res.ResponseSummary.P95, "resp_ms_p95")
	}
}

// BenchmarkFig1ResponseTime regenerates Figure 1: Minecraft response time on
// AWS under the Control and Farm workloads.
func BenchmarkFig1ResponseTime(b *testing.B) {
	for _, k := range []workload.Kind{workload.Control, workload.Farm} {
		b.Run(k.String(), func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Run(benchSpec(k, server.Vanilla, env.AWSLarge))
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkFig6ISR regenerates Figure 6: the ISR metric itself — the
// analytic model and the metric evaluated over a long synthetic trace.
func BenchmarkFig6ISR(b *testing.B) {
	trace := metrics.SyntheticOutlierTrace(100_000, 25, 10, 50)
	b.ResetTimer()
	var isr float64
	for i := 0; i < b.N; i++ {
		isr = metrics.ISR(trace, 50, 136_000)
	}
	b.ReportMetric(isr, "isr")
	b.ReportMetric(metrics.ISRModel(10, 25), "isr_model")
}

// BenchmarkFig7 regenerates Figure 7 / MF1: response-time distributions of
// Minecraft and Forge under the environment-based workloads on AWS.
func BenchmarkFig7(b *testing.B) {
	for _, f := range []server.Flavor{server.Vanilla, server.Forge} {
		for _, k := range []workload.Kind{workload.Control, workload.Farm, workload.TNT} {
			b.Run(f.Name+"/"+k.String(), func(b *testing.B) {
				var res core.RunResult
				for i := 0; i < b.N; i++ {
					res = core.Run(benchSpec(k, f, env.AWSLarge))
				}
				reportRun(b, res)
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 / MF2: ISR per MLG and workload on the
// cloud and self-hosted environments (Lag on AWS crashes, reported as isr=1).
func BenchmarkFig8(b *testing.B) {
	envs := []env.Profile{env.AWSLarge, env.DAS5TwoCore, env.DAS5SixteenCore}
	for _, p := range envs {
		for _, k := range []workload.Kind{workload.Control, workload.Farm, workload.Lag} {
			for _, f := range server.Flavors() {
				b.Run(p.Name+"/"+k.String()+"/"+f.Name, func(b *testing.B) {
					var res core.RunResult
					for i := 0; i < b.N; i++ {
						res = core.Run(benchSpec(k, f, p))
					}
					if res.Crashed {
						b.ReportMetric(1, "crashed")
					}
					reportRun(b, res)
				})
			}
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: tick-time series under the TNT
// workload on AWS (the series itself is the artifact; the bench validates
// its generation cost and shape).
func BenchmarkFig9(b *testing.B) {
	var res core.RunResult
	for i := 0; i < b.N; i++ {
		res = core.Run(benchSpec(workload.TNT, server.Vanilla, env.AWSLarge))
	}
	reportRun(b, res)
	b.ReportMetric(res.TickSummary.Max, "tick_ms_peak")
}

// BenchmarkFig10 regenerates Figure 10 / MF3: iteration-to-iteration ISR
// distributions of the Players workload per environment.
func BenchmarkFig10(b *testing.B) {
	for _, p := range []env.Profile{env.DAS5TwoCore, env.AzureD2, env.AWSLarge} {
		b.Run(p.Name, func(b *testing.B) {
			var iqr, med float64
			for i := 0; i < b.N; i++ {
				rs := core.RunIterations(benchSpec(workload.Players, server.Vanilla, p), 5)
				s := metrics.Summarize(core.ISRs(rs))
				iqr, med = s.IQR, s.Median
			}
			b.ReportMetric(med, "isr_median")
			b.ReportMetric(iqr, "isr_iqr")
		})
	}
}

// BenchmarkFig11 regenerates Figure 11 / MF4: the entity share of busy tick
// time on AWS.
func BenchmarkFig11(b *testing.B) {
	for _, f := range server.Flavors() {
		b.Run(f.Name, func(b *testing.B) {
			var entityShare float64
			for i := 0; i < b.N; i++ {
				res := core.Run(benchSpec(workload.TNT, f, env.AWSLarge))
				d := res.Fig11
				busy := d.PlayerUS + d.BlockUpdateUS + d.BlockAddRemoveUS + d.EntityUS + d.OtherUS
				if busy > 0 {
					entityShare = d.EntityUS / busy
				}
			}
			b.ReportMetric(entityShare*100, "entity_pct_of_busy")
		})
	}
}

// BenchmarkFig12 regenerates Figure 12 / MF5: TNT tick time and ISR across
// the AWS node-size ladder.
func BenchmarkFig12(b *testing.B) {
	for _, p := range env.NodeSizes() {
		b.Run(p.Name, func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				res = core.Run(benchSpec(workload.TNT, server.Vanilla, p))
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkTab2WorldSizes regenerates Table 2: building and serializing the
// workload worlds.
func BenchmarkTab2WorldSizes(b *testing.B) {
	for _, k := range []workload.Kind{workload.Control, workload.TNT, workload.Farm, workload.Lag} {
		b.Run(k.String(), func(b *testing.B) {
			var sizeMB float64
			for i := 0; i < b.N; i++ {
				w := workload.NewWorld(k, world.PaperControlSeed)
				clock := env.NewVirtualClock(time.Unix(0, 0))
				m := env.NewMachine(env.DAS5TwoCore, 1)
				s := server.New(w, server.DefaultConfig(server.Vanilla), m, clock)
				if err := workload.Install(s, k.DefaultSpec()); err != nil {
					b.Fatal(err)
				}
				w.EnsureArea(world.Pos{X: 8, Y: 0, Z: 8}, 5)
				n, err := w.SavedSize()
				if err != nil {
					b.Fatal(err)
				}
				sizeMB = float64(n) / 1e6
			}
			b.ReportMetric(sizeMB, "size_mb")
		})
	}
}

// BenchmarkTab8EntityTraffic regenerates Table 8: the entity-related share
// of network messages and bytes.
func BenchmarkTab8EntityTraffic(b *testing.B) {
	var msgPct, bytePct float64
	for i := 0; i < b.N; i++ {
		res := core.Run(benchSpec(workload.Farm, server.Vanilla, env.AWSLarge))
		if res.Net.Msgs > 0 {
			msgPct = float64(res.Net.EntityMsgs) / float64(res.Net.Msgs) * 100
			bytePct = float64(res.Net.EntityBytes) / float64(res.Net.Bytes) * 100
		}
	}
	b.ReportMetric(msgPct, "entity_msgs_pct")
	b.ReportMetric(bytePct, "entity_bytes_pct")
}

// --- Parallel orchestration benches ---

// BenchmarkRunIterations contrasts the serial iteration loop against the
// worker-pool scheduler on an 8-iteration Players grid (the MF3 shape).
// On >= 4 cores the parallel variants complete the same grid with >= 2x
// wall-clock speedup while producing bit-identical per-iteration results
// (guarded by TestParallelMatchesSerial in internal/core).
func BenchmarkRunIterations(b *testing.B) {
	spec := benchSpec(workload.Players, server.Vanilla, env.DAS5TwoCore)
	spec.Duration = 5 * time.Second
	const n = 8
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunIterations(spec, n)
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			if runtime.NumCPU() < workers {
				b.Logf("only %d CPUs; %d workers cannot show full speedup", runtime.NumCPU(), workers)
			}
			for i := 0; i < b.N; i++ {
				core.RunIterationsParallel(spec, n, workers)
			}
		})
	}
}

// BenchmarkRunCache measures the memoized grid drain: the second GetAll of
// an identical spec list is pure cache hits.
func BenchmarkRunCache(b *testing.B) {
	spec := benchSpec(workload.Control, server.Vanilla, env.DAS5TwoCore)
	spec.Duration = 2 * time.Second
	specs := make([]core.RunSpec, 16)
	for i := range specs {
		specs[i] = spec
		specs[i].Iteration = i % 4 // 4 distinct runs, 12 duplicates
	}
	cache := core.NewRunCache()
	cache.GetAll(specs, 0) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.GetAll(specs, 0)
	}
}

// --- Ablation benches ---

// BenchmarkAblationActivation contrasts the Paper entity-activation range
// against a Paper variant with it disabled, under mob-heavy load.
func BenchmarkAblationActivation(b *testing.B) {
	run := func(b *testing.B, f server.Flavor) {
		var res core.RunResult
		for i := 0; i < b.N; i++ {
			res = core.Run(benchSpec(workload.Farm, f, env.DAS5TwoCore))
		}
		reportRun(b, res)
	}
	b.Run("activation-on", func(b *testing.B) { run(b, server.Paper) })
	noAct := server.Paper
	noAct.Name = "PaperMC-noact"
	noAct.ActivationRange = 0
	b.Run("activation-off", func(b *testing.B) { run(b, noAct) })
}

// BenchmarkAblationRedstoneBatch contrasts batched and naive wire updates
// under the Lag workload.
func BenchmarkAblationRedstoneBatch(b *testing.B) {
	run := func(b *testing.B, f server.Flavor) {
		var res core.RunResult
		for i := 0; i < b.N; i++ {
			res = core.Run(benchSpec(workload.Lag, f, env.DAS5TwoCore))
		}
		reportRun(b, res)
	}
	batched := server.Vanilla
	batched.Name = "Vanilla-batched"
	batched.RedstoneBatch = true
	b.Run("batch-off", func(b *testing.B) { run(b, server.Vanilla) })
	b.Run("batch-on", func(b *testing.B) { run(b, batched) })
}

// BenchmarkAblationExplosionMerge contrasts merged and per-explosion blast
// scans under the TNT workload.
func BenchmarkAblationExplosionMerge(b *testing.B) {
	run := func(b *testing.B, f server.Flavor) {
		var res core.RunResult
		for i := 0; i < b.N; i++ {
			res = core.Run(benchSpec(workload.TNT, f, env.DAS5TwoCore))
		}
		reportRun(b, res)
	}
	merged := server.Vanilla
	merged.Name = "Vanilla-merged"
	merged.ExplosionMerge = true
	b.Run("merge-off", func(b *testing.B) { run(b, server.Vanilla) })
	b.Run("merge-on", func(b *testing.B) { run(b, merged) })
}

// BenchmarkAblationVirtualVsWall contrasts the virtual-time engine against
// wall-clock ticking for the raw engine loop (no environment model). The
// virtual path is what makes hour-scale experiment grids tractable.
func BenchmarkAblationVirtualVsWall(b *testing.B) {
	b.Run("virtual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
			clock := env.NewVirtualClock(time.Unix(0, 0))
			m := env.NewMachine(env.DAS5TwoCore, 1)
			s := server.New(w, server.DefaultConfig(server.Vanilla), m, clock)
			s.Connect("bench")
			for t := 0; t < 40; t++ {
				s.Tick()
			}
		}
	})
	b.Run("wall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
			s := server.New(w, server.DefaultConfig(server.Vanilla), nil, fastClock{})
			s.Connect("bench")
			for t := 0; t < 40; t++ {
				s.Tick()
			}
		}
	})
}

// fastClock measures real time but skips the idle wait, so the wall-mode
// bench measures compute cost rather than sleeping 50 ms per tick.
type fastClock struct{}

func (fastClock) Now() time.Time        { return time.Now() }
func (fastClock) Sleep(d time.Duration) {}

// --- Micro-benchmarks of the hot engine paths ---

// BenchmarkEngineTickControl measures one steady-state Control tick.
func BenchmarkEngineTickControl(b *testing.B) {
	w := world.New(world.NewNoiseGenerator(world.PaperControlSeed))
	clock := env.NewVirtualClock(time.Unix(0, 0))
	m := env.NewMachine(env.DAS5TwoCore, 1)
	s := server.New(w, server.DefaultConfig(server.Vanilla), m, clock)
	s.Connect("bench")
	for t := 0; t < 100; t++ {
		s.Tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// BenchmarkWorldSetBlock measures raw terrain mutation with listeners.
func BenchmarkWorldSetBlock(b *testing.B) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := world.Pos{X: i % 32, Y: 20 + i%30, Z: (i / 32) % 32}
		w.SetBlock(p, world.B(world.Stone))
	}
}

// BenchmarkISRMetric measures the metric on a realistic 1200-tick trace.
func BenchmarkISRMetric(b *testing.B) {
	trace := metrics.SyntheticOutlierTrace(1200, 25, 10, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ISR(trace, 50, 1632)
	}
}
