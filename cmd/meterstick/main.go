// Command meterstick runs the Meterstick benchmark: it evaluates the
// performance variability of one or more MLG flavors under a chosen
// workload and deployment environment, over one or more iterations, and
// reports the Table 5 metrics including the Instability Ratio.
//
// Usage:
//
//	meterstick [-servers Minecraft,Forge,PaperMC] [-world Control]
//	           [-env DAS5-2core] [-bots 25] [-behavior bounded-random]
//	           [-duration 60s] [-iterations 1] [-scale 1] [-out results]
//	           [-parallel N]
//
// The run executes on the virtual-time engine, so a 60-second iteration
// completes in a fraction of wall time and is fully reproducible.
// -parallel drains the (server, iteration) grid across N workers
// (default GOMAXPROCS; 1 executes serially); every run is hermetic, so
// results are identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/report"
)

func main() {
	cfg := core.DefaultConfig()
	var servers, behavior string
	flag.StringVar(&servers, "servers", "Minecraft,Forge,PaperMC", "comma-separated MLG flavors to benchmark")
	flag.StringVar(&cfg.World, "world", cfg.World, "workload world: Control, Farm, TNT, Lag, Players")
	flag.StringVar(&cfg.Environment, "env", cfg.Environment, "deployment environment profile (see -list-envs)")
	flag.IntVar(&cfg.NumberOfBots, "bots", cfg.NumberOfBots, "number of emulated players")
	flag.StringVar(&behavior, "behavior", "bounded-random", "player behaviour: idle or bounded-random")
	flag.DurationVar(&cfg.Duration, "duration", cfg.Duration, "iteration length")
	flag.IntVar(&cfg.Iterations, "iterations", cfg.Iterations, "iteration count")
	flag.IntVar(&cfg.Scale, "scale", cfg.Scale, "workload intensity multiplier")
	flag.StringVar(&cfg.OutputDir, "out", cfg.OutputDir, "output directory for per-run CSVs")
	parallel := flag.Int("parallel", 0, "run scheduler workers (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&cfg.SimWorkers, "simworkers", cfg.SimWorkers,
		"terrain-drain workers per server (0 = GOMAXPROCS, 1 = serial drain; output is identical at any value)")
	listEnvs := flag.Bool("list-envs", false, "list environment profiles and exit")
	flag.Parse()

	if *listEnvs {
		for name, p := range env.StandardProfiles() {
			fmt.Printf("%-16s %d vCPU, provider %s\n", name, p.VCPUs, p.Provider)
		}
		return
	}

	cfg.Servers = strings.Split(servers, ",")
	if behavior == "idle" {
		cfg.Behavior = "idle"
	} else {
		cfg.Behavior = "bounded random"
	}

	specs, err := cfg.Specs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var rows [][]string
	for _, res := range core.RunParallel(specs, *parallel) {
		printRun(res, cfg.Duration)
		rows = append(rows, []string{
			res.Flavor, res.Workload, res.Environment, fmt.Sprint(res.Iteration),
			report.F(res.ISR), report.F(res.TickSummary.Mean), report.F(res.TickSummary.Median),
			report.F(res.TickSummary.P95), report.F(res.TickSummary.Max),
			report.F(res.ResponseSummary.Median), report.F(res.ResponseSummary.P95),
			fmt.Sprint(res.Overloaded), fmt.Sprint(res.Crashed),
		})
	}
	path := filepath.Join(cfg.OutputDir, "meterstick.csv")
	if err := report.WriteCSV(path,
		[]string{"mlg", "workload", "environment", "iteration", "isr",
			"tick_mean_ms", "tick_median_ms", "tick_p95_ms", "tick_max_ms",
			"response_median_ms", "response_p95_ms", "overloaded_ticks", "crashed"},
		rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("results written to %s\n", path)
}

func printRun(res core.RunResult, d time.Duration) {
	fmt.Printf("== %s / %s / %s (iteration %d) ==\n",
		res.Flavor, res.Workload, res.Environment, res.Iteration)
	if res.Crashed {
		fmt.Printf("  CRASHED: %s\n", res.CrashReason)
	}
	t := res.TickSummary
	fmt.Printf("  ISR %.4f | tick ms: mean %s median %s p95 %s max %s | overloaded %d/%d\n",
		res.ISR, report.F(t.Mean), report.F(t.Median), report.F(t.P95), report.F(t.Max),
		res.Overloaded, metrics.ExpectedTicks(d, 50*time.Millisecond))
	r := res.ResponseSummary
	if r.N > 0 {
		fmt.Printf("  response ms: median %s p95 %s max %s (%d probes)\n",
			report.F(r.Median), report.F(r.P95), report.F(r.Max), r.N)
	}
	fmt.Printf("  trace: %s\n", report.Sparkline(res.TickMS, 64))
}
