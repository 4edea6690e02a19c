// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) using the Meterstick reproduction: it runs the benchmark
// grid on the modelled deployment environments, writes one CSV per artifact
// under -out, and prints ASCII renditions of each plot.
//
// Usage:
//
//	experiments [-run fig8] [-out results] [-duration 60s] [-iterations 3]
//	            [-fig10-iters 50] [-parallel N] [-quick]
//
// -quick reduces durations and iteration counts for a fast smoke pass.
// -parallel sets the worker count for the benchmark-grid scheduler
// (default GOMAXPROCS; 1 executes the grid serially). Results are
// bit-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
)

func main() {
	var (
		runPat     = flag.String("run", "", "only run experiments whose id contains this substring")
		outDir     = flag.String("out", "results", "output directory for CSV files")
		duration   = flag.Duration("duration", 60*time.Second, "virtual duration of each run (paper: 60s)")
		iterations = flag.Int("iterations", 3, "iterations pooled for response-time experiments")
		fig10Iters = flag.Int("fig10-iters", 50, "iterations for the MF3 distribution experiment (paper: 50)")
		parallel   = flag.Int("parallel", 0, "grid scheduler workers (0 = GOMAXPROCS, 1 = serial)")
		quick      = flag.Bool("quick", false, "fast smoke mode: short runs, few iterations")
	)
	flag.Parse()

	c := &ctx{
		out:        *outDir,
		duration:   *duration,
		iterations: *iterations,
		fig10Iters: *fig10Iters,
		workers:    core.Workers(*parallel),
		cache:      core.NewRunCache(),
	}
	if *quick {
		c.duration = 20 * time.Second
		c.iterations = 1
		c.fig10Iters = 6
	}

	exps := experiments()

	// Gather the full benchmark grid of the selected experiments and drain
	// it through one parallel scheduler; the experiment bodies then only
	// format results out of the warm cache.
	var grid []core.RunSpec
	for _, e := range exps {
		if *runPat != "" && !strings.Contains(e.id, *runPat) {
			continue
		}
		if e.grid != nil {
			grid = append(grid, e.grid(c)...)
		}
	}
	if len(grid) > 0 {
		start := time.Now()
		fmt.Printf("prewarming %d grid runs on %d workers...\n", len(grid), c.workers)
		c.cache.GetAll(grid, c.workers)
		_, misses := c.cache.Stats()
		fmt.Printf("grid done: %d distinct runs in %v\n\n", misses, time.Since(start).Round(time.Millisecond))
	}

	ran := 0
	var summary strings.Builder
	for _, e := range exps {
		if *runPat != "" && !strings.Contains(e.id, *runPat) {
			continue
		}
		ran++
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		text, err := e.run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(text)
		fmt.Printf("-- %s done in %v --\n\n", e.id, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(&summary, "== %s: %s ==\n%s\n", e.id, e.title, text)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; available:\n", *runPat)
		for _, e := range exps {
			fmt.Fprintf(os.Stderr, "  %-6s %s\n", e.id, e.title)
		}
		os.Exit(2)
	}
	if err := os.MkdirAll(c.out, 0o755); err == nil {
		os.WriteFile(filepath.Join(c.out, "summary.txt"), []byte(summary.String()), 0o644)
	}
}

// experiment is one reproducible paper artifact. grid (optional) declares
// the benchmark runs the artifact consumes, so main can schedule the whole
// selection in parallel before the formatting bodies run.
type experiment struct {
	id    string
	title string
	run   func(*ctx) (string, error)
	grid  func(*ctx) []core.RunSpec
}

func experiments() []experiment {
	return []experiment{
		{"fig1", "Minecraft response time in the AWS cloud", fig1, fig1Grid},
		{"fig6", "Numerical analysis of the Instability Ratio", fig6, nil},
		{"fig7", "Game response time under environment-based workloads (MF1)", fig7, fig7Grid},
		{"fig8", "ISR per MLG, workload and environment (MF2)", fig8, fig8Grid},
		{"fig9", "Tick time over time on AWS (MF2)", fig9, fig9Grid},
		{"fig10", "Tick time and ISR across 50 iterations of Players (MF3)", fig10, fig10Grid},
		{"fig11", "Tick-time distribution by operation (MF4)", fig11, fig11Grid},
		{"fig12", "Tick time and ISR vs AWS node size under TNT (MF5)", fig12, fig12Grid},
		{"tab2", "Workload worlds and their sizes", tab2, nil},
		{"tab3", "Farm-world simulated constructs", tab3, nil},
		{"tab6", "ISR vs existing variability metrics", tab6, nil},
		{"tab7", "Hardware recommendations of MLG hosting companies", tab7, nil},
		{"tab8", "Entity-related share of network traffic (MF4)", tab8, tab8Grid},
	}
}
