// Command benchmark is the repository's one wall-clock benchmark: four
// workloads over the default server configuration, each a closed loop with
// one driver goroutine, timed from outside with time.Now() around public
// calls. See README.md beside this file.
//
//	go run ./benchmark [-workload w] [-seed n] [-seconds s] [-trace] [-runs n] [-out set.json]
//	go run ./benchmark -compare a.json b.json
//
// With -workload it is one run in this process and its last output line is
// the JSON result the driver reads (BENCHMARK.json's contract). Without, it
// runs every workload in a child process of its own, so peak memory and GC
// state are per workload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it: how long
// a run measures by default, and each end-to-end metric's regression bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bf, fmt.Errorf("%w (run from the repository root)", err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// runEnv is recorded with every run: numbers from different hosts or
// toolchains do not compare.
type runEnv struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// commit is set by run.sh at link time; `go run` and `go build` in a git
// checkout stamp the revision into the build info instead.
var commit string

func currentEnv() runEnv {
	e := runEnv{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if commit != "" {
		e.Commit = commit
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// setFile is what -out writes and -compare reads: every run of a set.
type setFile struct {
	Env  runEnv   `json:"env"`
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest"`
	Result   result `json:"result"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	// The driver passes "--trace 0|1"; by hand it is the boolean "-trace".
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args = append(append(append([]string(nil), args[:i]...), "-trace="+args[i+1]), args[i+2:]...)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process: tnt, lag, players or cluster (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seeds the clients: bot walks and probe phases; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 0, "seconds to measure per run (default: run_seconds in BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, a span file, and the Workers=1 / restore / single-server checks")
	runs := fs.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", "", "all-workloads mode: write the set of results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files, got %d", fs.NArg()))
		}
		bf, err := loadBenchmarkFile()
		if err != nil {
			return fail(err)
		}
		regressed, err := compareSets(stdout, bf, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		bf, err := loadBenchmarkFile()
		if err != nil {
			return fail(err)
		}
		*seconds = float64(bf.RunSeconds)
	}
	env := currentEnv()
	if *workload != "" {
		wl := workloadByName(*workload)
		if wl == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		fmt.Fprintf(stdout, "%-8s seed=%d trace=%t seconds=%g nproc=%d gomaxprocs=%d go=%s commit=%s\n",
			wl.name, *seed, *trace, *seconds, env.NProc, env.GoMaxProcs, env.GoVersion, env.Commit)
		res, _, err := runWorkload(options{wl: wl, sz: wl.full, seed: *seed, seconds: *seconds, trace: *trace, out: stdout, tmp: os.TempDir()})
		if err != nil {
			// A failed output check: say so in the result's own terms too.
			fmt.Fprintln(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}

	// Every workload, each run in a child process.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	set := setFile{Env: env}
	modes := []bool{false}
	if *trace {
		modes = append(modes, true)
	}
	for _, wl := range workloads {
		for i := 0; i < *runs; i++ {
			for _, traced := range modes {
				run, err := childRun(self, wl.name, *seed+int64(i), *seconds, traced, stdout, stderr)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", wl.name, err))
				}
				set.Runs = append(set.Runs, run)
			}
		}
	}
	if err := checkDigests(set.Runs); err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	return 0
}

// childRun runs one workload in a child process, passes its report through,
// and parses its digest and result line.
func childRun(self, workload string, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) (setRun, error) {
	run := setRun{Workload: workload, Seed: seed, Trace: traced}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace="+strconv.FormatBool(traced))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return run, err
	}
	last := ""
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		if i := strings.Index(last, "digest="); i >= 0 {
			run.Digest = strings.Fields(last[i+len("digest="):])[0]
		}
	}
	if err := json.Unmarshal([]byte(last), &run.Result); err != nil {
		return run, fmt.Errorf("result line: %w", err)
	}
	return run, nil
}

// checkDigests is the cross-run half of the state check: runs of one
// workload with one seed, traced or not, must end in the same state.
func checkDigests(runs []setRun) error {
	type key struct {
		workload string
		seed     int64
	}
	seen := map[key]string{}
	for _, r := range runs {
		k := key{r.Workload, r.Seed}
		if d, ok := seen[k]; ok && d != r.Digest {
			return fmt.Errorf("%s seed %d: runs ended in states %s and %s", r.Workload, r.Seed, d, r.Digest)
		}
		seen[k] = r.Digest
	}
	return nil
}
