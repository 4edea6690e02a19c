package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

func spec(k workload.Kind, f server.Flavor, p env.Profile, d time.Duration) RunSpec {
	return RunSpec{
		Flavor:   f,
		Workload: k.DefaultSpec(),
		Env:      p,
		Duration: d,
		Seed:     7,
	}
}

func TestConfigDefaultsValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	specs, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 { // three servers × one iteration
		t.Fatalf("specs = %d, want 3", len(specs))
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Servers = nil },
		func(c *Config) { c.Servers = []string{"Bukkit"} },
		func(c *Config) { c.World = "Chaos" },
		func(c *Config) { c.Environment = "Mars" },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Iterations = 0 },
		func(c *Config) { c.NumberOfBots = -1 },
		func(c *Config) { c.Scale = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunControlOnDAS5(t *testing.T) {
	r := Run(spec(workload.Control, server.Vanilla, env.DAS5TwoCore, 30*time.Second))
	if r.Crashed {
		t.Fatalf("Control crashed: %s", r.CrashReason)
	}
	if len(r.TickMS) < 500 {
		t.Fatalf("too few ticks: %d", len(r.TickMS))
	}
	if r.TickSummary.Mean >= 50 {
		t.Fatalf("Control mean tick %.1f ms on DAS-5, want < 50", r.TickSummary.Mean)
	}
	if r.ISR > 0.05 {
		t.Fatalf("Control ISR %.3f on DAS-5, want near 0", r.ISR)
	}
	if len(r.ResponseMS) < 20 {
		t.Fatalf("response probes = %d, want ~30", len(r.ResponseMS))
	}
	if r.ResponseSummary.Median <= 0 {
		t.Fatal("non-positive median response time")
	}
}

func TestRunDeterministic(t *testing.T) {
	s := spec(workload.Control, server.Forge, env.AWSLarge, 10*time.Second)
	a, b := Run(s), Run(s)
	if !reflect.DeepEqual(a.TickMS, b.TickMS) {
		t.Fatal("tick traces differ between identical runs")
	}
	if !reflect.DeepEqual(a.ResponseMS, b.ResponseMS) {
		t.Fatal("response times differ between identical runs")
	}
	if a.ISR != b.ISR {
		t.Fatal("ISR differs")
	}
}

func TestIterationsVaryOnCloud(t *testing.T) {
	s := spec(workload.Control, server.Vanilla, env.AWSLarge, 10*time.Second)
	rs := RunIterations(s, 6)
	if len(rs) != 6 {
		t.Fatal("iteration count wrong")
	}
	means := MeanTicks(rs)
	allSame := true
	for _, m := range means[1:] {
		if m != means[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("cloud iterations produced identical means; placement variance missing")
	}
}

func TestEnvironmentWorkloadsRaiseISR(t *testing.T) {
	// MF2 precondition at short duration: Farm and TNT ISR above Control.
	d := 45 * time.Second
	control := Run(spec(workload.Control, server.Vanilla, env.AWSLarge, d))
	farm := Run(spec(workload.Farm, server.Vanilla, env.AWSLarge, d))
	tnt := Run(spec(workload.TNT, server.Vanilla, env.AWSLarge, d))
	if farm.ISR <= control.ISR {
		t.Errorf("Farm ISR %.4f not above Control %.4f", farm.ISR, control.ISR)
	}
	if tnt.ISR <= control.ISR {
		t.Errorf("TNT ISR %.4f not above Control %.4f", tnt.ISR, control.ISR)
	}
}

func TestLagCrashesOnAWSButNotDAS5(t *testing.T) {
	aws := Run(spec(workload.Lag, server.Vanilla, env.AWSLarge, 60*time.Second))
	if !aws.Crashed {
		t.Fatalf("Lag on AWS t3.large did not crash (ISR %.3f, mean %.0f ms, throttled=%v)",
			aws.ISR, aws.TickSummary.Mean, aws.Throttled)
	}
	das5 := Run(spec(workload.Lag, server.Vanilla, env.DAS5TwoCore, 60*time.Second))
	if das5.Crashed {
		t.Fatalf("Lag on DAS-5 crashed: %s", das5.CrashReason)
	}
	if das5.ISR < 0.5 {
		t.Fatalf("Lag ISR on DAS-5 = %.3f, want the paper's 0.85-1.0 band (>= 0.5)", das5.ISR)
	}
}

func TestPaperAsyncChatFlattensResponseTime(t *testing.T) {
	d := 30 * time.Second
	van := Run(spec(workload.Farm, server.Vanilla, env.AWSLarge, d))
	pap := Run(spec(workload.Farm, server.Paper, env.AWSLarge, d))
	if pap.ResponseSummary.P95 >= van.ResponseSummary.Median {
		t.Fatalf("Paper async chat p95 (%.1f ms) should undercut Vanilla median (%.1f ms)",
			pap.ResponseSummary.P95, van.ResponseSummary.Median)
	}
}

func TestJoinSpikesMakeMaxResponseFarAboveMean(t *testing.T) {
	// MF1 shape: max response ≫ mean, driven by the post-connect burst.
	r := Run(spec(workload.Control, server.Vanilla, env.AWSLarge, 60*time.Second))
	if r.ResponseSummary.Max < 3*r.ResponseSummary.Mean {
		t.Fatalf("max response %.1f ms not ≫ mean %.1f ms",
			r.ResponseSummary.Max, r.ResponseSummary.Mean)
	}
}

func TestSeriesAndNetPopulated(t *testing.T) {
	r := Run(spec(workload.Farm, server.Vanilla, env.DAS5TwoCore, 15*time.Second))
	if len(r.Series) != len(r.TickMS) {
		t.Fatal("series and trace lengths differ")
	}
	for i := 1; i < len(r.Series); i++ {
		if r.Series[i].AtMS <= r.Series[i-1].AtMS {
			t.Fatal("series timestamps not increasing")
		}
	}
	if r.Net.Msgs == 0 || r.Net.Bytes == 0 {
		t.Fatal("no network totals")
	}
	if r.Net.EntityMsgs == 0 {
		t.Fatal("no entity messages in Farm run")
	}
	if r.Fig11.EntityUS <= 0 {
		t.Fatal("no entity time in Fig11 split")
	}
	if r.ItemsCollected == 0 {
		t.Fatal("farm collected nothing")
	}
}

func TestPlayersWorkloadTwentyFiveBots(t *testing.T) {
	r := Run(spec(workload.Players, server.Vanilla, env.DAS5TwoCore, 15*time.Second))
	if r.Crashed {
		t.Fatal("Players workload crashed")
	}
	// 25 bots probing every second for 15 s.
	if len(r.ResponseMS) < 25*10 {
		t.Fatalf("responses = %d, want >= 250", len(r.ResponseMS))
	}
}

// TestRunInstallFailureKeepsLabels: a run whose workload cannot be installed
// crashes with the same identity labels as any other result.
func TestRunInstallFailureKeepsLabels(t *testing.T) {
	s := spec(workload.Control, server.Vanilla, env.DAS5TwoCore, time.Second)
	s.Workload.Kind = workload.Kind(99)
	s.Iteration = 3
	res := Run(s)
	if !res.Crashed || res.CrashReason == "" {
		t.Fatalf("unknown workload kind did not crash the run: %+v", res)
	}
	type labels struct {
		Flavor, Workload, Environment string
		Iteration                     int
	}
	got := labels{res.Flavor, res.Workload, res.Environment, res.Iteration}
	want := labels{
		Flavor:      server.Vanilla.Name,
		Workload:    workload.Kind(99).String(),
		Environment: env.DAS5TwoCore.Name,
		Iteration:   3,
	}
	if got != want {
		t.Fatalf("crashed result labels = %+v, want %+v", got, want)
	}
}
