package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/mlg/world"
)

// TestSmoke runs every workload at about 1/50 size — untraced, then traced
// twice: every declared metric is reported with its unit, the output checks
// pass, nothing fails, all three runs end in the same state, and what the
// simulation counts repeats exactly from one traced run to the next.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads end to end")
	}
	repeatable := []string{
		"sim.block_updates_per_tick", "sim.explosion_blocks_per_tick",
		"entity.steps_per_tick", "entity.inactive_skips_per_tick", "entity.path_nodes_per_tick",
		"entity.live_peak", "world.chunks_loaded", "server.inbox_pkts_per_tick",
	}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir() // trace files and snapshot stores
			var digests []uint64
			var traced []result
			for _, trace := range []bool{false, true, true} {
				var out bytes.Buffer
				res, digest, err := runWorkload(options{wl: wl, sz: wl.smoke, seed: 7, trace: trace, out: &out, tmp: tmp})
				if err != nil {
					t.Fatalf("trace=%t: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
					traced = append(traced, res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%t: %d metrics reported, %d declared", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%t: metric %s = %+v (reported %t), want a number in %s", trace, d.name, m, ok, d.unit)
					}
					if !strings.Contains(out.String(), d.name) {
						t.Errorf("trace=%t: report does not print %s", trace, d.name)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
					}
				}
				digests = append(digests, digest)
			}
			if digests[1] != digests[0] || digests[2] != digests[0] {
				t.Fatalf("runs ended in different states: %#x", digests)
			}
			for _, name := range repeatable {
				if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v; a count made by the simulation must repeat", name, a, b)
				}
			}
			if v := traced[0].Metrics["sim.explosion_blocks_per_tick"].Value; v == 0 && (wl.name == "tnt" || wl.name == "cluster") {
				t.Error("no block exploded: the window ended before the cascade began")
			}
			if v := traced[0].Metrics["trace.rig_diverged"].Value; v != 0 {
				t.Errorf("twin rig diverged from Server.Tick (trace.rig_diverged = %v): the harness no longer mirrors its phase order", v)
			}
		})
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and spec.go saying the same thing.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q, spec.go has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higherBetter {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s %d: %s [%s] %s, spec.go has %s [%s] %s", kind, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99, 10); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if v, err := percentile(xs, 0.50, 10); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	if _, err := percentile(xs[:999], 0.99, 10); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:300], 0.99, 10); err == nil {
		t.Error("p99 of 300 samples must be refused")
	}
	if v, err := percentile(xs[:300], 0.90, 10); err != nil || v != 270 {
		t.Errorf("p90 of 1..300 = %v, %v; want 270", v, err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQuietQuartile: a run's timing is the quartile on the quiet side of its
// episodes, so episodes a busy host slowed do not move it until they are about
// three in four.
func TestQuietQuartile(t *testing.T) {
	quiet := []float64{1.00, 1.01, 1.02, 1.03, 1.00, 1.01, 1.02, 1.03}
	for disturbed := 0; disturbed <= 5; disturbed++ {
		ms := append([]float64(nil), quiet...)
		rate := make([]float64, len(ms))
		for i := range ms {
			if i < disturbed {
				ms[i] *= 1.5
			}
			rate[i] = 1000 / ms[i]
		}
		if v := quietQuartile(ms, false); v < 1.00 || v > 1.03 {
			t.Errorf("%d of 8 episodes disturbed: cost %v, want what the quiet ones took", disturbed, v)
		}
		if v := quietQuartile(rate, true); v < 1000/1.03 || v > 1000 {
			t.Errorf("%d of 8 episodes disturbed: rate %v, want what the quiet ones made", disturbed, v)
		}
	}
	if v := quietQuartile([]float64{7}, false); v != 7 {
		t.Errorf("one episode: %v, want its own value", v)
	}
	if err := enough(4*300, 0.99, 10); err != nil {
		t.Errorf("p99 over four episodes of 300 ticks has 12 samples beyond it: %v", err)
	}
	if err := enough(3*300, 0.99, 10); err == nil {
		t.Error("p99 over three episodes of 300 ticks has 9 samples beyond it and must be refused")
	}
}

func TestStateDigest(t *testing.T) {
	ticks := make([]tickCounters, 3)
	ticks[1].Sim.BlockUpdates = 5
	ticks[2].Ent.Moved = 2
	chunks := []world.ChunkState{{Pos: world.ChunkPos{X: 1, Z: 2}, Revision: 9, NonAir: 4, Sum: 0xabc}}
	of := func(ts []tickCounters, sum uint64, cs []world.ChunkState) uint64 {
		d := newStateDigest()
		d.ticks(ts)
		d.state(sum, cs)
		return d.sum()
	}
	base := of(ticks, 77, chunks)
	if of(ticks, 77, chunks) != base {
		t.Error("equal inputs gave different digests")
	}
	revised := []world.ChunkState{chunks[0]}
	revised[0].Revision = 10
	if of(ticks, 77, revised) != base {
		t.Error("a chunk revision is a cache key, not state; it must not change the digest")
	}
	moved := append([]tickCounters(nil), ticks...)
	moved[2].Ent.Moved = 3
	changed := []world.ChunkState{chunks[0]}
	changed[0].Sum = 0xabd
	swapped := []tickCounters{ticks[1], ticks[0], ticks[2]}
	for name, d := range map[string]uint64{
		"one entity counter":  of(moved, 77, chunks),
		"entity state sum":    of(ticks, 78, chunks),
		"chunk content":       of(ticks, 77, changed),
		"order of the ticks":  of(swapped, 77, chunks),
		"a tick less":         of(ticks[:2], 77, chunks),
		"a chunk less":        of(ticks, 77, nil),
		"a different nonair":  of(ticks, 77, []world.ChunkState{{Pos: chunks[0].Pos, NonAir: 5, Sum: 0xabc}}),
		"a different chunk x": of(ticks, 77, []world.ChunkState{{Pos: world.ChunkPos{X: 2, Z: 2}, NonAir: 4, Sum: 0xabc}}),
	} {
		if d == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside", []span{{Start: 10, End: 90}}, 100},
	} {
		if got := selfNS(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	tr := newTracer()
	root := tr.begin("tick", 0, 1)
	a := tr.begin("server.Tick", root, 1)
	tr.end(a)
	tr.end(root)
	if self, whole := tr.rootSelfNS(), tr.spans[0].dur(); self < 0 || self > whole {
		t.Errorf("root self time %d outside [0, %d]", self, whole)
	}
	if tr.spans[1].Parent != root || tr.spans[1].Tick != 1 {
		t.Errorf("child span %+v does not carry its parent and tick", tr.spans[1])
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, tps []float64, failed int64) string {
		var s setFile
		for _, wl := range workloads {
			for i, v := range tps {
				s.Runs = append(s.Runs, setRun{Workload: wl.name, Seed: int64(i), Result: result{Correct: true, Attempted: 10, Failed: failed,
					Metrics: map[string]metricValue{"ticks_per_s": {v, "1/s"}, "tick_ms_p50": {1000 / v, "ms"}}}})
			}
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "ticks_per_s", "better": "higher", "bound": 0.10},
		{"name": "tick_ms_p50", "better": "lower", "bound": 0.10}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	steady := write("a.json", []float64{100, 101, 99, 100, 102}, 0)
	for _, tc := range []struct {
		name      string
		b         string
		regressed bool
		verdict   string
	}{
		{"same", write("same.json", []float64{99, 100, 101, 100, 98}, 0), false, "ok"},
		{"faster", write("fast.json", []float64{150, 151, 149, 150, 152}, 0), false, "ok"},
		{"slower", write("slow.json", []float64{80, 81, 79, 80, 82}, 0), true, "regressed"},
		{"noisy", write("noisy.json", []float64{60, 100, 140, 80, 120}, 0), false, "unresolved"},
		{"failing", write("fail.json", []float64{100, 101, 99, 100, 102}, 1), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := compareSets(&out, bf, steady, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%t, want %t and a %q verdict in\n%s", tc.name, regressed, tc.regressed, tc.verdict, out.String())
		}
	}
}

// TestTraceFlagForms: the driver writes "--trace 0", a person "-trace".
func TestTraceFlagForms(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "3", "--seconds", "1", "--trace", "0"},
		{"-workload", "nope", "-seconds", "1", "-trace", "1"},
		{"-workload", "nope", "-seconds", "1", "-trace"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), `unknown workload "nope"`) {
			t.Errorf("%v: exit %d, stderr %q; the flags must parse as far as the workload name", args, code, errOut.String())
		}
	}
}
