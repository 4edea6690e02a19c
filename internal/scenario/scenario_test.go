package scenario

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mlg/world"
)

var (
	seedFlag = flag.Uint64("scenario.seed", 0,
		"replay one generated scenario from this seed instead of the random sweep")
	roundsFlag = flag.Int("scenario.rounds", 50,
		"number of random scenarios TestScenarioRandom runs")
)

// TestScenarioLibrary runs every curated scenario at SimWorkers 1/2/4
// (1/2 under -short).
func TestScenarioLibrary(t *testing.T) {
	var opts Options
	if testing.Short() {
		opts.Workers = []int{1, 2}
	}
	for _, sc := range Library() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			if res := Run(sc, opts); res.Failed {
				t.Fatal(res.String())
			}
		})
	}
}

// sweepBase is the first seed of the random sweep (fixed, so CI runs are
// reproducible).
const sweepBase = uint64(0x5eed0000)

// TestScenarioRandom is the model-checking sweep: -scenario.rounds generated
// scenarios (fixed base seed, so CI runs are reproducible), each executed at
// SimWorkers 1/2/4 with shrink-on-failure. Replay a failure with
// -scenario.seed=N.
func TestScenarioRandom(t *testing.T) {
	if *seedFlag != 0 {
		res := RunRandom(*seedFlag, Options{})
		t.Log(res.String())
		if res.Failed {
			t.Fail()
		}
		return
	}
	rounds := *roundsFlag
	if testing.Short() && rounds > 8 {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		seed := sweepBase + uint64(i)
		res := RunRandom(seed, Options{})
		if res.Failed {
			t.Fatalf("random scenario failed (seed %d):\n%s", seed, res.String())
		}
	}
}

// TestScenarioChurnDuringExclusive pins the join/disconnect-during-
// parallel-drain coverage at the exact worker pair the equivalence matrix
// uses (1 vs 4), on top of the library run's default 1/2/4.
func TestScenarioChurnDuringExclusive(t *testing.T) {
	sc := ChurnDuringParallelDrain()
	if res := Run(sc, Options{Workers: []int{1, 4}}); res.Failed {
		t.Fatal(res.String())
	}
}

// TestScenarioMetaFaultInjection proves the harness actually catches
// divergence: a fault hook corrupts one twin's terrain at a known step, the
// run must fail at that step with a chunk-content diff, and shrinking must
// reduce the script to the minimal prefix containing the fault.
func TestScenarioMetaFaultInjection(t *testing.T) {
	const faultStep = 2
	sc := JoinLeaveWaves()
	opts := Options{
		Fault: func(step int, tw *Twin) {
			if step != faultStep || tw.Index != 1 {
				return
			}
			// Flip one surface block on the second twin only: the next
			// state comparison must see the chunk contents diverge.
			w := tw.S.World()
			p := world.Pos{X: 8, Y: w.HighestSolidY(8, 8), Z: 8}
			b := world.B(world.Gravel)
			if w.Block(p) == b {
				b = world.B(world.Stone)
			}
			w.SetBlock(p, b)
		},
	}
	res := Run(sc, opts)
	if !res.Failed {
		t.Fatal("injected terrain fault was not detected")
	}
	if res.Step != faultStep {
		t.Fatalf("fault detected at step %d (%s), want step %d\n%s",
			res.Step, res.StepName, faultStep, res.String())
	}

	shrunk, sres := ShrinkPrefix(sc, res, opts)
	if !sres.Failed {
		t.Fatal("shrink lost the failure")
	}
	if len(shrunk.Steps) != faultStep+1 {
		t.Fatalf("shrunk to %d steps, want %d (the minimal prefix containing the fault)",
			len(shrunk.Steps), faultStep+1)
	}

	// The shrunk scenario must replay deterministically.
	if re := Run(shrunk, opts); !re.Failed || re.Step != faultStep {
		t.Fatalf("shrunk scenario did not reproduce: %s", re.String())
	}
}

// TestScenarioMetaBrokenInvariant inverts an invariant bound — a tick
// duration ceiling no real tick can meet — and checks the harness reports
// it rather than passing vacuously.
func TestScenarioMetaBrokenInvariant(t *testing.T) {
	sc := JoinLeaveWaves()
	sc.MaxTickDur = 1 // a nanosecond: every tick must violate it
	res := Run(sc, Options{Workers: []int{1}})
	if !res.Failed {
		t.Fatal("impossible tick-duration bound not reported")
	}
	if res.Step != -1 {
		t.Fatalf("violation surfaced at step %d, want the first warmup tick", res.Step)
	}
}

// TestCheckRevisionsStaleCache: the revision check compares each chunk's
// memoized Sum against a fresh encode, so a state whose Sum disagrees with
// the chunk's blocks — what a write that skipped the revision bump leaves
// behind — is reported as a stale cache, and a revision that moves
// backwards is reported as such.
func TestCheckRevisionsStaleCache(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	w.EnsureArea(world.Pos{X: 8, Z: 8}, 1)
	tw := &Twin{prevRevs: map[world.ChunkPos]uint64{}}
	states := w.ChunkStates()
	if d := tw.checkRevisions(w, states); d != "" {
		t.Fatalf("consistent state reported: %s", d)
	}

	stale := append([]world.ChunkState(nil), states...)
	stale[1].Sum ^= 1
	want := fmt.Sprintf("chunk %v cache stale at revision %d", stale[1].Pos, stale[1].Revision)
	if d := tw.checkRevisions(w, stale); d != want {
		t.Fatalf("stale sum reported as %q, want %q", d, want)
	}

	w.SetBlock(world.Pos{X: 8, Y: 30, Z: 8}, world.B(world.Stone))
	tw.checkRevisions(w, w.ChunkStates())
	back := w.ChunkStates()
	for i := range back {
		back[i].Revision = 0
	}
	if d := tw.checkRevisions(w, back); !strings.Contains(d, "revision went backwards") {
		t.Fatalf("decreasing revision reported as %q", d)
	}
}

// TestGenerateReconfigure checks the tier-1 sweep's seeds still script
// worker-count changes, and that every script with one snapshots each tick
// so the restart has a snapshot of the tick it happens on.
func TestGenerateReconfigure(t *testing.T) {
	const rounds = 50
	found := 0
	for i := 0; i < rounds; i++ {
		sc := Generate(sweepBase + uint64(i))
		for _, st := range sc.Steps {
			if strings.HasPrefix(st.Name, "reconfigure(") {
				found++
				if sc.SnapshotEvery != 1 {
					t.Fatalf("%s: %s with SnapshotEvery=%d, want 1", sc.Name, st.Name, sc.SnapshotEvery)
				}
			}
		}
	}
	if found == 0 {
		t.Fatalf("no reconfigure step in %d generated scenarios", rounds)
	}
}

// TestGenerateDeterministic guards the replay contract: the same seed must
// yield an identical script.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(12345), Generate(12345)
	if a.Name != b.Name || a.Workload != b.Workload || a.Scale != b.Scale ||
		a.Flavor != b.Flavor || a.Seed != b.Seed || a.Warmup != b.Warmup ||
		len(a.Steps) != len(b.Steps) {
		t.Fatalf("scenario headers diverged: %+v vs %+v", a, b)
	}
	for i := range a.Steps {
		if a.Steps[i].Name != b.Steps[i].Name || a.Steps[i].Ticks != b.Steps[i].Ticks {
			t.Fatalf("step %d diverged: %s/%d vs %s/%d", i,
				a.Steps[i].Name, a.Steps[i].Ticks, b.Steps[i].Name, b.Steps[i].Ticks)
		}
	}
}
