package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// Meta-tests for the crash/restart machinery itself: the library scenarios
// prove recovery works; these prove the harness reports the failure modes
// honestly instead of crashing or silently passing.

// crashTestScenario is a small script with one corrupting crash behind a
// Quiet step.
func crashTestScenario(mode CrashMode) *Scenario {
	return &Scenario{
		Name:          "crash-meta",
		Workload:      workload.Control,
		Flavor:        server.Vanilla,
		Seed:          79,
		Warmup:        4,
		SnapshotEvery: 1,
		Steps: []Step{
			JoinWave(2, 3),
			Quiet(3),
			Crash(mode, 4),
			Quiet(3),
		},
	}
}

// A Crash step without a snapshot store must fail the scenario with a clear
// message, not panic.
func TestCrashWithoutStoreFailsCleanly(t *testing.T) {
	sc := crashTestScenario(CrashClean)
	sc.SnapshotEvery = 0
	res := Run(sc, Options{Workers: []int{1, 2}})
	if !res.Failed {
		t.Fatal("crash without a snapshot store passed")
	}
	if !strings.Contains(res.Detail, "no snapshot store") {
		t.Fatalf("unexpected detail: %s", res.Detail)
	}
}

// When every snapshot in the store is corrupt, the restart must fail the
// scenario with ErrNoSnapshot's message — a clean, attributable failure
// rather than a panic or a silent half-restore.
func TestCrashAllCorruptFailsCleanly(t *testing.T) {
	sc := crashTestScenario(CrashClean)
	const crashStep = 2
	opts := Options{
		Workers: []int{1, 2},
		Fault: func(step int, tw *Twin) {
			if step != crashStep || tw.Index == 0 || tw.store == nil {
				return
			}
			entries, err := os.ReadDir(tw.store.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				path := filepath.Join(tw.store.Dir(), e.Name())
				if err := persist.CorruptFile(path, persist.CorruptTruncate); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	res := Run(sc, opts)
	if !res.Failed {
		t.Fatal("restart from an all-corrupt store passed")
	}
	if !strings.Contains(res.Detail, "no usable snapshot") {
		t.Fatalf("unexpected detail: %s", res.Detail)
	}
}

// Corrupting the newest snapshot must actually exercise the fallback path:
// the scenario still passes (re-convergence), and a LoadLatest performed at
// crash time — after the corruption, before the restore — rejects the torn
// file. The check runs as the replacement server is built, because the
// replayed gap ticks rewrite that tick's snapshot through the rebuilt
// server's own persistence, healing the store before the step ends.
func TestCrashCorruptionFallsBackToOlderSnapshot(t *testing.T) {
	for _, mode := range []CrashMode{CrashTruncateLatest, CrashBitFlipLatest, CrashMidSnapshot} {
		t.Run(mode.String(), func(t *testing.T) {
			sc := crashTestScenario(mode)
			var rejected int
			sc.Steps[2].Before = func(tw *Twin) {
				if tw.Index > 0 && tw.store != nil {
					rebuild := tw.rebuild
					defer func() { tw.rebuild = rebuild }()
					tw.rebuild = func(n int) (*server.Server, env.Clock) {
						if res, err := tw.store.LoadLatest(); err == nil {
							rejected += len(res.Skipped)
						}
						return rebuild(n)
					}
				}
				Crash(mode, 4).Before(tw)
			}
			res := Run(sc, Options{Workers: []int{1, 2}})
			if res.Failed {
				t.Fatalf("corrupting crash did not re-converge: %s", res.String())
			}
			if rejected == 0 {
				t.Fatal("no snapshot file was rejected — the corruption never exercised the fallback path")
			}
		})
	}
}
