package server_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// Persistence cost benchmarks: what one snapshot costs the tick loop
// (encode + atomic write) and what a restart pays to come back. The
// matching Test*Allocs bound the allocations of each operation.

// benchPersistServer builds a Farm server (Scale 2, like the equivalence
// matrix) and runs it warm ticks so the snapshot carries a realistic
// mid-run state.
func benchPersistServer(tb testing.TB, warm int) *server.Server {
	tb.Helper()
	s := newPersistRef(workload.Farm, 1, 0)
	for i := 0; i < warm; i++ {
		s.Tick()
	}
	return s
}

// snapshotSaves are the snapshot writes BenchmarkSnapshotSave times: a full
// snapshot or an incremental, of a server warmed for warm ticks. allocs
// bounds one write.
var snapshotSaves = []struct {
	kind   string
	warm   int
	allocs uint64
}{{"full", 10, 60}, {"incr", 10, 39}, {"full", 40, 61}, {"incr", 40, 42}}

// newSaveRig builds a server warmed for warm ticks and a store holding its
// full snapshot, ticks once, and returns one encode and write of a full
// snapshot, or of an incremental against the stored full. The tick of
// drift makes the delta non-empty.
func newSaveRig(tb testing.TB, warm int, incremental bool) (save func()) {
	s := benchPersistServer(tb, warm)
	snap := s.EncodeSnapshot(nil)
	var base *server.SnapshotBase
	if incremental {
		base = &server.SnapshotBase{Tick: snap.Tick, Revs: s.World().ChunkRevisions()}
	}
	st, err := persist.NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Write(snap); err != nil {
		tb.Fatal(err)
	}
	s.Tick()
	return func() {
		if _, err := st.Write(s.EncodeSnapshot(base)); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkSnapshotSave(b *testing.B) {
	for _, sc := range snapshotSaves {
		b.Run(fmt.Sprintf("%s/ticks%d", sc.kind, sc.warm), func(b *testing.B) {
			save := newSaveRig(b, sc.warm, sc.kind == "incr")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				save()
			}
		})
	}
}

// skipUnderRace skips t under the race detector: every snapshot write goes
// through os and fmt, whose sync.Pools drop puts at random there, so the
// counts are not the program's.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are randomised under -race")
	}
}

// TestSnapshotSaveAllocs bounds the allocations of one BenchmarkSnapshotSave
// write.
func TestSnapshotSaveAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, sc := range snapshotSaves {
		t.Run(fmt.Sprintf("%s/ticks%d", sc.kind, sc.warm), func(t *testing.T) {
			server.CheckAllocs(t, 5, newSaveRig(t, sc.warm, sc.kind == "incr"), sc.allocs)
		})
	}
}

// snapshotterModes are the autosave cadences BenchmarkSnapshotter drives:
// every capture full, or incrementals against one full. allocs bounds one
// capture.
var snapshotterModes = []struct {
	name      string
	fullEvery int
	allocs    uint64
}{{"full", 1, 44}, {"incr", math.MaxInt32, 22}}

// newSnapshotterRig is the autosave path as the tick goroutine drives it: a
// warmed Sync Snapshotter capturing into its retained buffer, then sealing
// and writing.
func newSnapshotterRig(tb testing.TB, fullEvery int) *server.Snapshotter {
	s := benchPersistServer(tb, 10)
	st, err := persist.NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	sn := server.NewSnapshotter(s, server.PersistConfig{Store: st, Sync: true, FullEvery: fullEvery})
	sn.Snapshot() // the first is full: base installed, buffer grown
	s.Tick()      // one tick of drift so an incremental is non-empty
	sn.Snapshot()
	return sn
}

func BenchmarkSnapshotter(b *testing.B) {
	for _, mode := range snapshotterModes {
		b.Run(mode.name, func(b *testing.B) {
			sn := newSnapshotterRig(b, mode.fullEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn.Snapshot()
			}
			b.StopTimer()
			if err := sn.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestSnapshotterAllocs bounds the allocations of one warmed
// BenchmarkSnapshotter capture.
func TestSnapshotterAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, mode := range snapshotterModes {
		t.Run(mode.name, func(t *testing.T) {
			sn := newSnapshotterRig(t, mode.fullEvery)
			server.CheckAllocs(t, 5, func() {
				if sn.Snapshot(); sn.Err() != nil {
					t.Fatal(sn.Err())
				}
			}, mode.allocs)
		})
	}
}

// newRestoreRig returns one restart from a full snapshot of a server warmed
// for warm ticks: a blank server restoring it.
func newRestoreRig(tb testing.TB, warm int) (restore func()) {
	s := benchPersistServer(tb, warm)
	full := s.EncodeSnapshot(nil)
	res := &persist.Resolved{Tick: full.Tick, Full: full}
	return func() {
		if err := newPersistBlank(workload.Farm, 1).RestoreSnapshot(res); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkRestore(b *testing.B) {
	for _, warm := range []int{10, 40} {
		b.Run(fmt.Sprintf("full/ticks%d", warm), func(b *testing.B) {
			restore := newRestoreRig(b, warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restore()
			}
		})
	}
}

// TestRestoreAllocs bounds the allocations of one BenchmarkRestore restart.
func TestRestoreAllocs(t *testing.T) {
	for _, tc := range []struct {
		warm   int
		allocs uint64
	}{{10, 296}, {40, 438}} {
		t.Run(fmt.Sprintf("full/ticks%d", tc.warm), func(t *testing.T) {
			server.CheckAllocs(t, 5, newRestoreRig(t, tc.warm), tc.allocs)
		})
	}
}
