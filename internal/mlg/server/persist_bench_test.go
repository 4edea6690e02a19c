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
// (encode + atomic write) and what a restart pays to come back. Recorded
// into the BENCH.json trajectory by scripts/bench.sh.

// benchPersistServer builds a Farm server (Scale 2, like the equivalence
// matrix) and runs it warm ticks so the snapshot carries a realistic
// mid-run state.
func benchPersistServer(b *testing.B, warm int) *server.Server {
	b.Helper()
	s := newPersistRef(workload.Farm, 1, 0)
	for i := 0; i < warm; i++ {
		s.Tick()
	}
	return s
}

func BenchmarkSnapshotSave(b *testing.B) {
	for _, warm := range []int{10, 40} {
		s := benchPersistServer(b, warm)
		full := s.EncodeSnapshot(nil)
		base := &server.SnapshotBase{Tick: full.Tick, Revs: s.World().ChunkRevisions()}

		b.Run(fmt.Sprintf("full/ticks%d", warm), func(b *testing.B) {
			st, err := persist.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Write(s.EncodeSnapshot(nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("incr/ticks%d", warm), func(b *testing.B) {
			st, err := persist.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Write(full); err != nil {
				b.Fatal(err)
			}
			s.Tick() // one tick of drift so the delta is non-empty
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Write(s.EncodeSnapshot(base)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotter is the autosave path as the tick goroutine drives
// it: a warmed Sync Snapshotter capturing into its retained buffer, then
// sealing and writing — full snapshots, or incrementals against one full.
func BenchmarkSnapshotter(b *testing.B) {
	for _, mode := range []struct {
		name      string
		fullEvery int
	}{{"full", 1}, {"incr", math.MaxInt32}} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchPersistServer(b, 10)
			st, err := persist.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			sn := server.NewSnapshotter(s, st, server.SnapshotterConfig{Sync: true, FullEvery: mode.fullEvery})
			sn.Snapshot() // the first is full: base installed, buffer grown
			s.Tick()      // one tick of drift so an incremental is non-empty
			sn.Snapshot()
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

func BenchmarkRestore(b *testing.B) {
	for _, warm := range []int{10, 40} {
		s := benchPersistServer(b, warm)
		full := s.EncodeSnapshot(nil)
		res := &persist.Resolved{Tick: full.Tick, Full: full}

		b.Run(fmt.Sprintf("full/ticks%d", warm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tw := newPersistBlank(workload.Farm, 1)
				if err := tw.RestoreSnapshot(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
