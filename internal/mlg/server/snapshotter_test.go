package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// Autosave capture: AppendSnapshot frames a snapshot straight into a
// caller's buffer, and the Snapshotter reuses one such buffer across
// snapshots, sealing and writing it off the tick goroutine in async mode.

func newTestStore(t *testing.T) *persist.Store {
	t.Helper()
	st, err := persist.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestAppendSnapshotMatchesReference: the bytes framed in place and sealed
// equal persist.Encode of the section-by-section reference assembly, for
// full and incremental snapshots, also when the capture reuses a buffer
// that held a larger snapshot.
func TestAppendSnapshotMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(testing.TB) *server.Server
		ticks int
	}{
		{"Farm", func(testing.TB) *server.Server { return newPersistRef(workload.Farm, 1, 0) }, 30},
		// Ignited at tick 6 with 80-tick fuses: the capture lands among live
		// TNT, flying items and half-built craters.
		{"TNT", func(testing.TB) *server.Server { return newPersistRef(workload.TNT, 1, 6) }, 95},
		{"Lag", func(testing.TB) *server.Server { return newPersistRef(workload.Lag, 2, 0) }, 30},
		{"Players200", setupPlayers, 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			for i := 0; i < tc.ticks; i++ {
				s.Tick()
			}
			var buf []byte
			capture := func(what string, base *server.SnapshotBase) {
				t.Helper()
				want := persist.Encode(server.ReferenceEncodeSnapshot(s, base))
				buf = s.AppendSnapshot(buf[:0], base)
				persist.Seal(buf)
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s at tick %d: %d bytes framed in place, %d by the reference, first difference at byte %d",
						what, s.TickNumber(), len(buf), len(want), firstDiff(buf, want))
				}
			}
			capture("full", nil)
			base := &server.SnapshotBase{Tick: s.TickNumber(), Revs: s.World().ChunkRevisions()}
			for i := 0; i < 3; i++ {
				s.Tick()
			}
			held := &buf[0]
			capture("incremental", base)
			if &buf[0] != held {
				t.Fatal("incremental capture did not reuse the full snapshot's buffer")
			}
			for i := 0; i < 3; i++ {
				s.Tick()
			}
			capture("second full", nil)
		})
	}
}

// TestSnapshotterReusesBuffer: once warm, a full snapshot's garbage is a
// small fraction of the file it writes — the encode buffer is retained,
// not rebuilt.
func TestSnapshotterReusesBuffer(t *testing.T) {
	s := setupPlayers(t)
	st := newTestStore(t)
	sn := server.NewSnapshotter(s, server.PersistConfig{Store: st, Sync: true})
	sn.Snapshot()
	sn.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sn.Snapshot()
	runtime.ReadMemStats(&after)
	if err := sn.Err(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.LatestPath())
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("full snapshot of %d bytes allocated %d bytes", fi.Size(), alloc)
	if alloc*10 >= uint64(fi.Size()) {
		t.Fatalf("warm full snapshot allocated %d bytes for a %d-byte file, want under 10%%", alloc, fi.Size())
	}
}

// TestSnapshotterSkipsWhileWriterBusy: while the background writer holds
// the buffer, a snapshot is counted as skipped without being encoded; the
// next one after the write reuses the same backing array.
func TestSnapshotterSkipsWhileWriterBusy(t *testing.T) {
	s := newPersistRef(workload.Control, 1, 0)
	s.Tick()
	st := newTestStore(t)
	held := make(chan *byte, 2)
	release := make(chan struct{})
	st.Fault = func(_ string, data []byte) []byte {
		held <- &data[0]
		<-release
		return data
	}
	sn := server.NewSnapshotter(s, server.PersistConfig{Store: st})
	released := false
	defer func() {
		if !released {
			close(release)
		}
		sn.Close()
	}()

	sn.Snapshot()
	first := <-held // the writer is inside the write now
	if n := testing.AllocsPerRun(1, sn.Snapshot); n != 0 {
		t.Fatalf("snapshot while the writer is busy allocated %v times: it encoded", n)
	}
	if written, skipped := sn.Stats(); written != 0 || skipped != 2 {
		t.Fatalf("busy writer: written %d skipped %d, want 0 and 2", written, skipped)
	}

	close(release)
	released = true
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if written, _ := sn.Stats(); written == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer never finished the first snapshot")
		}
	}
	sn.Snapshot()
	if got := <-held; got != first {
		t.Fatal("the snapshot after the write did not reuse the retained buffer")
	}
	sn.Close()
	if written, skipped := sn.Stats(); written != 2 || skipped != 2 {
		t.Fatalf("written %d skipped %d, want 2 and 2", written, skipped)
	}
	if err := sn.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotterAfterCloseDoesNotBlock: an async snapshot after Close is
// skipped and returns; a Sync snapshotter keeps writing after Close.
func TestSnapshotterAfterCloseDoesNotBlock(t *testing.T) {
	s := newPersistRef(workload.Control, 1, 0)
	s.Tick()
	st := newTestStore(t)
	sn := server.NewSnapshotter(s, server.PersistConfig{Store: st})
	sn.Close()
	done := make(chan struct{})
	go func() {
		sn.Snapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot blocked after Close")
	}
	sn.Close()
	if written, skipped := sn.Stats(); written != 0 || skipped != 1 {
		t.Fatalf("after Close: written %d skipped %d, want 0 and 1", written, skipped)
	}
	if p := st.LatestPath(); p != "" {
		t.Fatalf("a snapshot landed after Close: %s", p)
	}

	syn := server.NewSnapshotter(s, server.PersistConfig{Store: st, Sync: true})
	syn.Close()
	syn.Snapshot()
	if written, _ := syn.Stats(); written != 1 {
		t.Fatalf("sync snapshotter after Close wrote %d snapshots, want 1", written)
	}
}

// TestSnapshotterAsyncUnderTicks snapshots every tick of a running server
// through the background writer (run it with -race): every file that lands
// restores, incrementals against their own base full.
func TestSnapshotterAsyncUnderTicks(t *testing.T) {
	const ticks = 60
	s := newPersistRef(workload.Farm, 2, 0)
	st := newTestStore(t)
	st.KeepFulls = 0
	sn := server.NewSnapshotter(s, server.PersistConfig{Store: st, Every: 1, FullEvery: 3})
	for i := 0; i < ticks; i++ {
		s.Tick()
		sn.MaybeSnapshot(s.TickNumber())
	}
	sn.Close()
	if err := sn.Err(); err != nil {
		t.Fatal(err)
	}
	written, skipped := sn.Stats()
	t.Logf("%d snapshots written, %d skipped", written, skipped)
	if written == 0 || written+skipped != ticks {
		t.Fatalf("written %d + skipped %d, want %d cadence points with at least one written", written, skipped, ticks)
	}

	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != written {
		t.Fatalf("%d files in the store, %d snapshots written", len(entries), written)
	}
	decode := func(name string) *persist.Snapshot {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(st.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := persist.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return snap
	}
	for _, e := range entries {
		snap := decode(e.Name())
		res := &persist.Resolved{Tick: snap.Tick, Full: snap}
		if snap.Kind == persist.KindIncremental {
			res.Full, res.Delta = decode(fmt.Sprintf("snap-%016d-full.mlgp", snap.BaseTick)), snap
		}
		if err := newPersistBlank(workload.Farm, 2).RestoreSnapshot(res); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
	res, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if err := newPersistBlank(workload.Farm, 2).RestoreSnapshot(res); err != nil {
		t.Fatal(err)
	}
}
