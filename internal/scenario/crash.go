package scenario

import (
	"fmt"
	"strings"

	"repro/internal/mlg/persist"
)

// Crash-and-restart steps: the persistence layer under the model checker.
//
// A Crash step kills a twin mid-run — the server object is abandoned where
// it stands, nothing is flushed — and rebuilds it from its snapshot
// directory, exactly the way cmd/mlgserver restarts after a power cut. The
// reference twin (Index 0) never crashes, so the lockstep comparison after
// the step proves the restart is output-invisible: the restored twin must
// produce bit-identical tick records and state fingerprints versus the twin
// that never died.
//
// Corruption modes additionally damage the newest snapshot before the
// restart (torn tail, flipped bit, or a fault injected into an in-flight
// write), forcing the store's fallback path: the twin must come back from
// the previous good snapshot and re-converge by replaying the gap.

// CrashMode selects what the simulated power cut does to the snapshot
// directory.
type CrashMode int

const (
	// CrashClean leaves every snapshot intact: restart restores the newest
	// one. With SnapshotEvery=1 the restore lands on the crash tick and no
	// replay is needed, so CrashClean is safe anywhere in a script.
	CrashClean CrashMode = iota
	// CrashTruncateLatest tears the tail off the newest snapshot file, as a
	// crash mid-write would. Restart must fall back to the previous good
	// snapshot and replay the gap — the replayed ticks re-run without
	// client inputs, so corruption modes belong after input-free ticks
	// (Quiet, or any step whose final tick enqueues nothing).
	CrashTruncateLatest
	// CrashBitFlipLatest flips one bit mid-file (storage rot); detection is
	// the section checksum rather than a short read.
	CrashBitFlipLatest
	// CrashMidSnapshot injects the fault into an in-flight snapshot write:
	// the store's fault point truncates the bytes as they land, so the
	// newest file on disk is torn the way a kill -9 between write and fsync
	// would leave it.
	CrashMidSnapshot
)

func (m CrashMode) String() string {
	switch m {
	case CrashClean:
		return "clean"
	case CrashTruncateLatest:
		return "truncate-latest"
	case CrashBitFlipLatest:
		return "bitflip-latest"
	case CrashMidSnapshot:
		return "mid-snapshot"
	}
	return fmt.Sprintf("mode%d", int(m))
}

// Crash kills every non-reference twin with the given corruption mode,
// restarts it from its snapshot directory, and runs ticks ticks of lockstep
// comparison against the never-crashed reference. Requires
// Scenario.SnapshotEvery > 0.
func Crash(mode CrashMode, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("crash(%s)", mode),
		Ticks: ticks,
		Before: func(tw *Twin) {
			if err := tw.CrashRestart(mode, tw.Workers); err != nil {
				tw.fail = fmt.Sprintf("crash-restart (%s): %v", mode, err)
			}
		},
	}
}

// CrashRestart simulates a crash of this twin and restores it from its
// snapshot store into a server built with the given SimWorkers. The
// reference twin (Index 0) is never crashed: it is the uninterrupted run the
// restored twins are compared against.
func (tw *Twin) CrashRestart(mode CrashMode, workers int) error {
	if tw.Index == 0 {
		return nil
	}
	if tw.store == nil {
		return fmt.Errorf("scenario has no snapshot store (set Scenario.SnapshotEvery)")
	}
	if len(tw.Records) == 0 {
		return fmt.Errorf("cannot crash before the first tick")
	}
	crashTick := tw.Records[len(tw.Records)-1].Tick

	switch mode {
	case CrashTruncateLatest:
		if err := persist.CorruptFile(tw.store.LatestPath(), persist.CorruptTruncate); err != nil {
			return err
		}
	case CrashBitFlipLatest:
		if err := persist.CorruptFile(tw.store.LatestPath(), persist.CorruptBitFlip); err != nil {
			return err
		}
	case CrashMidSnapshot:
		// Arm the store's fault point and take one more snapshot: the write
		// tears in flight, leaving a truncated newest file.
		tw.store.Fault = func(_ string, data []byte) []byte { return data[:len(data)/3] }
		tw.S.Snapshotter().Snapshot()
		tw.store.Fault = nil
	}

	// The old server dies here: no flush, no goodbye. Build the replacement
	// the way a fresh process start would — same config, bare world — and
	// restore the newest snapshot the store still trusts.
	s, clock := tw.rebuild(workers)
	res, err := tw.store.LoadLatest()
	if err != nil {
		return err
	}
	if err := s.RestoreSnapshot(res); err != nil {
		return err
	}

	// Re-converge: replay the gap between the restore point and the crash
	// tick. These ticks already happened (they are in tw.Records), so they
	// are not recorded again; they re-run input-free, which only matches the
	// original run when the gap ticks had no client inputs — the contract
	// corruption modes impose on scripts. The rebuilt server snapshots them
	// on its own cadence, which rewrites any torn file the restore skipped.
	for t := res.Tick; t < crashTick; t++ {
		s.Tick()
	}

	tw.S, tw.Clock, tw.Workers = s, clock, workers
	// The rebuilt server inherited the twin's delivery hook through its
	// construction-time config; drop anything the replay ticks recorded.
	tw.deliveries = tw.deliveries[:0]

	// Scenario-connected players survive in the snapshot; recover their IDs
	// (join order is persisted) so later steps keep addressing them.
	tw.players = tw.players[:0]
	for _, id := range s.PlayerIDs() {
		if p := s.PlayerByID(id); p != nil && strings.HasPrefix(p.Name, "sc-") {
			tw.players = append(tw.players, id)
		}
	}
	return nil
}
