package server_test

// Restore-then-replay equivalence: a server restored from a snapshot must
// produce bit-identical subsequent ticks versus the uninterrupted run —
// same sim/entity counters, cost-model work, populations and final state —
// across the golden workloads, at SimWorkers 1/2/4, from both a full
// snapshot and an incremental layered on one. This is the acceptance gate
// of the persistence layer: any state the codec forgets shows up here as
// the first divergent tick.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/workload"
)

// newPersistRef builds a fully installed workload server (the
// uninterrupted reference run).
func newPersistRef(k workload.Kind, simWorkers int, igniteAfter int) *server.Server {
	w := workload.NewWorld(k, world.PaperControlSeed)
	cfg := server.DefaultConfig(server.Paper)
	cfg.Sim.Seed = 1234
	cfg.Sim.Workers = simWorkers
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	s := server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	spec := k.DefaultSpec()
	spec.Scale = 2
	if k == workload.TNT {
		spec.IgniteAfterTicks = igniteAfter
	}
	if err := workload.Install(s, spec); err != nil {
		panic(err)
	}
	s.Connect("persist")
	if k == workload.TNT {
		workload.Arm(s, spec)
	}
	return s
}

// newPersistBlank builds the restore target: same config and world
// generator, but nothing installed and nobody connected — restore replaces
// all of that; the fresh world only supplies the generator for chunks
// loaded after the restore point.
func newPersistBlank(k workload.Kind, simWorkers int) *server.Server {
	w := workload.NewWorld(k, world.PaperControlSeed)
	cfg := server.DefaultConfig(server.Paper)
	cfg.Sim.Seed = 1234
	cfg.Sim.Workers = simWorkers
	m := env.NewMachine(env.DAS5SixteenCore, 1)
	return server.New(w, cfg, m, env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
}

// compareTick asserts the deterministic fields of two tick records match.
// Durations are excluded on purpose: the restored server's machine model
// and virtual clock restart, which changes timing but nothing simulated.
func compareTick(t *testing.T, tick int64, ref, got server.TickRecord) {
	t.Helper()
	if ref.Sim != got.Sim {
		t.Fatalf("tick %d: sim counters diverged\nref:      %+v\nrestored: %+v", tick, ref.Sim, got.Sim)
	}
	if ref.Ent != got.Ent {
		t.Fatalf("tick %d: entity counters diverged\nref:      %+v\nrestored: %+v", tick, ref.Ent, got.Ent)
	}
	if ref.Work != got.Work {
		t.Fatalf("tick %d: cost-model work diverged\nref:      %+v\nrestored: %+v", tick, ref.Work, got.Work)
	}
	if ref.Players != got.Players || ref.Entities != got.Entities || ref.Backlog != got.Backlog {
		t.Fatalf("tick %d: players/entities/backlog %d/%d/%d vs %d/%d/%d",
			tick, ref.Players, ref.Entities, ref.Backlog, got.Players, got.Entities, got.Backlog)
	}
}

func TestRestoreReplayMatrix(t *testing.T) {
	cases := []struct {
		k                     workload.Kind
		total, fullAt, incrAt int64
		igniteAfter           int
	}{
		// Control: terrain + a player, light load.
		{k: workload.Control, total: 60, fullAt: 25, incrAt: 40},
		// Farm: redstone, spawners, hoppers, mobs — snapshot lands mid-farm.
		{k: workload.Farm, total: 60, fullAt: 25, incrAt: 40},
		// TNT: ignite at 6, 80-tick fuses — snapshots land mid-explosion,
		// with live TNT entities, flying items and half-built craters.
		{k: workload.TNT, total: 130, fullAt: 90, incrAt: 110, igniteAfter: 6},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/workers%d", tc.k, workers), func(t *testing.T) {
				ref := newPersistRef(tc.k, workers, tc.igniteAfter)
				recs := make(map[int64]server.TickRecord, tc.total)
				var full, incr *persist.Snapshot
				var base *server.SnapshotBase
				for i := int64(1); i <= tc.total; i++ {
					rec := ref.Tick()
					recs[i] = rec
					switch i {
					case tc.fullAt:
						full = ref.EncodeSnapshot(nil)
						base = &server.SnapshotBase{Tick: full.Tick, Revs: ref.World().ChunkRevisions()}
					case tc.incrAt:
						incr = ref.EncodeSnapshot(base)
					}
				}
				refFinal := ref.Snapshot()

				t.Run("full", func(t *testing.T) {
					replayFrom(t, tc.k, workers, &persist.Resolved{Tick: full.Tick, Full: full},
						recs, tc.total, &refFinal, true)
				})
				// Snapshots written up to PR 13 carry the state of an engine RNG
				// no rule drew from where this codec writes a zero word.
				t.Run("full-nonzero-rng-word", func(t *testing.T) {
					old := withSection(full, persist.SectionSim, func(p []byte) {
						binary.BigEndian.PutUint64(p[8:], 0x9e3779b97f4a7c15)
					})
					replayFrom(t, tc.k, workers, &persist.Resolved{Tick: old.Tick, Full: old},
						recs, tc.total, &refFinal, false)
				})
				// Snapshots written before the entity tick became serial carry
				// its schedule attribution (unit count, parallel flag, parallel
				// and fallback tick counts) in the entity section's last 29
				// bytes, where this codec writes zeros.
				t.Run("full-nonzero-entity-schedule-words", func(t *testing.T) {
					old := withSection(full, persist.SectionEntities, func(p []byte) {
						tail := p[len(p)-29:]
						binary.BigEndian.PutUint32(tail, 8)
						tail[4] = 1
						binary.BigEndian.PutUint64(tail[5:], 77)
						binary.BigEndian.PutUint64(tail[13:], 3)
					})
					replayFrom(t, tc.k, workers, &persist.Resolved{Tick: old.Tick, Full: old},
						recs, tc.total, &refFinal, false)
				})
				t.Run("incremental", func(t *testing.T) {
					replayFrom(t, tc.k, workers,
						&persist.Resolved{Tick: incr.Tick, Full: full, Delta: incr},
						recs, tc.total, &refFinal, false)
				})
			})
		}
	}
}

// withSection returns a copy of snap whose section id payload has been
// rewritten in place by patch.
func withSection(snap *persist.Snapshot, id uint32, patch func(payload []byte)) *persist.Snapshot {
	cp := *snap
	cp.Sections = append([]persist.Section(nil), snap.Sections...)
	for i := range cp.Sections {
		if cp.Sections[i].ID == id {
			payload := append([]byte(nil), cp.Sections[i].Payload...)
			patch(payload)
			cp.Sections[i].Payload = payload
		}
	}
	return &cp
}

func replayFrom(t *testing.T, k workload.Kind, workers int, res *persist.Resolved,
	recs map[int64]server.TickRecord, total int64, refFinal *server.Snapshot, checkBytes bool) {
	t.Helper()
	tw := newPersistBlank(k, workers)
	if err := tw.RestoreSnapshot(res); err != nil {
		t.Fatalf("restore at tick %d: %v", res.Tick, err)
	}
	if checkBytes {
		// A full snapshot re-encoded immediately after restore must
		// reproduce the original bytes — the codec is canonical, so any
		// mismatch means state was dropped or invented on the way through.
		if got, want := persist.Encode(tw.EncodeSnapshot(nil)), persist.Encode(res.Full); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded snapshot differs from original (%d vs %d bytes)", len(got), len(want))
		}
	}
	for i := res.Tick + 1; i <= total; i++ {
		compareTick(t, i, recs[i], tw.Tick())
	}
	twFinal := tw.Snapshot()
	if d := twFinal.Diff(refFinal); d != "" {
		t.Fatalf("final state diverged after restore at %d: %s", res.Tick, d)
	}
}
