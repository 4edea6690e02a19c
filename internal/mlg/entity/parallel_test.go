package entity

// Store-level serial-vs-parallel equivalence for the parallel entity tick:
// twin stores with identical spawn sequences run tick-locked at Workers=1
// (legacy serial loop) and Workers=4 (ID-range work units), and every
// externally visible product — per-tick counters, per-chunk update drains,
// detonation drains, and the full wire state snapshot — must match bit for
// bit. Companion tests cover the escape→undo→serial-re-tick path on both
// sides of the generation horizon, the unit-cover invariants, units that
// split one chunk bucket, and the grouped blast-impulse batches.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mlg/world"
)

// clusterOrigins lays out n cluster anchors 256 blocks apart on the X axis —
// 16 chunks, far beyond the region link distance, so each cluster is its own
// simulation region.
func clusterOrigins(n int) []world.Pos {
	out := make([]world.Pos, n)
	for i := range out {
		out[i] = world.Pos{X: 32 + i*256, Y: 12, Z: 32}
	}
	return out
}

// buildTwinWorld creates an entity world over flat terrain covering the
// clusters and populates each cluster with items, mobs and slow-fuse TNT via
// the public spawn API, so twin builds consume identical RNG.
func buildTwinWorld(t testing.TB, workers, clusters int) *World {
	t.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.ActivationRange = 32 // exercise the throttling path too
	ew := NewWorld(w, cfg, 424242)
	for _, o := range clusterOrigins(clusters) {
		w.EnsureArea(o, 4)
		for i := 0; i < 30; i++ {
			ew.SpawnItem(world.Pos{X: o.X + i%6*2, Y: 14, Z: o.Z + i/6*2}, world.Gravel)
		}
		for i := 0; i < 6; i++ {
			ew.SpawnMob(world.Pos{X: o.X + 3 + i, Y: 11, Z: o.Z + 10})
		}
		for i := 0; i < 4; i++ {
			// Staggered fuses so detonations drain across several ticks.
			ew.SpawnPrimedTNT(world.Pos{X: o.X + 8, Y: 12, Z: o.Z + 4 + i}, 25+7*i)
		}
	}
	return ew
}

// twinPlayers puts one player at each cluster so mobs acquire AI targets and
// activation marking has work to do.
func twinPlayers(clusters int) []Vec3 {
	out := make([]Vec3, 0, clusters)
	for _, o := range clusterOrigins(clusters) {
		out = append(out, Vec3{X: float64(o.X) + 5.5, Y: 11, Z: float64(o.Z) + 5.5})
	}
	return out
}

func drainUpdatesString(ew *World) string {
	return fmt.Sprintf("%+v", ew.DrainChunkUpdates())
}

func TestEntityTickSerialParallelEquivalence(t *testing.T) {
	// Worker-count independence: every worker count must reproduce the
	// Workers=1 serial loop bit for bit, not merely agree with one chosen
	// parallel schedule.
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const clusters = 3
			serial := buildTwinWorld(t, 1, clusters)
			parallel := buildTwinWorld(t, workers, clusters)
			players := twinPlayers(clusters)

			for tick := 0; tick < 80; tick++ {
				cs, cp := serial.Tick(players), parallel.Tick(players)
				if cs != cp {
					t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick, cs, cp)
				}
				if a, b := drainUpdatesString(serial), drainUpdatesString(parallel); a != b {
					t.Fatalf("tick %d: chunk updates diverged\nserial:   %s\nparallel: %s", tick, a, b)
				}
				es, ep := serial.DrainExplosions(), parallel.DrainExplosions()
				if fmt.Sprint(es) != fmt.Sprint(ep) {
					t.Fatalf("tick %d: detonation order diverged\nserial:   %v\nparallel: %v", tick, es, ep)
				}
				if a, b := serial.AppendStateSnapshot(nil), parallel.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
					t.Fatalf("tick %d: entity state snapshots diverged (%d vs %d bytes)", tick, len(a), len(b))
				}
			}
			ps := parallel.ParallelStats()
			if ps.ParallelTicks == 0 {
				t.Fatalf("parallel store never took the region-parallel path: %+v", ps)
			}
			if ss := serial.ParallelStats(); ss.ParallelTicks != 0 {
				t.Fatalf("Workers=1 store took the parallel path: %+v", ss)
			}
		})
	}
}

// TestEntityFastEscapeSerialRetick launches an item across several chunks in
// one tick (a velocity no simulated force produces, and one the scheduler's
// slow-probe envelope cannot cover). Its probes miss the frozen chunk
// snapshot while a fresh mob below the generation horizon could be
// generating terrain, so the worker must undo just that entity and queue it
// for the serial re-tick pass — the tick still commits as parallel, and the
// store must keep matching its serial twin bit for bit.
func TestEntityFastEscapeSerialRetick(t *testing.T) {
	build := func(workers int) *World {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.NaturalSpawning = false
		ew := NewWorld(w, cfg, 99)
		// One loaded chunk holding a fresh mob (no path, cooldown 0 → it may
		// generate terrain, lowest ID → the generation horizon is its ID)
		// and a higher-ID item about to be launched.
		w.EnsureArea(world.Pos{X: 8, Z: 8}, 0)
		ew.SpawnMob(world.Pos{X: 8, Y: 11, Z: 8})
		ew.SpawnItem(world.Pos{X: 8, Y: 30, Z: 8}, world.Gravel)
		// Far-away filler so the population passes the parallel threshold
		// and a second region exists.
		o := world.Pos{X: 520, Y: 12, Z: 8}
		w.EnsureArea(o, 2)
		for i := 0; i < 40; i++ {
			ew.SpawnItem(world.Pos{X: o.X + i%8, Y: 14, Z: o.Z + i/8}, world.Gravel)
		}
		// 120 blocks in one tick: the first step probes far outside the
		// loaded single chunk.
		ew.Entities(func(e *Entity) {
			if e.Kind == Item && e.Pos.X < 100 {
				e.Vel.X = 120
			}
		})
		return ew
	}
	serial, parallel := build(1), build(4)

	for tick := 0; tick < 8; tick++ {
		cs, cp := serial.Tick(nil), parallel.Tick(nil)
		if cs != cp {
			t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick, cs, cp)
		}
		if a, b := serial.AppendStateSnapshot(nil), parallel.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
			t.Fatalf("tick %d: snapshots diverged", tick)
		}
		// Keep the drains aligned between twins.
		serial.DrainChunkUpdates()
		parallel.DrainChunkUpdates()
		serial.DrainExplosions()
		parallel.DrainExplosions()
	}
	ps := parallel.ParallelStats()
	if ps.FallbackTicks == 0 {
		t.Fatalf("fast escape never forced a serial re-tick: %+v", ps)
	}
	if ps.ParallelTicks == 0 {
		t.Fatalf("re-ticked entities must not demote ticks off the parallel path: %+v", ps)
	}
}

// TestEntityUnloadedReadPastGenerationHorizonEscapes covers the one way
// worker-ticked entities could observe non-serial terrain: a fresh mob's
// choosePath may GENERATE a chunk (surfaceAt → HighestSolidY) before a
// higher-ID entity's serial turn, while the worker reads a frozen chunk
// index. The undo rule is per entity and exact — snapshot iff ID >= the
// generation horizon — so the test walks all three sides of the boundary,
// each against a serial twin.
func TestEntityUnloadedReadPastGenerationHorizonEscapes(t *testing.T) {
	// filler is a far-away loaded cluster of 40 resting items, so the
	// population passes the parallel threshold (two units at Workers=4).
	filler := world.Pos{X: 520, Y: 12, Z: 8}
	build := func(workers int, populate func(w *world.World, ew *World)) *World {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.NaturalSpawning = false
		ew := NewWorld(w, cfg, 99)
		w.EnsureArea(filler, 2)
		populate(w, ew)
		return ew
	}
	addFiller := func(ew *World) {
		for i := 0; i < 40; i++ {
			ew.SpawnItem(world.Pos{X: filler.X + i%8, Y: 14, Z: filler.Z + i/8}, world.Gravel)
		}
	}
	// lockstep ticks the twins and requires bit-equal counters and state.
	lockstep := func(t *testing.T, serial, parallel *World, ticks int) {
		t.Helper()
		for tick := 0; tick < ticks; tick++ {
			cs, cp := serial.Tick(nil), parallel.Tick(nil)
			if cs != cp {
				t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick, cs, cp)
			}
			if a, b := serial.AppendStateSnapshot(nil), parallel.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
				t.Fatalf("tick %d: snapshots diverged", tick)
			}
			serial.DrainChunkUpdates()
			parallel.DrainChunkUpdates()
		}
	}

	// Past the horizon: a fresh mob (no path, cooldown 0 → may generate,
	// lowest ID) in one loaded chunk, plus a higher-ID item parked over the
	// UNLOADED adjacent chunk. The item's unloaded read must escape.
	t.Run("past", func(t *testing.T) {
		populate := func(w *world.World, ew *World) {
			w.EnsureArea(world.Pos{X: 8, Z: 8}, 0)
			ew.SpawnMob(world.Pos{X: 8, Y: 11, Z: 8})
			ew.SpawnItem(world.Pos{X: 24, Y: 30, Z: 8}, world.Gravel)
			addFiller(ew)
		}
		serial, parallel := build(1, populate), build(4, populate)
		lockstep(t, serial, parallel, 6)
		if ps := parallel.ParallelStats(); ps.FallbackTicks == 0 {
			t.Fatalf("unloaded read past the generation horizon never escaped: %+v", ps)
		}
	})

	// At the horizon: the only entity that can escape is the horizon mob
	// itself, standing in ungenerated terrain, so whatever wander goal it
	// draws lies over an unloaded column. Its own surfaceAt escape must be
	// rolled back and re-ticked serially, where the column generates.
	t.Run("at", func(t *testing.T) {
		populate := func(w *world.World, ew *World) {
			ew.SpawnMob(world.Pos{X: -200, Y: 11, Z: -200})
			addFiller(ew)
		}
		serial, parallel := build(1, populate), build(4, populate)
		loaded := len(parallel.w.LoadedChunks())
		lockstep(t, serial, parallel, 1)
		if ps := parallel.ParallelStats(); ps.FallbackTicks != 1 || ps.ParallelTicks != 1 {
			t.Fatalf("the horizon mob's own surfaceAt escape was not re-ticked: %+v", ps)
		}
		if got := len(parallel.w.LoadedChunks()); got != loaded+1 || got != len(serial.w.LoadedChunks()) {
			t.Fatalf("re-tick loaded %d chunks, want %d (serial twin: %d)",
				got, loaded+1, len(serial.w.LoadedChunks()))
		}
		lockstep(t, serial, parallel, 5)
	})

	// Before the horizon: the item over unloaded terrain has the LOWEST ID
	// and the fresh mob — in the middle of the loaded filler area, so its
	// goal never needs generation — the highest. The item's unloaded reads
	// are serial-equivalent (nothing before it can generate): it commits on
	// its worker, and its unit, wholly below the horizon, takes no snapshot.
	t.Run("before", func(t *testing.T) {
		populate := func(w *world.World, ew *World) {
			ew.SpawnItem(world.Pos{X: -200, Y: 30, Z: -200}, world.Gravel)
			addFiller(ew)
			ew.SpawnMob(world.Pos{X: filler.X, Y: 11, Z: filler.Z + 8})
		}
		serial, parallel := build(1, populate), build(4, populate)
		lockstep(t, serial, parallel, 1)
		ps := parallel.ParallelStats()
		if ps.FallbackTicks != 0 || ps.ParallelTicks != 1 || ps.LastRegions != 2 {
			t.Fatalf("an entity before the horizon must not escape: %+v", ps)
		}
		if id := parallel.units[0].prev.ID; id != 0 {
			t.Fatalf("unit below the generation horizon snapshotted entity %d", id)
		}
		if id := parallel.units[1].prev.ID; id != parallel.nextID {
			t.Fatalf("horizon mob %d was not snapshotted (last snapshot: %d)", parallel.nextID, id)
		}
	})
}

// TestEntityUnitCoverProperties checks the invariants the ID-range schedule
// rests on: for any population and worker count the work units are
// non-empty, contiguous and cover the entity list exactly once, there are at
// most unitsPerWorker per worker, and each holds at least minUnitEntities.
func TestEntityUnitCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < 2000; trial++ {
		n := minParallelEntities + rng.Intn(5000)
		if trial%10 == 0 {
			n = minParallelEntities + rng.Intn(64) // crowd the small end
		}
		for _, workers := range []int{2, 3, 4, 8} {
			units := unitCount(n, workers)
			if units < 1 || units > workers*unitsPerWorker {
				t.Fatalf("n=%d workers=%d: %d units outside [1, %d]", n, workers, units, workers*unitsPerWorker)
			}
			next := 0
			for u := 0; u < units; u++ {
				lo, hi := unitRange(n, units, u)
				if lo != next {
					t.Fatalf("n=%d workers=%d: unit %d starts at %d, previous ended at %d", n, workers, u, lo, next)
				}
				if hi-lo < minUnitEntities {
					t.Fatalf("n=%d workers=%d: unit %d holds %d entities, want >= %d", n, workers, u, hi-lo, minUnitEntities)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: units cover [0, %d), want [0, %d)", n, workers, next, n)
			}
		}
	}
}

// TestEntityUnitsStraddleOneBucket packs the whole population into a single
// chunk column, so every work-unit boundary cuts through one spatial-index
// bucket and workers tick bucket-mates concurrently: items falling and
// rebucketing, mobs pathing toward a player, TNT detonating. Run it under
// -race (CI: -count=10) — the ID-range schedule claims entity ticks share no
// mutable state, whatever their position.
func TestEntityUnitsStraddleOneBucket(t *testing.T) {
	build := func(workers int) *World {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.NaturalSpawning = false
		ew := NewWorld(w, cfg, 7)
		w.EnsureArea(world.Pos{X: 8, Z: 8}, 2)
		for i := 0; i < 96; i++ {
			ew.SpawnItem(world.Pos{X: i % 16, Y: 12 + i/16, Z: i / 6}, world.Gravel)
		}
		for i := 0; i < 12; i++ {
			ew.SpawnMob(world.Pos{X: 2 + i, Y: 11, Z: 2 + i})
		}
		for i := 0; i < 8; i++ {
			ew.SpawnPrimedTNT(world.Pos{X: 1 + 2*i, Y: 14, Z: 15}, 3+2*i)
		}
		return ew
	}
	serial, parallel := build(1), build(4)
	if got := len(parallel.index.buckets); got != 1 {
		t.Fatalf("population spans %d chunk buckets, want 1", got)
	}
	players := []Vec3{{X: 40.5, Y: 11, Z: 8.5}}
	for tick := 0; tick < 40; tick++ {
		cs, cp := serial.Tick(players), parallel.Tick(players)
		if cs != cp {
			t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick, cs, cp)
		}
		if a, b := drainUpdatesString(serial), drainUpdatesString(parallel); a != b {
			t.Fatalf("tick %d: chunk updates diverged\nserial:   %s\nparallel: %s", tick, a, b)
		}
		if es, ep := serial.DrainExplosions(), parallel.DrainExplosions(); fmt.Sprint(es) != fmt.Sprint(ep) {
			t.Fatalf("tick %d: detonation order diverged\nserial:   %v\nparallel: %v", tick, es, ep)
		}
		if a, b := serial.AppendStateSnapshot(nil), parallel.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
			t.Fatalf("tick %d: entity state snapshots diverged", tick)
		}
	}
	if ps := parallel.ParallelStats(); ps.ParallelTicks != 40 || ps.LastRegions < 2 {
		t.Fatalf("single-bucket population did not tick on several units: %+v", ps)
	}
}

// TestApplyExplosionImpulsesEquivalence compares a grouped impulse batch
// against the serial per-center loop on twin stores: entity state and
// collision counters must match exactly.
func TestApplyExplosionImpulsesEquivalence(t *testing.T) {
	const clusters = 4
	serial := buildTwinWorld(t, 1, clusters)
	parallel := buildTwinWorld(t, 4, clusters)

	var centers []world.Pos
	for _, o := range clusterOrigins(clusters) {
		centers = append(centers,
			world.Pos{X: o.X + 2, Y: 13, Z: o.Z + 2},
			world.Pos{X: o.X + 5, Y: 13, Z: o.Z + 3},
		)
	}
	serial.ApplyExplosionImpulses(centers, 4)
	parallel.ApplyExplosionImpulses(centers, 4)

	if serial.counters != parallel.counters {
		t.Fatalf("impulse counters diverged\nserial:   %+v\nparallel: %+v",
			serial.counters, parallel.counters)
	}
	if a, b := serial.AppendStateSnapshot(nil), parallel.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
		t.Fatal("impulse batches left diverging entity state")
	}
}
