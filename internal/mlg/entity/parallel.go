package entity

// Parallel entity ticks over contiguous ID ranges.
//
// The serial loop visits every live entity in list (ID) order. The parallel
// schedule cuts ew.list into contiguous ranges — work units — and ticks them
// on the SimWorkers pool. No spatial partition is needed, because entity
// ticks are already independent:
//
//  1. Inputs are frozen for the phase: AI targets come from the tick's
//     player grid, terrain is never mutated by an entity tick, and every
//     decision draw is a pure function of (chunk column, seedKey, tick)
//     (rng.go) — so a tick reads nothing another entity's tick writes.
//  2. Outputs are buffered per unit and merged order-free: index rebuckets
//     (buckets are ID-sorted sets), per-chunk update counts and counters
//     (sums), and detonations (keyed by entity ID, flushed in ID order).
//  3. The one coupling left is lazy terrain generation — serially, a mob
//     reaching choosePath can generate a chunk a later entity's read then
//     sees loaded. The scheduler computes the generation horizon: the
//     smallest ID among mobs that will reach choosePath this tick
//     (mayChoosePath, exact on pre-tick state). Workers cannot generate
//     (the chunk index is frozen), so a surfaceAt over an unloaded column,
//     or any unloaded read by an entity past the horizon, escapes that one
//     entity: it is rolled back from its undo snapshot and re-ticked
//     serially in ID order on the root context, where generation is
//     allowed. Only entities at or past the horizon can escape, so only
//     they pay for a snapshot; the rest of the unit commits.
//
// The workers run inside the world's exclusive phase with frozen chunk-index
// caches, so concurrent joins and readers block exactly as they would behind
// a serial entity storm.

import (
	"sort"

	"repro/internal/mlg/world"
)

// minParallelEntities is the population below which a parallel attempt is
// not worth the worker handoff cost.
const minParallelEntities = 32

// minUnitEntities is the smallest entity count worth a work unit of its own,
// so the parallel fan-out tracks the population.
const minUnitEntities = 16

// unitsPerWorker bounds the unit count to a few units per worker: enough
// slack for the pool's work stealing to balance uneven units (mobs cost far
// more than resting items), few enough that handoffs stay amortized.
const unitsPerWorker = 4

// minParallelImpulses is the detonation-batch size below which blast
// impulses run serially.
const minParallelImpulses = 4

// tickCtx is one entity-tick execution context. The store's root context
// aliases the store's own chunk cache and counters (the legacy serial
// path); a unit context owns unit-local counters and caches and buffers
// every order-sensitive effect for the deterministic merge. The per-entity
// tick body is written once against tickCtx, so the serial and parallel
// paths cannot drift apart.
type tickCtx struct {
	ew       *World
	wc       *world.ChunkCache
	counters *Counters
	unit     *entUnit // nil for the store's root (serial) context
	cur      *Entity  // entity currently being ticked (escape attribution)
}

// blockIfLoaded is the context's terrain read. Reads that hit a loaded chunk
// are always serial-equivalent: the entity phase never mutates loaded
// terrain, it only generates NEW chunks (choosePath → surfaceAt). A miss on
// an unloaded chunk is hazardous only when a mob with a smaller ID can
// generate this tick — at this entity's serial turn the chunk might exist.
// Past the generation horizon the current entity escapes to the serial
// re-tick pass, which runs after every generation-capable predecessor.
func (c *tickCtx) blockIfLoaded(p world.Pos) (world.Block, bool) {
	b, ok := c.wc.BlockIfLoaded(p)
	if !ok {
		if u := c.unit; u != nil && u.genHorizon >= 0 && c.cur != nil && c.cur.ID > u.genHorizon {
			u.escaped = true
		}
	}
	return b, ok
}

// entMove is one buffered spatial-index rebucket.
type entMove struct {
	e  *Entity
	to world.ChunkPos
}

// entExplosion is one buffered TNT detonation, keyed by entity ID so the
// flush can emit the tick's batch in serial (list) order.
type entExplosion struct {
	id  int64
	pos world.Pos
}

// entUnit is one work unit's tick execution: the buffers the merge consumes
// and the undo snapshot of the entity in flight. Shells live on the store
// and are reset per tick, so steady-state parallel ticks do not grow the
// heap with per-tick buffers.
type entUnit struct {
	cache      world.ChunkCache
	counters   Counters
	retick     []*Entity // escaped entities, re-ticked serially after merge
	moves      []entMove
	chunkMoved map[world.ChunkPos]int
	explosions []entExplosion

	// genHorizon is the tick's generation horizon (smallest ID among mobs
	// that will reach choosePath; -1 when none), copied from the scheduler.
	genHorizon int64
	// prev and prevCounters snapshot the current entity and the unit
	// counters before its tick (only for entities that can escape):
	// restoring the struct value is a full per-entity rollback, since
	// workers never mutate the contents of the referenced path/pathVersions
	// slices or maps, only replace the pointers.
	prev         Entity
	prevCounters Counters
	// escaped marks the CURRENT entity's tick as not completable on a worker
	// (terrain generation needed, or an unloaded read past the generation
	// horizon). The run loop rolls that entity back, queues it for the
	// serial re-tick, clears the flag and continues.
	escaped bool
}

// run ticks one contiguous range of the entity list. An entity can escape
// only at or past the generation horizon: blockIfLoaded requires a larger
// ID, and surfaceAt is reached only through choosePath, whose callers all
// have IDs >= the horizon by its definition. Exactly those entities get an
// undo snapshot; an escape without one would be a scheduler bug, and run
// panics rather than committing a half-ticked entity.
func (u *entUnit) run(c *tickCtx, list []*Entity) {
	for _, e := range list {
		if e.Dead {
			continue
		}
		undo := u.genHorizon >= 0 && e.ID >= u.genHorizon
		if undo {
			u.prev = *e
			u.prevCounters = u.counters
		}
		c.cur = e
		c.tickEntity(e)
		if u.escaped {
			if !undo {
				panic("entity: escape before the generation horizon, no undo snapshot")
			}
			*e = u.prev
			u.counters = u.prevCounters
			u.retick = append(u.retick, e)
			u.escaped = false
		}
	}
	c.cur = nil
}

func (u *entUnit) reset(genHorizon int64, index map[world.ChunkPos]*world.Chunk) {
	clear(u.chunkMoved)
	u.retick = u.retick[:0]
	u.moves = u.moves[:0]
	u.explosions = u.explosions[:0]
	u.counters = Counters{}
	u.genHorizon = genHorizon
	u.escaped = false
	u.cache = world.NewFixedChunkCache(index)
}

// unitCount returns how many work units a population of n >=
// minParallelEntities entities is cut into: at most unitsPerWorker per
// worker, each at least minUnitEntities.
func unitCount(n, workers int) int {
	units := n / minUnitEntities
	if limit := workers * unitsPerWorker; units > limit {
		units = limit
	}
	return units
}

// unitRange returns unit u's half-open range of an n-entity list cut into
// units near-equal contiguous ranges. For units <= n every range is
// non-empty, and together they cover [0, n) exactly.
func unitRange(n, units, u int) (lo, hi int) {
	return u * n / units, (u + 1) * n / units
}

// tryParallelTick attempts to run this tick's per-entity loop on the
// parallel schedule. It returns true when the loop ran and merged
// (identically to the serial loop); false leaves every entity untouched so
// the caller runs the serial path.
func (ew *World) tryParallelTick() bool {
	ew.lastParallel = false
	ew.lastRegions = 0
	n := len(ew.list)
	if ew.workers < 2 || n < minParallelEntities {
		return false
	}

	// The tick's generation horizon: the smallest ID among mobs that will
	// reach choosePath — the only mid-loop terrain generator. The list is
	// ID-ordered, so the first match is the minimum. Computed once,
	// serially, on pre-tick state; every unit receives the same value.
	genHorizon := int64(-1)
	for _, e := range ew.list {
		if !e.Dead && ew.mayChoosePath(e) {
			genHorizon = e.ID
			break
		}
	}

	nUnits := unitCount(n, ew.workers)
	for len(ew.units) < nUnits {
		ew.units = append(ew.units, &entUnit{chunkMoved: make(map[world.ChunkPos]int, 16)})
	}
	units := ew.units[:nUnits]
	ew.lastRegions = nUnits

	// Exclusive phase: workers resolve terrain reads from the frozen chunk
	// index (they cannot take the world's read lock while it is held), and
	// concurrent joins/readers block exactly as behind a serial entity storm.
	index := ew.w.BeginExclusive()
	world.Parallel(ew.workers, nUnits, func(i int) {
		u := units[i]
		u.reset(genHorizon, index)
		lo, hi := unitRange(n, nUnits, i)
		u.run(&tickCtx{ew: ew, wc: &u.cache, counters: &u.counters, unit: u}, ew.list[lo:hi])
	})
	ew.w.EndExclusive()

	retick := ew.mergeEntUnits(units)
	if len(retick) > 0 {
		// Escaped entities re-run serially on the root context in global ID
		// order — the positions their terrain generation occupies in the
		// serial schedule. Everything else has already committed with
		// serial-identical results: loaded terrain is stable for the phase
		// and decision draws are order-free.
		for _, e := range retick {
			ew.root.tickEntity(e)
		}
		ew.fallbackTicks++
	}
	ew.lastParallel = true
	ew.parallelTicks++
	return true
}

// mergeEntUnits folds the units' buffered effects into the store: counters
// and per-chunk update counts sum (order-free), index rebuckets apply
// (buckets are ID-sorted sets, so application order is immaterial),
// detonations join the tick's ID-keyed buffer (flushed in serial order at
// the end of the tick), and escaped entities are collected for the serial
// re-tick pass — already in ID order, since units are ascending ID ranges
// visited in order.
func (ew *World) mergeEntUnits(units []*entUnit) []*Entity {
	retick := ew.retickScratch[:0]
	for _, u := range units {
		ew.counters = ew.counters.Add(u.counters)
		for cp, n := range u.chunkMoved {
			cu := ew.chunkUpdates[cp]
			cu.Moved += n
			ew.chunkUpdates[cp] = cu
		}
		for _, m := range u.moves {
			ew.index.move(m.e, m.to)
		}
		ew.exBuf = append(ew.exBuf, u.explosions...)
		retick = append(retick, u.retick...)
	}
	ew.retickScratch = retick
	return retick
}

// flushExplosions emits the tick's buffered detonations to explosionsDue in
// entity-ID order — the serial loop's append order — regardless of which
// schedule (serial, unit worker, re-tick pass) buffered them.
func (ew *World) flushExplosions() {
	if len(ew.exBuf) == 0 {
		return
	}
	sort.Slice(ew.exBuf, func(i, j int) bool { return ew.exBuf[i].id < ew.exBuf[j].id })
	for _, x := range ew.exBuf {
		ew.explosionsDue = append(ew.explosionsDue, x.pos)
	}
	ew.exBuf = ew.exBuf[:0]
}

// ApplyExplosionImpulses applies blast impulses for a whole detonation
// batch, and is the one place the entity store still partitions space,
// because here the dependency is real (two blasts in reach of one entity
// must hit it in batch order): centers partition into groups whose bucket scans cannot overlap
// (components at Chebyshev chunk distance <= 2×reach, where reach is the
// blast radius in chunks rounded up), each group processes its centers in
// original batch order, and group counters merge afterwards. An entity is
// scanned by at most one group, so its velocity accumulates in exactly the
// serial per-center order; with few centers, few workers or one group, the
// batch runs serially unchanged.
func (ew *World) ApplyExplosionImpulses(centers []world.Pos, radius float64) {
	if ew.workers < 2 || len(centers) < minParallelImpulses {
		for _, c := range centers {
			ew.ApplyExplosionImpulse(c, radius)
		}
		return
	}

	// Group centers by chunk-distance components (the shared flood fill,
	// over scratch reused across ticks — TNT storms hit this every tick).
	// reach is how many chunk columns a scan's bounding square can extend
	// from the center's chunk.
	reach := int32(int(radius)/world.ChunkSize + 1)
	if ew.impulseScratch == nil {
		ew.impulseScratch = make(map[world.ChunkPos]int32, 32)
	}
	clear(ew.impulseScratch)
	chunkGroup := ew.impulseScratch
	for _, c := range centers {
		chunkGroup[world.ChunkPosAt(c)] = -1
	}
	nGroups := int(world.LabelComponents(chunkGroup, 2*reach, nil))
	if nGroups < 2 {
		for _, c := range centers {
			ew.ApplyExplosionImpulse(c, radius)
		}
		return
	}

	// Second pass over the original slice keeps each group's centers in
	// batch order.
	for len(ew.impulseCenters) < nGroups {
		ew.impulseCenters = append(ew.impulseCenters, nil)
	}
	groupCenters := ew.impulseCenters[:nGroups]
	for i := range groupCenters {
		groupCenters[i] = groupCenters[i][:0]
	}
	for _, c := range centers {
		gid := chunkGroup[world.ChunkPosAt(c)]
		groupCenters[gid] = append(groupCenters[gid], c)
	}
	for len(ew.impulseCounters) < nGroups {
		ew.impulseCounters = append(ew.impulseCounters, Counters{})
	}
	groupCounters := ew.impulseCounters[:nGroups]
	for i := range groupCounters {
		groupCounters[i] = Counters{}
	}
	world.Parallel(ew.workers, nGroups, func(i int) {
		for _, c := range groupCenters[i] {
			ew.applyImpulse(c, radius, &groupCounters[i])
		}
	})
	for i := range groupCounters {
		ew.counters = ew.counters.Add(groupCounters[i])
	}
}

// Add returns the component-wise sum of c and o — the merge operation for
// per-unit and per-group counters.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		MobTicks:      c.MobTicks + o.MobTicks,
		ItemTicks:     c.ItemTicks + o.ItemTicks,
		TNTTicks:      c.TNTTicks + o.TNTTicks,
		InactiveSkips: c.InactiveSkips + o.InactiveSkips,
		PathNodes:     c.PathNodes + o.PathNodes,
		Repaths:       c.Repaths + o.Repaths,
		Collisions:    c.Collisions + o.Collisions,
		SpawnAttempts: c.SpawnAttempts + o.SpawnAttempts,
		Spawns:        c.Spawns + o.Spawns,
		Despawns:      c.Despawns + o.Despawns,
		Moved:         c.Moved + o.Moved,
	}
}

// ParallelStats describes how the store has been scheduling its ticks — the
// attribution surface for the server's tick records, mirroring
// sim.ParallelStats.
type ParallelStats struct {
	// Workers is the resolved worker count (Config.Workers, or GOMAXPROCS).
	Workers int
	// LastRegions is the number of work units (contiguous ID ranges) the
	// last tick's entity loop was cut into (0 when it ran serially). The name
	// is kept for the tick-record and snapshot surfaces built on it.
	LastRegions int
	// LastParallel reports whether the last tick's entity loop ran on the
	// parallel schedule.
	LastParallel bool
	// ParallelTicks counts ticks run in parallel; FallbackTicks counts
	// parallel ticks in which at least one escaped entity had to be rolled
	// back and re-ticked serially (the tick itself still commits parallel).
	ParallelTicks int64
	FallbackTicks int64
}

// ParallelStats returns the store's scheduling attribution counters.
func (ew *World) ParallelStats() ParallelStats {
	return ParallelStats{
		Workers:       ew.workers,
		LastRegions:   ew.lastRegions,
		LastParallel:  ew.lastParallel,
		ParallelTicks: ew.parallelTicks,
		FallbackTicks: ew.fallbackTicks,
	}
}
