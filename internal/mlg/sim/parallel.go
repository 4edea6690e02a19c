package sim

// Region-parallel drain scheduling.
//
// The serial drain processes one global FIFO: pop the oldest update, apply
// its rule, append whatever the rule enqueues. Everything externally visible
// — entity-spawn requests (which consume entity IDs and RNG), scheduled
// future updates, block-change events fanned to listeners, leftover queue
// contents — inherits that global pop order. A bit-identical parallel
// schedule therefore needs two things:
//
//  1. Region independence: updates in different regions must touch disjoint
//     memory, so each region's local FIFO evolves exactly as the serial
//     FIFO restricted to that region would (region.go's partition gives
//     this, and regionRun.setBlock aborts the attempt if a cascade ever
//     tries to write outside its region's owned chunks).
//
//  2. Order reconstruction: after the regions drain, the serial pop order
//     is recomputed without re-running any rule. Each region logs, per pop,
//     how many children it appended to each queue and how many effect
//     events it emitted. Replaying a virtual FIFO of region tags — seeded
//     with the original interleaved queue order, extended by the logged
//     child counts — yields the exact serial pop sequence, which orders the
//     buffered events and materializes the leftover queues (see
//     buildMergePlan).
//
// If a region escapes its owned set, or the tick's applied updates would
// have hit MaxUpdatesPerTick (whose deferral semantics are order-dependent),
// the attempt rolls back every region's writes (undo logs, still inside the
// world's exclusive phase) and the tick re-runs on the serial path, so the
// parallel schedule never changes observable behaviour — it only changes
// wall-clock time.

import (
	"repro/internal/mlg/world"
)

type eventKind uint8

const (
	evBlockChange eventKind = iota // fan to world listeners at merge
	evSpawnTNT                     // EntityOps.SpawnPrimedTNT
	evSpawnItem                    // EntityOps.SpawnItem
	evSchedule                     // append to Engine.scheduled
)

// event is one buffered externally visible effect of a region drain,
// replayed at merge time in the reconstructed serial order.
type event struct {
	kind eventKind
	pos  world.Pos
	old  world.Block // evBlockChange
	nb   world.Block // evBlockChange
	i1   int64       // fuse ticks / item BlockID / absolute due tick
	upd  updateKind  // evSchedule
	val  uint8       // evSchedule
}

// logRec describes one queue pop of a region drain: whether the update was
// applied (vs re-routed to the redstone queue), and how many children and
// events its processing produced. Counts are uint16: one rule application
// enqueues at most a few dozen children.
type logRec struct {
	applied bool
	np      uint16 // children appended to the pending queue
	nr      uint16 // children appended to the redstone queue
	ne      uint16 // effect events emitted
}

// undoRec records one chunk write for rollback. The pre-write light horizon
// is always captured so rollback restores the exact lighting state even
// when the write triggered a column recompute.
type undoRec struct {
	c       *world.Chunk
	lx, lz  uint8
	y       uint16
	old     world.Block
	horizon uint8
}

// regionRun is one region's drain execution: its share of the tick's queues,
// its private counters and caches, and the logs the merge replays.
type regionRun struct {
	key   world.ChunkPos
	comp  int32                       // flood-fill component id, carried across the key sort
	owned map[world.ChunkPos]struct{} // core chunks plus one-chunk halo

	pendingQ  []scheduledUpdate
	redstoneQ []scheduledUpdate
	pendPops  int // pendingQ entries popped (phase 1)
	redPops   int // redstoneQ entries popped (phase 2, even ticks)

	cache    world.ChunkCache
	counters Counters
	log      []logRec
	events   []event
	undo     []undoRec
	// wireSeen is the region's RedstoneBatch dedup map: within a tick a wire
	// belongs to exactly one region, and entries never carry across ticks
	// (reset clears it).
	wireSeen map[world.Pos]int64
	// setCount and lightScans mirror what World.SetBlock would have added
	// to the world counters; merged via AddMutationStats.
	setCount   int
	lightScans int
	// escaped marks a write outside the owned set: the whole tick's
	// parallel attempt aborts and re-runs serially.
	escaped bool
}

// setBlock is the region-context write path: the World.SetBlock semantics
// (bounds, chunk set, conditional column-light recompute, stats, change
// notification) applied directly to the owned chunk under the world's
// exclusive phase, with an undo record for rollback. The engine-listener
// cascade (neighbour queueing, observer pulses) runs inline on the region
// context; the other listeners get the buffered change event at merge.
func (r *regionRun) setBlock(x *exec, p world.Pos, b world.Block) {
	if r.escaped {
		return
	}
	if p.Y < 0 || p.Y >= world.Height {
		return
	}
	cp := world.ChunkPosAt(p)
	if _, ok := r.owned[cp]; !ok {
		// Cross-region effect: a cascade is trying to leave the region.
		r.escaped = true
		return
	}
	c := r.cache.Chunk(cp)
	if c == nil {
		// Writing an unloaded chunk would generate terrain, which only the
		// serial path may do (generation mutates the chunk index).
		r.escaped = true
		return
	}
	lx, lz := world.ChunkLocal(p)
	r.undo = append(r.undo, undoRec{
		c: c, lx: uint8(lx), lz: uint8(lz), y: uint16(p.Y),
		old: c.At(lx, p.Y, lz), horizon: uint8(c.LightHorizon(lx, lz)),
	})
	old := c.Set(lx, p.Y, lz, b)
	r.setCount++
	if old.IsOpaque() != b.IsOpaque() && p.Y >= c.LightHorizon(lx, lz)-1 {
		r.lightScans += c.RecomputeColumnLight(lx, lz)
	}
	if old != b {
		r.events = append(r.events, event{kind: evBlockChange, pos: p, old: old, nb: b})
		x.queueNeighbors(p)
		x.notifyObservers(p)
	}
}

// rollback undoes every chunk write of the region in reverse order. Chunk
// revisions stay advanced (they are monotonic cache keys, and the restored
// contents re-encode to identical payloads); cells, occupancy and light
// horizons return to their exact pre-tick state.
func (r *regionRun) rollback() {
	for i := len(r.undo) - 1; i >= 0; i-- {
		u := r.undo[i]
		u.c.Set(int(u.lx), int(u.y), int(u.lz), u.old)
		u.c.SetLightHorizon(int(u.lx), int(u.lz), int(u.horizon))
	}
}

// run drains the region's queues: the plain queue first, then — on redstone
// ticks — the logic-component queue, mirroring the serial phase order.
// Budgets are not enforced here; the merge aborts the tick if the combined
// applied count would have hit the serial cap.
func (r *regionRun) run(x *exec, evenTick bool) {
	r.drainQueue(x, &r.pendingQ, &r.pendPops, false)
	if evenTick && !r.escaped {
		r.drainQueue(x, &r.redstoneQ, &r.redPops, true)
	}
}

// drainQueue is the region analogue of exec.drain: cursor-based pops (the
// full queue contents are needed later to materialize leftovers in the
// merge), one log record per pop.
func (r *regionRun) drainQueue(x *exec, q *[]scheduledUpdate, pops *int, redstoneAllowed bool) {
	for *pops < len(*q) && !r.escaped {
		u := (*q)[*pops]
		*pops++
		if !redstoneAllowed {
			if b, loaded := x.wc.BlockIfLoaded(u.pos); loaded && b.IsRedstoneComponent() {
				*x.redstone = append(*x.redstone, u)
				r.log = append(r.log, logRec{applied: false})
				continue
			}
		}
		np0, nr0, ne0 := len(r.pendingQ), len(r.redstoneQ), len(r.events)
		x.apply(u)
		r.log = append(r.log, logRec{
			applied: true,
			np:      uint16(len(r.pendingQ) - np0),
			nr:      uint16(len(r.redstoneQ) - nr0),
			ne:      uint16(len(r.events) - ne0),
		})
	}
}

// mergePlan is the virtual-queue replay: its working memory — engine-owned,
// cleared per use — and, once buildMergePlan has validated it, its outcome:
// the effect events in serial order and the tag sequences of the leftover
// queues, which applyMergePlan materializes from the cursors.
type mergePlan struct {
	regions []*regionRun
	applied int

	vp, vr   []int32 // virtual pending / redstone queues of region tags
	leftover []int32 // even ticks: pending-queue children of the redstone drain
	logIdx   []int   // per region: next log record
	pIdx     []int   // per region: virtual cursor into pendingQ
	rIdx     []int   // per region: virtual cursor into redstoneQ
	evIdx    []int   // per region: next event

	events   []*event
	pendTags []int32 // leftover e.pending, materialized from pIdx
	redTags  []int32 // leftover e.redstonePending, materialized from rIdx
}

// tryParallelDrains attempts to drain this tick's queues on the region-
// parallel schedule. It returns true when the tick was drained and merged
// (bit-identically to the serial drain); false leaves the engine's queues
// and the world untouched so the caller runs the serial path.
func (e *Engine) tryParallelDrains(budget int) bool {
	e.lastParallel = false
	e.lastRegions = 0
	if e.workers < 2 {
		return false
	}
	if e.serialHold > 0 {
		e.serialHold--
		return false
	}
	evenTick := e.tick%2 == 0
	// Updates that would actually drain this tick: on odd ticks the
	// redstone queue only accumulates, so it earns no parallelism.
	active := len(e.pending)
	if evenTick {
		active += len(e.redstonePending)
	}
	if active < minParallelUpdates {
		return false
	}
	// Budget pressure at tick start: the serial cap's deferral order is not
	// reproducible region-locally, so stay serial outright.
	if len(e.pending)+len(e.redstonePending) >= budget {
		return false
	}

	regions, vpInit, vrInit, nComps := e.partitionRegions(2)
	e.lastRegions = nComps
	if regions == nil {
		// Single region (or none): nothing to parallelize. The region
		// structure rarely changes tick to tick, so hold the serial path
		// for a few ticks instead of re-partitioning a dense single-cluster
		// workload on every one — partition cost must not inflate the tick
		// times this reproduction measures.
		e.serialHold = 8
		return false
	}

	// Size the fan-out by the work available: one worker per minUnitUpdates
	// queue entries the regions will actually drain this tick, so a light
	// tick starts only the goroutines its work needs.
	total := 0
	for _, r := range regions {
		total += len(r.pendingQ) + 1
		if evenTick {
			total += len(r.redstoneQ)
		}
	}

	// Exclusive phase: the world lock is held across the drains, standing
	// in for the serial drain's per-SetBlock lock acquisitions. External
	// readers block exactly as they would behind a serial update storm;
	// workers never touch the lock (their caches resolve from the frozen
	// chunk index) and never touch each other's chunks.
	index := e.w.BeginExclusive()
	world.Parallel(min(e.workers, max(1, total/minUnitUpdates)), len(regions), func(i int) {
		r := regions[i]
		r.cache = world.NewFixedChunkCache(index)
		x := &exec{
			e:        e,
			wc:       &r.cache,
			counters: &r.counters,
			pending:  &r.pendingQ,
			redstone: &r.redstoneQ,
			region:   r,
		}
		if e.cfg.RedstoneBatch {
			if r.wireSeen == nil {
				r.wireSeen = make(map[world.Pos]int64)
			}
			x.wireSeen = r.wireSeen
		}
		r.run(x, evenTick)
	})

	abort := false
	for _, r := range regions {
		if r.escaped {
			abort = true
		}
	}
	if !abort {
		abort = !e.buildMergePlan(regions, vpInit, vrInit, evenTick, budget)
	}
	if abort {
		// Still inside the exclusive phase: restore every chunk, then let
		// the serial drain redo the tick over the untouched engine queues.
		for _, r := range regions {
			r.rollback()
		}
		e.w.EndExclusive()
		e.releaseRegionRuns(regions)
		e.fallbackTicks++
		e.serialHold = 8
		return false
	}
	e.w.EndExclusive()

	e.applyMergePlan(regions)
	e.releaseRegionRuns(regions)
	e.lastParallel = true
	e.parallelTicks++
	return true
}

// pop consumes one virtual queue entry of region tag: it advances the
// region's queue cursor and returns its next log record, or false when the
// region logged fewer pops than the replay needs.
func (m *mergePlan) pop(tag int32, fromPending bool) (logRec, bool) {
	if fromPending {
		m.pIdx[tag]++
	} else {
		m.rIdx[tag]++
	}
	log := m.regions[tag].log
	if m.logIdx[tag] >= len(log) {
		return logRec{}, false
	}
	rec := log[m.logIdx[tag]]
	m.logIdx[tag]++
	return rec, true
}

// expand replays one applied update: its pending children join pendSink, its
// redstone children the virtual redstone queue, and its events the plan.
func (m *mergePlan) expand(tag int32, rec logRec, pendSink *[]int32) {
	m.applied++
	for i := 0; i < int(rec.np); i++ {
		*pendSink = append(*pendSink, tag)
	}
	for i := 0; i < int(rec.nr); i++ {
		m.vr = append(m.vr, tag)
	}
	evs := m.regions[tag].events
	for i := 0; i < int(rec.ne); i++ {
		m.events = append(m.events, &evs[m.evIdx[tag]])
		m.evIdx[tag]++
	}
}

// buildMergePlan replays the virtual queues to reconstruct the serial pop
// order (see the package comment) into e.plan. It returns false if the
// replay detects an inconsistency — a budget overrun or a log/queue mismatch
// — in which case the caller rolls the tick back.
func (e *Engine) buildMergePlan(regions []*regionRun, vpInit, vrInit []int32, evenTick bool, budget int) bool {
	m := &e.plan
	n := len(regions)
	m.regions, m.applied = regions, 0
	m.vp = append(m.vp[:0], vpInit...)
	m.vr = append(m.vr[:0], vrInit...)
	m.leftover = m.leftover[:0]
	m.logIdx, m.pIdx = zeroed(m.logIdx, n), zeroed(m.pIdx, n)
	m.rIdx, m.evIdx = zeroed(m.rIdx, n), zeroed(m.evIdx, n)
	m.events = m.events[:0]
	m.pendTags, m.redTags = nil, nil

	// Phase 1: the pending-queue drain. The budget guard mirrors the
	// serial loop condition exactly (`for head < len(queue) && budget > 0`):
	// once the applied count reaches the budget, the serial drain stops
	// popping entirely — including pops that would only re-route — so any
	// further virtual pop means the tick is not reconstructible and must
	// roll back.
	for h := 0; h < len(m.vp); h++ {
		if m.applied >= budget {
			return false
		}
		tag := m.vp[h]
		rec, ok := m.pop(tag, true)
		if !ok {
			return false
		}
		if !rec.applied {
			m.vr = append(m.vr, tag) // re-routed to the redstone queue
			continue
		}
		m.expand(tag, rec, &m.vp)
	}
	for i, r := range regions {
		if m.pIdx[i] != r.pendPops {
			return false
		}
	}

	if evenTick {
		// Phase 2: the redstone drain. Children routed to the pending queue
		// are this tick's leftovers, kept in pop order.
		for h := 0; h < len(m.vr); h++ {
			if m.applied >= budget {
				return false // serial would stop popping here
			}
			tag := m.vr[h]
			rec, ok := m.pop(tag, false)
			if !ok || !rec.applied {
				return false
			}
			m.expand(tag, rec, &m.leftover)
		}
		for i, r := range regions {
			if m.rIdx[i] != r.redPops || m.logIdx[i] != len(r.log) || m.evIdx[i] != len(r.events) {
				return false
			}
		}
		m.pendTags = m.leftover
	} else {
		// Odd tick: the redstone queue was not drained; its reconstructed
		// interleaving becomes the new queue.
		for i, r := range regions {
			if r.redPops != 0 || m.logIdx[i] != len(r.log) || m.evIdx[i] != len(r.events) {
				return false
			}
		}
		m.redTags = m.vr
	}
	return true
}

// materialize converts a tag sequence into concrete updates, appended to
// dst, by walking each region's queue from its cursor: the k-th tag for
// region r corresponds to the k-th not-yet-consumed entry of r's queue,
// because tags were appended to the virtual queue in the same order the
// region appended entries to its local queue.
func materialize(dst []scheduledUpdate, regions []*regionRun, tags []int32, cursor []int, queueOf func(*regionRun) []scheduledUpdate) []scheduledUpdate {
	for _, tag := range tags {
		q := queueOf(regions[tag])
		dst = append(dst, q[cursor[tag]])
		cursor[tag]++
	}
	return dst
}

// applyMergePlan commits a successful parallel drain: counters and world
// stats are summed (order-free), buffered effects replay in the
// reconstructed serial order, and the leftover queues are written into the
// engine's own queue buffers — every entry of the drained queues lives on in
// a region copy, so the retained arrays are free to overwrite. Runs after
// EndExclusive — listeners and the entity store take their own locks.
func (e *Engine) applyMergePlan(regions []*regionRun) {
	plan := &e.plan
	sets, light := 0, 0
	for _, r := range regions {
		sets += r.setCount
		light += r.lightScans
		e.counters = e.counters.Add(r.counters)
	}
	e.w.AddMutationStats(sets, light)

	// Replay effects in serial order. merging makes the engine's own
	// change listener maintain only the spawner/hopper sets: the regions
	// already queued their cascades.
	e.merging = true
	for _, ev := range plan.events {
		switch ev.kind {
		case evBlockChange:
			e.w.EmitChange(ev.pos, ev.old, ev.nb)
		case evSpawnTNT:
			e.ents.SpawnPrimedTNT(ev.pos, int(ev.i1))
		case evSpawnItem:
			e.ents.SpawnItem(ev.pos, world.BlockID(ev.i1))
		case evSchedule:
			e.scheduled[ev.i1] = append(e.scheduled[ev.i1],
				scheduledUpdate{pos: ev.pos, kind: ev.upd, val: ev.val})
		}
	}
	e.merging = false

	e.pending = materialize(e.pending[:0], regions, plan.pendTags, plan.pIdx,
		func(r *regionRun) []scheduledUpdate { return r.pendingQ })
	e.redstonePending = materialize(e.redstonePending[:0], regions, plan.redTags, plan.rIdx,
		func(r *regionRun) []scheduledUpdate { return r.redstoneQ })
}
