// Package sim implements the terrain simulation of the MLG engine — the
// Terrain Simulation element of the paper's operational model (Figure 4,
// component 5) and the environment-based workload sources of §2.2.2:
// gravity physics, fluid flow, plant growth, lighting recomputation, and the
// redstone-like logic components that simulated constructs (farms, lag
// machines) are built from.
//
// Simulation is driven by terrain state updates: every block change queues
// neighbour updates, rules applied to those neighbours may change more
// blocks, and the cascade continues — the sequential, hard-to-parallelize
// propagation the paper's bridge example describes (§2.3). Logic components
// run on redstone ticks (every second game tick), which is what makes
// redstone-heavy constructs alternate between heavy and light game ticks —
// the mechanism behind the Lag workload's extreme Instability Ratio (§5.3).
//
// The engine can drain independent simulation regions on a worker pool
// (Config.SimWorkers); region.go builds the partition and parallel.go proves
// the schedule equivalent to the serial drain by reconstructing the global
// update order at merge time. SimWorkers = 1 drains serially.
package sim

import (
	"runtime"
	"slices"

	"repro/internal/mlg/world"
)

// EntityOps is the entity-world surface the terrain simulation needs:
// terrain rules spawn entities (primed TNT, item drops, spawner mobs) and
// hoppers absorb item entities. The server wires its entity store in here.
type EntityOps interface {
	// SpawnPrimedTNT creates an ignited TNT entity with the given fuse.
	SpawnPrimedTNT(p world.Pos, fuseTicks int)
	// SpawnItem creates an item entity for the given block type.
	SpawnItem(p world.Pos, item world.BlockID)
	// SpawnMob creates a hostile mob (used by spawner blocks).
	SpawnMob(p world.Pos)
	// CollectItems removes item entities within radius of p and returns how
	// many were absorbed (hopper intake).
	CollectItems(p world.Pos, radius float64) int
}

// Counters accumulates the terrain-simulation work performed during one game
// tick, in operation counts. The server converts these to cost-model
// microseconds and to the Figure 11 tick-distribution categories.
type Counters struct {
	// BlockUpdates counts simulation-rule applications ("Block Update").
	BlockUpdates int
	// RedstoneOps counts logic-component evaluations (subset of updates).
	RedstoneOps int
	// FluidOps counts fluid spread/drain steps (subset of updates).
	FluidOps int
	// GrowthOps counts plant growth steps (subset of updates).
	GrowthOps int
	// BlockAdds and BlockRemoves count block creations/destructions
	// ("Block Add/Remove").
	BlockAdds    int
	BlockRemoves int
	// Explosions counts explosions processed; ExplosionBlocks the blocks
	// destroyed by them; ExplosionScan the blast-volume cells scanned (the
	// quantity PaperMC's explosion merging reduces).
	Explosions      int
	ExplosionBlocks int
	ExplosionScan   int
	// LightScans counts blocks scanned by lighting recomputation.
	LightScans int
	// RandomTicks counts random-tick samples taken.
	RandomTicks int
	// Backlog is the number of queued updates deferred to the next tick by
	// the per-tick update cap.
	Backlog int
}

// Config tunes the simulation engine, including the flavor-dependent
// optimizations PaperMC applies (Appendix A).
type Config struct {
	// RandomTickRate is random-tick samples per loaded chunk per game tick
	// (plant growth driver). Minecraft's default is 3.
	RandomTickRate int
	// MaxUpdatesPerTick caps rule applications per game tick; excess queues
	// to the next tick (overload backpressure).
	MaxUpdatesPerTick int
	// RedstoneBatch dedupes redundant wire recomputations within a tick
	// (a PaperMC optimization; reduces Lag/Farm update counts).
	RedstoneBatch bool
	// ExplosionMerge batches simultaneous explosions so overlapping blast
	// volumes are scanned once (a PaperMC TNT optimization).
	ExplosionMerge bool
	// SimWorkers is the number of goroutines draining independent simulation
	// regions per tick. 0 means GOMAXPROCS; 1 drains serially (the
	// differential-testing baseline). Whatever the value, results are
	// bit-identical to the serial drain: parallel.go merges region output in
	// the reconstructed serial order and falls back to the serial path when
	// a tick cannot be proven independent.
	SimWorkers int
	// Owns, when non-nil, is the shard-mode ownership filter: the engine
	// simulates only chunks for which it returns true. Updates targeting
	// unowned chunks are never enqueued, spawners/hoppers in unowned chunks
	// never fire, unowned chunks take no random ticks, and explosions do not
	// destroy unowned blocks (the blast volume is still scanned, so scan
	// counters sum across shards to the single-shard value). Every draw the
	// simulation makes is keyed by position and tick (streams.go), so the
	// owned subset evolves bit-identically to the same chunks in a
	// single-shard run as long as no cascade crosses an ownership boundary.
	// nil owns everything (the single-process default).
	Owns func(world.ChunkPos) bool
}

// DefaultConfig returns vanilla-like settings.
func DefaultConfig() Config {
	return Config{
		RandomTickRate:    3,
		MaxUpdatesPerTick: 200_000,
		RedstoneBatch:     false,
		ExplosionMerge:    false,
	}
}

type updateKind uint8

const (
	updateNeighbor      updateKind = iota // re-evaluate the block's rule
	updateObserverClear                   // end an observer pulse
	updateObserverFire                    // observer saw its watched block change
	updateRepeaterFire                    // repeater output fires after its delay
	updatePistonRetract                   // piston pulls back
	updateIgnite                          // ignite TNT at the position
)

type scheduledUpdate struct {
	pos  world.Pos
	kind updateKind
	// val carries latched state for delayed component updates (a repeater
	// locks in its output change when it schedules it, like Minecraft's).
	val uint8
}

// Engine is the terrain-simulation state machine for one world.
type Engine struct {
	w *world.World
	// wc is the engine's chunk-pointer cache: rule application, explosion
	// scans and queue routing read blocks through it so repeated same-chunk
	// access skips the world lock and chunk-map hash.
	wc   world.ChunkCache
	ents EntityOps
	cfg  Config
	// seed keys every random draw the rules make (streams.go).
	seed int64
	// workers is the resolved SimWorkers value (0 → GOMAXPROCS at creation).
	workers int

	tick int64
	// pending is the neighbour-update queue for the current/next game tick.
	pending []scheduledUpdate
	// redstonePending holds logic-component updates; they are only drained
	// on redstone ticks (every second game tick).
	redstonePending []scheduledUpdate
	// scheduled maps future tick numbers to their due updates; spareDue is
	// a consumed list, emptied, for the next due tick (scheduleAt).
	scheduled map[int64][]scheduledUpdate
	spareDue  []scheduledUpdate
	// spawners tracks spawner block positions for periodic activation;
	// hoppers tracks hopper positions for item collection. The sorted
	// views are cached (invalidated on mutation in trackSpecial) because
	// both sets are walked every redstone tick but change only on block
	// add/remove.
	spawners       map[world.Pos]struct{}
	hoppers        map[world.Pos]struct{}
	spawnersSorted []world.Pos
	hoppersSorted  []world.Pos
	// wireSeen tracks per-tick wire recomputations when RedstoneBatch is
	// on: value = tick<<2 | count, allowing up to two evaluations per wire
	// per tick (the optimizer removes *redundant* re-walks, it cannot make
	// a pathological update storm free).
	wireSeen map[world.Pos]int64

	counters Counters
	// suppress stops the change listener from self-queueing while the
	// engine itself mutates blocks in bulk (explosions handle their own
	// propagation).
	suppress bool
	// merging marks the parallel-merge replay: region drains already queued
	// their own cascades, so the change listener must only maintain the
	// spawner/hopper sets while buffered events are re-emitted to the
	// world's other listeners.
	merging bool

	// root is the engine's own execution context: the serial drains, random
	// ticks and explosions all run through it, reading and writing the
	// engine fields above exactly as the pre-region-split engine did.
	root exec

	// Parallel-schedule scratch, reused across ticks: the partitioner's and
	// the merge replay's working memory, and pooled region shells.
	part       partitionScratch
	plan       mergePlan
	regionPool []*regionRun

	// Parallel-schedule attribution (see ParallelStats).
	lastRegions   int
	lastParallel  bool
	parallelTicks int64
	fallbackTicks int64
	// serialHold suppresses parallel attempts for a few ticks after a
	// rolled-back one: an escaping cascade usually keeps escaping on the
	// following ticks, and every aborted attempt costs a full drain plus
	// rollback on top of the serial re-run. Tick-count based, so scheduling
	// stays deterministic.
	serialHold int

	// ItemsCollected counts hopper absorptions for farm-throughput reports.
	ItemsCollected int64
}

// exec is one drain-execution context. The engine's root context aliases the
// engine's own queues, counters and chunk cache (the serial path); a
// region context owns region-local queues and buffers every externally
// visible effect (entity spawns, future schedules, listener events) for the
// deterministic merge. Rule code is written once against exec, so the serial
// and parallel paths cannot drift apart.
type exec struct {
	e        *Engine
	wc       *world.ChunkCache
	counters *Counters
	pending  *[]scheduledUpdate
	redstone *[]scheduledUpdate
	wireSeen map[world.Pos]int64
	region   *regionRun // nil for the engine's root (serial) context
}

// setBlock stores a block through the context: the root context goes through
// the world (listeners fire synchronously, exactly as before); a region
// context writes the chunk directly under the exclusive phase and records
// the undo entry plus the replayable change event.
func (x *exec) setBlock(p world.Pos, b world.Block) {
	if r := x.region; r != nil {
		r.setBlock(x, p, b)
		return
	}
	x.e.w.SetBlock(p, b)
}

// spawnPrimedTNT and spawnItem route entity-spawn requests: direct
// on the root context, buffered as ordered events on a region context so the
// entity store's IDs and RNG are consumed in the reconstructed serial order.
func (x *exec) spawnPrimedTNT(p world.Pos, fuseTicks int) {
	if r := x.region; r != nil {
		r.events = append(r.events, event{kind: evSpawnTNT, pos: p, i1: int64(fuseTicks)})
		return
	}
	x.e.ents.SpawnPrimedTNT(p, fuseTicks)
}

func (x *exec) spawnItem(p world.Pos, item world.BlockID) {
	if r := x.region; r != nil {
		r.events = append(r.events, event{kind: evSpawnItem, pos: p, i1: int64(item)})
		return
	}
	x.e.ents.SpawnItem(p, item)
}

// New creates an engine bound to the world and entity store, seeded
// deterministically, and registers its change listener on the world.
func New(w *world.World, ents EntityOps, cfg Config, seed int64) *Engine {
	e := &Engine{
		w:         w,
		wc:        world.NewChunkCache(w),
		ents:      ents,
		cfg:       cfg,
		seed:      seed,
		scheduled: make(map[int64][]scheduledUpdate),
		spawners:  make(map[world.Pos]struct{}),
		hoppers:   make(map[world.Pos]struct{}),
		wireSeen:  make(map[world.Pos]int64),
	}
	e.workers = cfg.SimWorkers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.root = exec{
		e:        e,
		wc:       &e.wc,
		counters: &e.counters,
		pending:  &e.pending,
		redstone: &e.redstonePending,
		wireSeen: e.wireSeen,
	}
	w.OnChange(e.onBlockChange)
	return e
}

// owns reports whether the engine owns the chunk containing p (shard-mode
// ownership filter; always true without a Config.Owns predicate).
func (e *Engine) owns(p world.Pos) bool {
	return e.cfg.Owns == nil || e.cfg.Owns(world.ChunkPosAt(p))
}

// ownsChunk is owns for an already-resolved chunk column.
func (e *Engine) ownsChunk(cp world.ChunkPos) bool {
	return e.cfg.Owns == nil || e.cfg.Owns(cp)
}

// onBlockChange queues neighbour updates for every terrain mutation — the
// "terrain simulation is driven by terrain state updates" loop of §2.3.
func (e *Engine) onBlockChange(p world.Pos, old, new world.Block) {
	if e.suppress {
		return
	}
	e.trackSpecial(p, new)
	if e.merging {
		// Parallel-merge replay: the region drains queued their own
		// cascades; only the spawner/hopper bookkeeping above applies.
		return
	}
	e.root.blockChanged(p)
}

// trackSpecial maintains the spawner/hopper position sets.
func (e *Engine) trackSpecial(p world.Pos, b world.Block) {
	switch b.ID {
	case world.Spawner:
		if _, ok := e.spawners[p]; !ok {
			e.spawners[p] = struct{}{}
			e.spawnersSorted = nil
		}
	case world.Hopper:
		if _, ok := e.hoppers[p]; !ok {
			e.hoppers[p] = struct{}{}
			e.hoppersSorted = nil
		}
	default:
		if _, ok := e.spawners[p]; ok {
			delete(e.spawners, p)
			e.spawnersSorted = nil
		}
		if _, ok := e.hoppers[p]; ok {
			delete(e.hoppers, p)
			e.hoppersSorted = nil
		}
	}
}

// blockChanged is the engine's reaction to a block change at p: the
// neighbour updates, then the observer pulses, both read from one stencil
// taken after the write.
func (x *exec) blockChanged(p world.Pos) {
	var s world.Stencil
	x.queueNeighbors(p, &s)
	x.notifyObservers(p, &s)
}

// queueNeighbors reads p's stencil into s and enqueues rule re-evaluation
// for p and then its six neighbours. Logic components go on the redstone
// queue.
func (x *exec) queueNeighbors(p world.Pos, s *world.Stencil) {
	x.wc.Stencil(p, s)
	x.enqueue(scheduledUpdate{pos: p, kind: updateNeighbor}, s.Block, s.Loaded)
	ns := p.Neighbors6()
	for d := range ns {
		x.enqueue(scheduledUpdate{pos: ns[d], kind: updateNeighbor}, s.Nb[d], s.NbLoaded[d])
	}
}

// enqueue routes u by the block b currently at its position.
func (x *exec) enqueue(u scheduledUpdate, b world.Block, loaded bool) {
	if !loaded || !x.e.owns(u.pos) {
		return
	}
	if b.IsRedstoneComponent() {
		*x.redstone = append(*x.redstone, u)
	} else {
		*x.pending = append(*x.pending, u)
	}
}

// notifyObservers pulses any observer, among the neighbours in changed's
// stencil s, that faces the changed position.
func (x *exec) notifyObservers(changed world.Pos, s *world.Stencil) {
	for d, b := range s.Nb {
		if !s.NbLoaded[d] || b.ID != world.Observer {
			continue
		}
		op := world.Direction(d).Move(changed)
		if !x.e.owns(op) {
			continue
		}
		// The observer fires only if it faces the changed block. A dedicated
		// update kind distinguishes "watched block changed" from ordinary
		// neighbour updates, so an observer's own pulse block-change cannot
		// retrigger it.
		if b.Facing().Move(op) == changed && !b.ObserverPulsing() {
			*x.redstone = append(*x.redstone,
				scheduledUpdate{pos: op, kind: updateObserverFire})
		}
	}
}

// schedule queues an update for delayTicks game ticks in the future.
func (x *exec) schedule(p world.Pos, delayTicks int, kind updateKind) {
	x.scheduleVal(p, delayTicks, kind, 0)
}

// scheduleVal queues an update carrying a latched value. Region contexts
// buffer the request as an ordered event; the merge appends them to the
// engine's schedule in the reconstructed serial order, so next-tick
// processing order matches the serial drain exactly.
func (x *exec) scheduleVal(p world.Pos, delayTicks int, kind updateKind, val uint8) {
	if !x.e.owns(p) {
		return
	}
	due := x.e.tick + int64(delayTicks)
	if due <= x.e.tick {
		due = x.e.tick + 1
	}
	if r := x.region; r != nil {
		r.events = append(r.events,
			event{kind: evSchedule, pos: p, i1: due, upd: kind, val: val})
		return
	}
	x.e.scheduleAt(due, scheduledUpdate{pos: p, kind: kind, val: val})
}

// scheduleAt appends u to the updates due at tick due. A due tick's first
// update takes the list Tick consumed last, so steady schedules reuse one
// backing array instead of growing a fresh one per due tick.
func (e *Engine) scheduleAt(due int64, u scheduledUpdate) {
	q, ok := e.scheduled[due]
	if !ok {
		q, e.spareDue = e.spareDue, nil
	}
	e.scheduled[due] = append(q, u)
}

// ScheduleIgnite queues TNT ignition at p after delayTicks — used by
// workload worlds to set off the TNT cuboid ~20 s after start.
func (e *Engine) ScheduleIgnite(p world.Pos, delayTicks int) {
	e.root.schedule(p, delayTicks, updateIgnite)
}

// Sub returns the component-wise difference c - o, used to attribute the
// work of an operation (e.g. an explosion) run between ticks.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		BlockUpdates:    c.BlockUpdates - o.BlockUpdates,
		RedstoneOps:     c.RedstoneOps - o.RedstoneOps,
		FluidOps:        c.FluidOps - o.FluidOps,
		GrowthOps:       c.GrowthOps - o.GrowthOps,
		BlockAdds:       c.BlockAdds - o.BlockAdds,
		BlockRemoves:    c.BlockRemoves - o.BlockRemoves,
		Explosions:      c.Explosions - o.Explosions,
		ExplosionBlocks: c.ExplosionBlocks - o.ExplosionBlocks,
		ExplosionScan:   c.ExplosionScan - o.ExplosionScan,
		LightScans:      c.LightScans - o.LightScans,
		RandomTicks:     c.RandomTicks - o.RandomTicks,
		Backlog:         c.Backlog - o.Backlog,
	}
}

// Add returns the component-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return c.Sub(Counters{}.Sub(o))
}

// Tick runs one game tick of terrain simulation and returns the work
// counters for the tick. A redstone tick runs on every second game tick.
func (e *Engine) Tick() Counters {
	e.counters = Counters{}
	e.tick++
	_, _, lightBefore := e.w.Stats()

	// Due scheduled updates.
	if due, ok := e.scheduled[e.tick]; ok {
		delete(e.scheduled, e.tick)
		for _, u := range due {
			if b, _ := e.wc.BlockIfLoaded(u.pos); b.IsRedstoneComponent() || u.kind != updateNeighbor {
				e.redstonePending = append(e.redstonePending, u)
			} else {
				e.pending = append(e.pending, u)
			}
		}
		// Every entry was copied out above. Within queueRetainEntries, the
		// list becomes the next due tick's (scheduleAt).
		if cap(due) <= queueRetainEntries {
			e.spareDue = due[:0]
		}
	}

	budget := e.cfg.MaxUpdatesPerTick
	if budget <= 0 {
		budget = 200_000
	}

	// Drain the queues: on a region-parallel schedule when the tick's
	// updates partition into independent regions, else serially. The
	// parallel path rolls itself back and reports false if the tick turns
	// out not to be independent (cross-region cascade, budget pressure), so
	// the serial drain below is both the SimWorkers=1 path and the
	// universal fallback.
	if !e.tryParallelDrains(budget) {
		// Drain the plain neighbour queue. Updates whose target turned into
		// a logic component since they were enqueued are re-routed to the
		// redstone queue at drain time.
		budget = e.root.drain(&e.pending, budget, false)

		// Redstone tick: logic components evaluate every second game tick.
		if e.tick%2 == 0 {
			e.root.drain(&e.redstonePending, budget, true)
		}
	}

	if e.tick%2 == 0 {
		e.tickSpawners()
		e.tickHoppers()
		e.purgeWireSeen()
	}

	// Random ticks drive plant growth and similar slow processes.
	e.randomTicks()

	e.pending = trimQueue(e.pending)
	e.redstonePending = trimQueue(e.redstonePending)
	e.counters.Backlog = len(e.pending) + len(e.redstonePending)
	_, _, lightAfter := e.w.Stats()
	e.counters.LightScans += lightAfter - lightBefore
	return e.counters
}

// drain applies updates from the queue until it empties or the budget is
// exhausted; it returns the remaining budget. Updates enqueued during
// processing are handled in the same drain (cascades run to completion
// within the tick, budget permitting). When redstoneAllowed is false,
// updates targeting logic components are deferred to the redstone queue
// instead of applied, preserving the every-other-tick redstone cadence.
//
// Pops advance a cursor and the unconsumed remainder is moved to the front
// afterwards, so the queue keeps its backing array from tick to tick:
// reslicing from the head instead would shed capacity with every pop and
// regrow the whole queue from nothing on the next cascade.
func (x *exec) drain(queue *[]scheduledUpdate, budget int, redstoneAllowed bool) int {
	head := 0
	// *queue is re-read every iteration: apply appends to it and may move it.
	for head < len(*queue) && budget > 0 {
		u := (*queue)[head]
		head++
		b, loaded := x.wc.BlockIfLoaded(u.pos)
		if !redstoneAllowed && loaded && b.IsRedstoneComponent() {
			*x.redstone = append(*x.redstone, u)
			continue
		}
		budget--
		x.apply(u, b, loaded)
	}
	if head > 0 {
		q := *queue
		*queue = q[:copy(q, q[head:])]
	}
	return budget
}

// queueRetainEntries bounds the backing array an update queue keeps across
// ticks (32 B an entry, so 4 MB): above it, a queue that ends a tick less
// than a quarter full gives the array back. An overload backlog peaks at
// millions of entries and then drains; holding that peak for the rest of
// the run would cost more resident memory than the regrowth it saves.
const queueRetainEntries = 128 << 10

// trimQueue applies the retention bound at the end of a tick.
func trimQueue(q []scheduledUpdate) []scheduledUpdate {
	if cap(q) <= queueRetainEntries || len(q) >= cap(q)/4 {
		return q
	}
	if len(q) == 0 {
		return nil
	}
	return append(make([]scheduledUpdate, 0, 2*len(q)), q...)
}

// purgeWireSeen drops stale per-tick wire dedup entries once the map grows
// large. Entries from past ticks behave exactly like absent ones (the lookup
// compares the stored tick), so purging never changes behaviour — it only
// bounds memory on long redstone-heavy runs.
func (e *Engine) purgeWireSeen() {
	if len(e.wireSeen) < 4096 {
		return
	}
	for p, v := range e.wireSeen {
		if v>>2 != e.tick {
			delete(e.wireSeen, p)
		}
	}
}

// TickNumber returns the current game-tick number.
func (e *Engine) TickNumber() int64 { return e.tick }

// PendingUpdates returns the size of the live update backlog.
func (e *Engine) PendingUpdates() int { return len(e.pending) + len(e.redstonePending) }

// ParallelStats describes how the engine has been scheduling its drains —
// the cost-model attribution surface for the server's tick records.
type ParallelStats struct {
	// Workers is the resolved worker count (SimWorkers, or GOMAXPROCS).
	Workers int
	// LastRegions is the region count of the last attempted partition (0
	// when the last tick never partitioned).
	LastRegions int
	// LastParallel reports whether the last tick's drains ran on the
	// region-parallel schedule.
	LastParallel bool
	// ParallelTicks counts ticks drained in parallel; FallbackTicks counts
	// ticks where a parallel attempt aborted (escape or budget pressure)
	// and was rolled back to the serial drain.
	ParallelTicks int64
	FallbackTicks int64
}

// ParallelStats returns the engine's scheduling attribution counters.
func (e *Engine) ParallelStats() ParallelStats {
	return ParallelStats{
		Workers:       e.workers,
		LastRegions:   e.lastRegions,
		LastParallel:  e.lastParallel,
		ParallelTicks: e.parallelTicks,
		FallbackTicks: e.fallbackTicks,
	}
}

// spawnerInterval is the mob-spawner period in ticks.
const spawnerInterval = 40

// tickSpawners activates spawner blocks on their period.
func (e *Engine) tickSpawners() {
	for _, p := range e.sortedSpawners() {
		if !e.owns(p) {
			continue
		}
		// Offset by position hash so spawners do not fire in lockstep. The
		// offset is kept even-aligned because this method only runs on
		// redstone ticks.
		const half = spawnerInterval / 2
		off := 2 * int64(uint64(p.X*73856093^p.Y*19349663^p.Z*83492791)%half)
		if (e.tick+off)%spawnerInterval == 0 {
			e.counters.BlockUpdates++
			e.ents.SpawnMob(p.Up())
		}
	}
}

// tickHoppers makes hoppers absorb item entities above them (every redstone
// tick, approximating the 4-game-tick hopper cooldown).
func (e *Engine) tickHoppers() {
	for _, p := range e.sortedHoppers() {
		if !e.owns(p) {
			continue
		}
		e.counters.BlockUpdates++
		n := e.ents.CollectItems(p.Up(), 1.2)
		e.ItemsCollected += int64(n)
	}
}

// sortedSpawners and sortedHoppers return the sets in a fixed order: spawn
// and collection order feed the entity store's RNG and IDs, so map
// iteration order would make otherwise-identical runs diverge. The sorted
// views are rebuilt only after a mutation.
func (e *Engine) sortedSpawners() []world.Pos {
	if e.spawnersSorted == nil {
		e.spawnersSorted = sortedPositions(e.spawners)
	}
	return e.spawnersSorted
}

func (e *Engine) sortedHoppers() []world.Pos {
	if e.hoppersSorted == nil {
		e.hoppersSorted = sortedPositions(e.hoppers)
	}
	return e.hoppersSorted
}

func sortedPositions(set map[world.Pos]struct{}) []world.Pos {
	out := make([]world.Pos, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.SortFunc(out, world.Pos.Compare)
	return out
}

// randomTicks samples RandomTickRate random blocks per loaded chunk and
// applies growth rules to them. Sampling reads straight off each chunk
// (LoadedChunkRefs) — with thousands of loaded chunks this pass would
// otherwise pay a world-lock acquisition and chunk-map lookup per sample.
// Each chunk's samples come from its own per-tick stream (streams.go), so a
// chunk's growth is a pure function of (seed, chunk, tick): shards skipping
// unowned chunks leave the owned chunks' sequences untouched.
//
// A barren chunk, one whose GrowableCount is zero, is counted, not
// sampled: applyGrowth neither writes nor draws for a block that cannot
// grow, so its samples would change nothing, and since every chunk draws
// from its own stream, skipping its draws shifts no other chunk's.
// RandomTicks still counts the skipped samples, so the modelled clock
// charges them as before.
func (e *Engine) randomTicks() {
	rate := e.cfg.RandomTickRate
	if rate <= 0 {
		return
	}
	for _, c := range e.w.LoadedChunkRefs() {
		if !e.ownsChunk(c.Pos) {
			continue
		}
		if c.GrowableCount() == 0 {
			e.counters.RandomTicks += rate
			continue
		}
		origin := c.Pos.Origin()
		st := chunkStream(e.seed, c.Pos, e.tick)
		for i := 0; i < rate; i++ {
			e.counters.RandomTicks++
			lx := st.Intn(world.ChunkSize)
			y := st.Intn(world.Height)
			lz := st.Intn(world.ChunkSize)
			p := world.Pos{X: origin.X + lx, Y: y, Z: origin.Z + lz}
			e.root.applyGrowth(p, c.At(lx, y, lz), &st)
		}
	}
}
