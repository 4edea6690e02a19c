package entity

import (
	"math/rand"

	"repro/internal/mlg/mrand"
	"repro/internal/mlg/world"
)

// Config tunes the entity world, including the flavor-dependent PaperMC
// optimizations.
type Config struct {
	// MaxEntities caps the total entity population (items beyond the cap
	// are dropped silently, as in production servers under TNT storms).
	MaxEntities int
	// MaxMobs caps the mob population for natural + spawner spawning.
	MaxMobs int
	// ItemLifetimeTicks is how long an item entity lives (Minecraft: 6000).
	ItemLifetimeTicks int
	// MobLifetimeTicks despawns wandering mobs after a while, bounding farm
	// populations.
	MobLifetimeTicks int
	// ActivationRange, when > 0, tick-throttles entities farther than this
	// many blocks from every player to one tick in four — the PaperMC
	// entity-activation optimization. 0 disables throttling (vanilla).
	ActivationRange int
	// PathNodeBudget caps A* node expansions per path computation.
	PathNodeBudget int
	// NaturalSpawning enables ambient mob spawning near players.
	NaturalSpawning bool
	// SpawnAttemptsPerTick is the number of natural-spawn placements tried
	// per tick (each requires a dynamic spawn-point computation, §2.2.3).
	SpawnAttemptsPerTick int
	// ItemMergeCells, when > 0, merges newly dropped items into an existing
	// item entity in the same grid cell of this size — the PaperMC/Spigot
	// item-merge optimization that keeps TNT storms from flooding the
	// entity list.
	ItemMergeCells int
}

// DefaultConfig returns vanilla-like entity settings.
func DefaultConfig() Config {
	return Config{
		MaxEntities:          3000,
		MaxMobs:              60,
		ItemLifetimeTicks:    6000,
		MobLifetimeTicks:     2400,
		ActivationRange:      0,
		PathNodeBudget:       250,
		NaturalSpawning:      true,
		SpawnAttemptsPerTick: 3,
	}
}

// Counters accumulates entity work per tick, in operation counts, for the
// server's cost model and the Figure 11 "Entities" share.
type Counters struct {
	// MobTicks, ItemTicks, TNTTicks count full entity simulation steps by
	// kind; InactiveSkips counts activation-range-throttled steps.
	MobTicks      int
	ItemTicks     int
	TNTTicks      int
	InactiveSkips int
	// PathNodes counts A* node expansions; Repaths counts path
	// recomputations forced by terrain changes.
	PathNodes int
	Repaths   int
	// Collisions counts entity-terrain collision checks.
	Collisions int
	// SpawnAttempts counts dynamic spawn-point computations; Spawns counts
	// entities actually created this tick; Despawns removals.
	SpawnAttempts int
	Spawns        int
	Despawns      int
	// Moved counts entities whose block position changed this tick (each
	// one produces a state-update message to clients).
	Moved int
}

// Add returns the component-wise sum of c and o.
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

// ParallelStats is the retired scheduling attribution of the entity tick.
// Both counters are always 0 since the entity tick is serial; they remain
// only because benchmark/ reads them.
type ParallelStats struct {
	ParallelTicks int64
	FallbackTicks int64
}

// ParallelStats returns the zero attribution; see the type.
func (ew *World) ParallelStats() ParallelStats { return ParallelStats{} }

// World is the entity store and simulator for one game world. It implements
// sim.EntityOps so terrain rules can spawn and consume entities.
type World struct {
	w *world.World
	// wc caches chunk pointers for the entity world's block reads (physics
	// probes, walkability checks), skipping the world lock on same-chunk
	// access. Single-goroutine, like the rest of the store.
	wc world.ChunkCache
	// rng draws from src, a serializable splitmix64 source whose one-word
	// state persists in world snapshots (persist.go): a restored store
	// continues the exact spawn-velocity/natural-spawn sequence of the
	// saved run.
	rng *rand.Rand
	src *mrand.Source
	cfg Config
	// seed is the world seed the per-region decision streams derive from
	// (world.RegionSeed; see rng.go). The store rng above is seeded from the
	// same value but serves only natural-spawn placement.
	seed int64

	list   []*Entity
	byID   map[int64]*Entity
	nextID int64
	mobs   int

	// index buckets live entities by chunk column for proximity queries;
	// tickNum stamps activation marks; grid is the current tick's
	// player-position bucket view.
	index   *spatialIndex
	tickNum int64
	grid    playerGrid

	// chunkUpdates accumulates per-chunk entity state-update counts for the
	// server's interest-managed dissemination (drained every tick).
	chunkUpdates map[world.ChunkPos]ChunkUpdates

	// chunkVersion tracks terrain mutations per chunk for path invalidation.
	chunkVersion map[world.ChunkPos]uint64

	// itemCells maps a merge-grid cell to the item entity last spawned in
	// it, for ItemMergeCells. cellsStale is set when an entity leaves byID
	// (unlink) — the only way an entry goes stale — and cleared by
	// purgeItemCells, which every unlinking pass ends with.
	itemCells  map[world.Pos]int64
	cellsStale bool

	// explosionsDue collects TNT detonations, in entity-ID order, for the
	// server to route to the terrain engine after the entity phase.
	explosionsDue []world.Pos

	counters Counters
}

// NewWorld creates an entity world bound to the terrain, seeded
// deterministically, and registers the terrain-version listener used for
// path invalidation.
func NewWorld(w *world.World, cfg Config, seed int64) *World {
	src := mrand.NewSource(seed)
	ew := &World{
		w:            w,
		wc:           world.NewChunkCache(w),
		rng:          rand.New(src),
		src:          src,
		cfg:          cfg,
		seed:         seed,
		byID:         make(map[int64]*Entity),
		index:        newSpatialIndex(),
		chunkUpdates: make(map[world.ChunkPos]ChunkUpdates),
		chunkVersion: make(map[world.ChunkPos]uint64),
		itemCells:    make(map[world.Pos]int64),
	}
	w.OnChange(func(p world.Pos, old, new world.Block) {
		ew.chunkVersion[world.ChunkPosAt(p)]++
	})
	return ew
}

// Count returns the live entity population.
func (ew *World) Count() int { return len(ew.list) }

// CountByKind returns the population of one entity kind.
func (ew *World) CountByKind(k Type) int {
	n := 0
	for _, e := range ew.list {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Get returns the entity with the given ID, or nil.
func (ew *World) Get(id int64) *Entity { return ew.byID[id] }

// Entities calls fn for every live entity in deterministic (ID) order.
func (ew *World) Entities(fn func(*Entity)) {
	for _, e := range ew.list {
		fn(e)
	}
}

func (ew *World) add(e *Entity) *Entity {
	e2 := ew.insert(e)
	if e2 != nil {
		ew.counters.Spawns++
	}
	return e2
}

// insert places an entity into the store without counting a spawn: add()
// wraps it for fresh spawns; shard handoffs use it directly so arrivals do
// not perturb the Spawns counter (the single-shard run they must sum-match
// never spawned them).
func (ew *World) insert(e *Entity) *Entity {
	if len(ew.list) >= ew.cfg.MaxEntities {
		return nil
	}
	ew.nextID++
	e.ID = ew.nextID
	if e.seedKey == 0 {
		// Spawn identity: a pure function of the spawn position and tick, so
		// decision streams and throttle phases survive shard handoffs and are
		// identical across shard layouts (see rng.go). Handed-off entities
		// arrive with their original key and keep it.
		e.seedKey = spawnSeedKey(ew.seed, e.Pos.BlockPos(), ew.tickNum)
	}
	ew.list = append(ew.list, e)
	ew.byID[e.ID] = e
	e.chunk = world.ChunkPosAt(e.Pos.BlockPos())
	ew.index.add(e)
	ew.noteSpawned(e.chunk)
	if e.Kind == Mob {
		ew.mobs++
	}
	return e
}

// SpawnPrimedTNT implements sim.EntityOps.
func (ew *World) SpawnPrimedTNT(p world.Pos, fuseTicks int) {
	ew.add(&Entity{Kind: PrimedTNT, Pos: Center(p), Fuse: fuseTicks})
}

// SpawnItem implements sim.EntityOps. Ejection velocities draw from the
// spawn block's per-tick stream (rng.go), not the store RNG, so they are
// identical across shard layouts.
func (ew *World) SpawnItem(p world.Pos, item world.BlockID) {
	st := newSpawnStream(ew.seed, p, ew.tickNum)
	vel := Vec3{X: (st.Float64() - 0.5) * 0.2, Y: 0.2, Z: (st.Float64() - 0.5) * 0.2}
	if cs := ew.cfg.ItemMergeCells; cs > 0 {
		cell := world.Pos{X: floorDivInt(p.X, cs), Y: floorDivInt(p.Y, cs), Z: floorDivInt(p.Z, cs)}
		if id, ok := ew.itemCells[cell]; ok {
			if e := ew.byID[id]; e != nil && !e.Dead && e.Kind == Item && e.ItemType == item {
				// Merge into the existing stack: no new entity.
				return
			}
		}
		e := ew.add(&Entity{Kind: Item, Pos: Center(p), ItemType: item, Vel: vel})
		if e != nil {
			ew.itemCells[cell] = e.ID
		}
		return
	}
	ew.add(&Entity{Kind: Item, Pos: Center(p), ItemType: item, Vel: vel})
}

func floorDivInt(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// SpawnMob implements sim.EntityOps.
func (ew *World) SpawnMob(p world.Pos) {
	if ew.mobs >= ew.cfg.MaxMobs {
		return
	}
	ew.add(&Entity{Kind: Mob, Pos: Center(p)})
}

// CollectItems implements sim.EntityOps: hopper intake. The spatial index
// restricts the scan to the chunk columns intersecting the intake radius.
func (ew *World) CollectItems(p world.Pos, radius float64) int {
	center := Center(p)
	n := 0
	ew.forEachNear(center, radius, func(e *Entity) {
		if e.Kind == Item && !e.Dead && e.Pos.Dist(center) <= radius {
			e.Dead = true
			n++
		}
	})
	return n
}

// DrainExplosions returns and clears the TNT detonation positions collected
// during the last Tick. The server routes them to the terrain engine.
func (ew *World) DrainExplosions() []world.Pos {
	out := ew.explosionsDue
	ew.explosionsDue = nil
	return out
}

// ApplyExplosionImpulse applies blast effects to entities around a
// detonation: items near the centre are destroyed, everything else in range
// is knocked away. This is the entity-collision side of the TNT workload.
func (ew *World) ApplyExplosionImpulse(center world.Pos, radius float64) {
	c := Center(center)
	ew.forEachNear(c, radius, func(e *Entity) {
		if e.Dead {
			return
		}
		d := e.Pos.Dist(c)
		if d > radius {
			return
		}
		ew.counters.Collisions++
		if e.Kind == Item && d < radius/2 {
			e.Dead = true
			return
		}
		if d < 0.01 {
			d = 0.01
		}
		strength := (radius - d) / radius
		dir := e.Pos.Sub(c).Scale(1 / d)
		e.Vel = e.Vel.Add(dir.Scale(strength)).Add(Vec3{Y: 0.3 * strength})
	})
}

// ApplyExplosionImpulses applies blast impulses for a whole detonation
// batch, center by center in batch order: two blasts in reach of one entity
// hit it in that order.
func (ew *World) ApplyExplosionImpulses(centers []world.Pos, radius float64) {
	for _, c := range centers {
		ew.ApplyExplosionImpulse(c, radius)
	}
}

// Tick advances every entity one game tick. players gives current player
// positions (for activation ranges, AI targets, and natural spawning). The
// returned counters describe the tick's entity work.
//
// Entities tick one after another in ID order, so the entity loop needs no
// determinism contract of its own: detonations, index rebuckets and lazy
// terrain generation happen in the one order every run repeats.
func (ew *World) Tick(players []Vec3) Counters {
	// Counters are NOT reset here: spawns requested by the terrain phase
	// (which runs before the entity phase within a server tick) must be
	// attributed to this tick. They are taken and reset at the end.

	ew.tickNum++
	ew.grid = newPlayerGrid(players)
	ew.markActive(players)

	for _, e := range ew.list {
		ew.tickEntity(e)
	}

	if ew.cfg.NaturalSpawning && len(players) > 0 {
		ew.naturalSpawns(players)
	}
	ew.compact()
	out := ew.counters
	ew.counters = Counters{}
	return out
}

// tickEntity advances one entity through its game tick: ageing, activation
// throttling, the kind switch, and movement bookkeeping.
func (ew *World) tickEntity(e *Entity) {
	if e.Dead {
		return
	}
	e.Age++
	if ew.throttled(e) {
		ew.counters.InactiveSkips++
		return
	}
	before := e.Pos.BlockPos()
	switch e.Kind {
	case Mob:
		ew.counters.MobTicks++
		ew.tickMob(e)
	case Item:
		ew.counters.ItemTicks++
		ew.stepPhysics(e)
	case PrimedTNT:
		ew.counters.TNTTicks++
		e.Fuse--
		ew.stepPhysics(e)
		if e.Fuse <= 0 {
			e.Dead = true
			ew.explosionsDue = append(ew.explosionsDue, e.Pos.BlockPos())
		}
	}
	if !e.Dead {
		if after := e.Pos.BlockPos(); after != before {
			ew.counters.Moved++
			if nc := world.ChunkPosAt(after); nc != e.chunk {
				ew.index.move(e, nc)
			}
			ew.noteMoved(e.chunk)
		}
	}
}

// markActive stamps every entity within activation range of a player with
// the current tick: the inverted PaperMC activation-range check. Instead of
// scanning all players for every entity (O(entities x players)), each
// player's sweep visits only its nearby buckets; throttled then tests the
// stamp in O(1). Positions are pre-move for every entity, exactly as the
// per-entity scan saw them.
func (ew *World) markActive(players []Vec3) {
	if ew.cfg.ActivationRange <= 0 {
		return
	}
	r := float64(ew.cfg.ActivationRange)
	for _, p := range players {
		ew.forEachNear(p, r, func(e *Entity) {
			if e.activeTick != ew.tickNum && e.Pos.Dist(p) <= r {
				e.activeTick = ew.tickNum
			}
		})
	}
}

// throttled implements the PaperMC activation-range optimization: entities
// far from every player tick once in four. It reads the entity's
// already-incremented Age.
func (ew *World) throttled(e *Entity) bool {
	if ew.cfg.ActivationRange <= 0 || e.Kind == PrimedTNT {
		return false
	}
	if e.activeTick == ew.tickNum {
		return false
	}
	// The 1-in-4 schedule is phase-shifted per entity so throttled mobs do
	// not bunch onto the same tick. The phase keys on the spawn identity,
	// not the store-local ID, so it survives shard handoffs.
	return (e.Age+int(e.seedKey&3))%4 != 0
}

// compact removes dead and expired entities. Mobs that die drop loot (the
// entity-farm yield); drops are spawned after the sweep so the list is not
// mutated mid-iteration.
func (ew *World) compact() {
	var drops []world.Pos
	live := ew.list[:0]
	for _, e := range ew.list {
		switch {
		case e.Dead:
		case e.Kind == Item && e.Age > ew.cfg.ItemLifetimeTicks:
			e.Dead = true
		case e.Kind == Mob && ew.cfg.MobLifetimeTicks > 0 && e.Age > ew.cfg.MobLifetimeTicks:
			e.Dead = true
			drops = append(drops, e.Pos.BlockPos())
		case e.Pos.Y < -8:
			// Fell out of the world.
			e.Dead = true
		}
		if e.Dead {
			ew.unlink(e)
			ew.counters.Despawns++
			continue
		}
		live = append(live, e)
	}
	ew.list = live
	ew.purgeItemCells()
	for _, p := range drops {
		ew.SpawnItem(p, world.Gravel) // stand-in mob loot
	}
}

// unlink removes an entity from every store index except ew.list, which the
// caller is rebuilding (compact, DrainDepartures).
func (ew *World) unlink(e *Entity) {
	delete(ew.byID, e.ID)
	ew.cellsStale = true
	ew.index.remove(e)
	ew.noteDespawned(e.chunk)
	if e.Kind == Mob {
		ew.mobs--
	}
}

// purgeItemCells drops merge-cell entries whose item entity has died or
// expired. Without this, cells pointing at dead items linger until a new
// drop overwrites them, which under TNT storms leaks a map entry per crater
// cell for the life of the run. The walk runs only when something left byID
// since the last one: IDs are never reused and an item never changes kind,
// so entries go stale no other way.
func (ew *World) purgeItemCells() {
	if !ew.cellsStale {
		return
	}
	ew.cellsStale = false
	for cell, id := range ew.itemCells {
		if e := ew.byID[id]; e == nil || e.Dead || e.Kind != Item {
			delete(ew.itemCells, cell)
		}
	}
}
