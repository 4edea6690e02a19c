package entity

import (
	"fmt"
	"sort"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/world"
)

// Entity-store section codec for the MLGP save format. Each entity is its
// wire snapshot (snapshot.go) — which already carries identity, kind,
// motion, lifecycle, including the Dead flag, because explosion impulses
// land after compaction and a dead-but-uncollected entity is legitimate
// between server ticks — followed by the private AI state the wire form
// omits: path, waypoint index, path chunk versions, wander cooldown, spawn
// seed key.
// Alongside the entities: tick number, ID allocator, RNG state, the
// carried-over counters (explosion-impulse collisions are attributed to
// the *next* tick, so they are live at the snapshot boundary), terrain
// versions and item-merge cells. Not captured because it is empty or
// rederivable at the tick boundary: chunkUpdates (drained every tick),
// explosionsDue (drained), the player grid (rebuilt each tick), each
// entity's activeTick (stale values behave as unset) and spatial-index
// bucket (a function of Pos).
//
// The section ends with retiredTail zero bytes: the v2 layout's slot for the
// retired parallel-schedule attribution (unit count, parallel flag, parallel
// and fallback tick counts, serial-hold counter). Readers skip whatever is
// there.

// retiredTail is the byte size of the retired attribution slot.
const retiredTail = 4 + 1 + 8 + 8 + 8

func appendEntityPersist(dst []byte, e *Entity) []byte {
	dst = AppendSnapshot(dst, e)
	if e.HasPath() {
		dst = persist.AppendU8(dst, 1)
		dst = persist.AppendU32(dst, uint32(len(e.path)))
		for _, p := range e.path {
			dst = persist.AppendI32(dst, int32(p.X))
			dst = persist.AppendI32(dst, int32(p.Y))
			dst = persist.AppendI32(dst, int32(p.Z))
		}
		dst = persist.AppendU32(dst, uint32(e.pathIdx))
		cps := make([]world.ChunkPos, 0, len(e.pathVersions))
		for cp := range e.pathVersions {
			cps = append(cps, cp)
		}
		sort.Slice(cps, func(i, j int) bool {
			if cps[i].Z != cps[j].Z {
				return cps[i].Z < cps[j].Z
			}
			return cps[i].X < cps[j].X
		})
		dst = persist.AppendU32(dst, uint32(len(cps)))
		for _, cp := range cps {
			dst = persist.AppendI32(dst, cp.X)
			dst = persist.AppendI32(dst, cp.Z)
			dst = persist.AppendU64(dst, e.pathVersions[cp])
		}
	} else {
		dst = persist.AppendU8(dst, 0)
	}
	dst = persist.AppendI32(dst, int32(e.wanderCooldown))
	dst = persist.AppendU64(dst, e.seedKey)
	return dst
}

// AppendPersist appends the entity-store section payload to dst. Must be
// called between server ticks.
func (ew *World) AppendPersist(dst []byte) []byte {
	dst = persist.AppendI64(dst, ew.tickNum)
	dst = persist.AppendI64(dst, ew.nextID)
	dst = persist.AppendU64(dst, ew.src.State())

	c := &ew.counters
	for _, v := range [...]int{c.MobTicks, c.ItemTicks, c.TNTTicks, c.InactiveSkips,
		c.PathNodes, c.Repaths, c.Collisions, c.SpawnAttempts, c.Spawns, c.Despawns, c.Moved} {
		dst = persist.AppendI64(dst, int64(v))
	}

	dst = persist.AppendU32(dst, uint32(len(ew.list)))
	for _, e := range ew.list {
		dst = appendEntityPersist(dst, e)
	}

	cps := make([]world.ChunkPos, 0, len(ew.chunkVersion))
	for cp := range ew.chunkVersion {
		cps = append(cps, cp)
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Z != cps[j].Z {
			return cps[i].Z < cps[j].Z
		}
		return cps[i].X < cps[j].X
	})
	dst = persist.AppendU32(dst, uint32(len(cps)))
	for _, cp := range cps {
		dst = persist.AppendI32(dst, cp.X)
		dst = persist.AppendI32(dst, cp.Z)
		dst = persist.AppendU64(dst, ew.chunkVersion[cp])
	}

	cells := make([]world.Pos, 0, len(ew.itemCells))
	for cell := range ew.itemCells {
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		return a.X < b.X
	})
	dst = persist.AppendU32(dst, uint32(len(cells)))
	for _, cell := range cells {
		dst = persist.AppendI32(dst, int32(cell.X))
		dst = persist.AppendI32(dst, int32(cell.Y))
		dst = persist.AppendI32(dst, int32(cell.Z))
		dst = persist.AppendI64(dst, ew.itemCells[cell])
	}

	return append(dst, make([]byte, retiredTail)...)
}

// RestorePersist replaces the store's mutable state with a decoded section.
// The store must be freshly constructed over the already-restored world
// (same seed and config); the spatial index is rebuilt and the chunk cache
// reset because restore replaces chunk objects wholesale.
func (ew *World) RestorePersist(data []byte) error {
	d := persist.NewDec(data)
	tickNum := d.I64()
	nextID := d.I64()
	rngState := d.U64()

	var cvals [11]int
	for i := range cvals {
		cvals[i] = int(d.I64())
	}

	n := d.Count(snapshotSize + 1 + 4 + 8)
	list := make([]*Entity, 0, n)
	for i := 0; i < n; i++ {
		if d.Err() != nil {
			break
		}
		wire := d.Raw(snapshotSize)
		if wire == nil {
			break
		}
		dec, _, err := DecodeSnapshot(wire)
		if err != nil {
			return fmt.Errorf("%w: entity %d: %v", persist.ErrCorrupt, i, err)
		}
		e := &Entity{}
		*e = dec
		if d.U8() != 0 {
			np := d.Count(12)
			e.path = make([]world.Pos, 0, np)
			for j := 0; j < np; j++ {
				e.path = append(e.path, world.Pos{X: int(d.I32()), Y: int(d.I32()), Z: int(d.I32())})
			}
			e.pathIdx = int(d.U32())
			nv := d.Count(4 + 4 + 8)
			e.pathVersions = make(map[world.ChunkPos]uint64, nv)
			for j := 0; j < nv; j++ {
				cp := world.ChunkPos{X: d.I32(), Z: d.I32()}
				e.pathVersions[cp] = d.U64()
			}
			if d.Err() == nil && (len(e.path) == 0 || e.pathIdx >= len(e.path)) {
				return fmt.Errorf("%w: entity %d: path index %d out of range", persist.ErrCorrupt, i, e.pathIdx)
			}
		}
		e.wanderCooldown = int(d.I32())
		e.seedKey = d.U64()
		if d.Err() == nil && e.seedKey == 0 {
			return fmt.Errorf("%w: entity %d: zero seed key", persist.ErrCorrupt, i)
		}
		list = append(list, e)
	}

	ncv := d.Count(4 + 4 + 8)
	chunkVersion := make(map[world.ChunkPos]uint64, ncv)
	for i := 0; i < ncv; i++ {
		cp := world.ChunkPos{X: d.I32(), Z: d.I32()}
		chunkVersion[cp] = d.U64()
	}

	nCells := d.Count(4 + 4 + 4 + 8)
	itemCells := make(map[world.Pos]int64, nCells)
	for i := 0; i < nCells; i++ {
		cell := world.Pos{X: int(d.I32()), Y: int(d.I32()), Z: int(d.I32())}
		itemCells[cell] = d.I64()
	}

	d.Raw(retiredTail)

	if err := d.Err(); err != nil {
		return fmt.Errorf("entity section: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: entity section has %d trailing bytes", persist.ErrCorrupt, d.Remaining())
	}

	byID := make(map[int64]*Entity, len(list))
	for i, e := range list {
		if e.ID <= 0 || e.ID > nextID {
			return fmt.Errorf("%w: entity %d: ID %d outside allocator range %d", persist.ErrCorrupt, i, e.ID, nextID)
		}
		if i > 0 && e.ID <= list[i-1].ID {
			return fmt.Errorf("%w: entity list not in ID order at %d", persist.ErrCorrupt, i)
		}
		byID[e.ID] = e
	}

	ew.tickNum = tickNum
	ew.nextID = nextID
	ew.src.SetState(rngState)
	ew.counters = Counters{
		MobTicks: cvals[0], ItemTicks: cvals[1], TNTTicks: cvals[2], InactiveSkips: cvals[3],
		PathNodes: cvals[4], Repaths: cvals[5], Collisions: cvals[6], SpawnAttempts: cvals[7],
		Spawns: cvals[8], Despawns: cvals[9], Moved: cvals[10],
	}
	ew.list = list
	ew.byID = byID
	ew.mobs = 0
	ew.index = newSpatialIndex()
	for _, e := range list {
		// Dead-but-uncompacted entities stay indexed and counted, exactly as
		// they were in the saved run; compact removes them next tick.
		e.chunk = world.ChunkPosAt(e.Pos.BlockPos())
		ew.index.add(e)
		if e.Kind == Mob {
			ew.mobs++
		}
	}
	ew.chunkVersion = chunkVersion
	ew.itemCells = itemCells
	ew.chunkUpdates = make(map[world.ChunkPos]ChunkUpdates)
	ew.explosionsDue = nil
	// Restored chunks are new objects; drop any cached pointers.
	ew.wc = world.NewChunkCache(ew.w)
	return nil
}
