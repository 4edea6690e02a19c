package sim

import (
	"fmt"
	"sort"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/world"
)

// Sim section codec for the MLGP save format. Everything that feeds future
// tick output is captured: the tick number, the update
// queues (backlog carried across the tick boundary), the future-tick
// schedule, the spawner/hopper sets (generator-placed blocks never passed
// through trackSpecial, so they cannot be rederived from the world), and
// the scheduling-attribution counters so ParallelStats reads continuously
// across a restart. Deliberately not captured: wireSeen (stale entries
// behave exactly like absent ones), per-tick counters (reset at tick
// start), and the scratch buffers.

func appendUpdates(dst []byte, ups []scheduledUpdate) []byte {
	dst = persist.AppendU32(dst, uint32(len(ups)))
	for _, u := range ups {
		dst = persist.AppendI32(dst, int32(u.pos.X))
		dst = persist.AppendI32(dst, int32(u.pos.Y))
		dst = persist.AppendI32(dst, int32(u.pos.Z))
		dst = persist.AppendU8(dst, byte(u.kind))
		dst = persist.AppendU8(dst, u.val)
	}
	return dst
}

// updateSize is the encoded size of one scheduledUpdate.
const updateSize = 4 + 4 + 4 + 1 + 1

func decodeUpdates(d *persist.Dec) []scheduledUpdate {
	n := d.Count(updateSize)
	if n == 0 {
		return nil
	}
	ups := make([]scheduledUpdate, 0, n)
	for i := 0; i < n; i++ {
		var u scheduledUpdate
		u.pos.X = int(d.I32())
		u.pos.Y = int(d.I32())
		u.pos.Z = int(d.I32())
		u.kind = updateKind(d.U8())
		u.val = d.U8()
		if u.kind > updateIgnite {
			d.Fail(fmt.Errorf("%w: unknown sim update kind %d", persist.ErrCorrupt, u.kind))
			return nil
		}
		ups = append(ups, u)
	}
	return ups
}

func appendPosSet(dst []byte, set map[world.Pos]struct{}) []byte {
	ps := sortedPositions(set)
	dst = persist.AppendU32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = persist.AppendI32(dst, int32(p.X))
		dst = persist.AppendI32(dst, int32(p.Y))
		dst = persist.AppendI32(dst, int32(p.Z))
	}
	return dst
}

func decodePosSet(d *persist.Dec) map[world.Pos]struct{} {
	n := d.Count(12)
	set := make(map[world.Pos]struct{}, n)
	for i := 0; i < n; i++ {
		p := world.Pos{X: int(d.I32()), Y: int(d.I32()), Z: int(d.I32())}
		set[p] = struct{}{}
	}
	return set
}

// AppendPersist appends the engine's section payload to dst. Must be
// called between ticks.
func (e *Engine) AppendPersist(dst []byte) []byte {
	dst = persist.AppendI64(dst, e.tick)
	dst = persist.AppendU64(dst, 0) // v2 layout: the retired engine RNG state
	dst = persist.AppendI64(dst, e.ItemsCollected)
	dst = appendUpdates(dst, e.pending)
	dst = appendUpdates(dst, e.redstonePending)

	dues := make([]int64, 0, len(e.scheduled))
	for due := range e.scheduled {
		dues = append(dues, due)
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	dst = persist.AppendU32(dst, uint32(len(dues)))
	for _, due := range dues {
		dst = persist.AppendI64(dst, due)
		dst = appendUpdates(dst, e.scheduled[due])
	}

	dst = appendPosSet(dst, e.spawners)
	dst = appendPosSet(dst, e.hoppers)

	dst = persist.AppendU32(dst, uint32(e.lastRegions))
	lp := byte(0)
	if e.lastParallel {
		lp = 1
	}
	dst = persist.AppendU8(dst, lp)
	dst = persist.AppendI64(dst, e.parallelTicks)
	dst = persist.AppendI64(dst, e.fallbackTicks)
	dst = persist.AppendI64(dst, int64(e.serialHold))
	return dst
}

// RestorePersist replaces the engine's mutable state with a decoded
// section. The engine must be freshly constructed over the already-restored
// world (same seed and config); the chunk cache is reset because restore
// replaces chunk objects wholesale.
func (e *Engine) RestorePersist(data []byte) error {
	d := persist.NewDec(data)
	tick := d.I64()
	d.U64() // v2 layout: the retired engine RNG state
	items := d.I64()
	pending := decodeUpdates(d)
	redstone := decodeUpdates(d)

	nSched := d.Count(8 + 4)
	scheduled := make(map[int64][]scheduledUpdate, nSched)
	for i := 0; i < nSched; i++ {
		due := d.I64()
		ups := decodeUpdates(d)
		if d.Err() != nil {
			break
		}
		scheduled[due] = ups
	}

	spawners := decodePosSet(d)
	hoppers := decodePosSet(d)

	lastRegions := int(d.U32())
	lastParallel := d.U8() != 0
	parallelTicks := d.I64()
	fallbackTicks := d.I64()
	serialHold := int(d.I64())

	if err := d.Err(); err != nil {
		return fmt.Errorf("sim section: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: sim section has %d trailing bytes", persist.ErrCorrupt, d.Remaining())
	}

	e.tick = tick
	e.ItemsCollected = items
	e.pending = pending
	e.redstonePending = redstone
	e.scheduled = scheduled
	e.spawners = spawners
	e.hoppers = hoppers
	e.spawnersSorted = nil
	e.hoppersSorted = nil
	e.wireSeen = make(map[world.Pos]int64)
	e.root.wireSeen = e.wireSeen
	e.counters = Counters{}
	e.suppress = false
	e.merging = false
	e.lastRegions = lastRegions
	e.lastParallel = lastParallel
	e.parallelTicks = parallelTicks
	e.fallbackTicks = fallbackTicks
	e.serialHold = serialHold
	// Restored chunks are new objects; drop any cached pointers.
	e.wc = world.NewChunkCache(e.w)
	return nil
}
