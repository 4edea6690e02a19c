package sim

// Region partitioning for parallel terrain-simulation drains.
//
// A simulation region is a connected component of the tick's dirty chunks —
// the chunk columns containing queued updates — where two dirty chunks are
// connected when their Chebyshev chunk distance is at most regionLinkChunks.
// Each region owns its core chunks plus a one-chunk halo ring; the region's
// drain may write only inside that owned set.
//
// Safety argument for regionLinkChunks = 3:
//   - cores of distinct regions are >= 4 chunks apart (else they would have
//     merged), so their owned sets (core ⊕ 1 halo) are >= 2 chunks apart;
//   - writes are confined to the owned set (a write outside it aborts the
//     tick's parallel attempt — see regionRun.setBlock), so no chunk is
//     ever written by two regions, and the >= 2-chunk gap between owned
//     sets is written by nobody;
//   - a single rule application reads at most ~3 blocks around its update
//     position, so reads from a region's halo edge reach at most a fraction
//     of the first gap chunk — memory no other region writes.
// Together: region drains touch disjoint memory, and every read a region
// performs outside its owned set observes quiescent (tick-start) state,
// exactly what the serial drain would have observed.

import (
	"slices"

	"repro/internal/mlg/world"
)

// regionLinkChunks is the Chebyshev chunk distance at which dirty chunks
// merge into one region (see the package comment above for why 3).
const regionLinkChunks = 3

// minParallelUpdates is the queue size below which a parallel attempt is not
// worth the partition + worker handoff cost and the tick drains serially.
const minParallelUpdates = 32

// minUnitUpdates is the drained-update count that earns one drain worker:
// the parallel fan-out follows the queue volume rather than the region count.
const minUnitUpdates = 16

// partitionScratch is the partitioner's working memory, owned by the engine
// and cleared per use so a steady parallel workload partitions without
// allocating.
type partitionScratch struct {
	dirty   map[world.ChunkPos]int32
	comps   [][]world.ChunkPos // chunks per component, in component-id order
	regions []*regionRun
	remap   []int32 // component id -> index into the key-sorted regions
	vp, vr  []int32
}

// partitionRegions groups the engine's queued updates into simulation
// regions. It returns the regions sorted by key (minimal core chunk in
// ChunkPos.Compare order, the order of World.LoadedChunkRefs), plus the
// initial virtual-queue tag sequences: vpInit[i] is the region index owning
// e.pending[i], vrInit likewise for e.redstonePending; nComps is the
// component count. When fewer than minRegions components exist, only
// nComps is returned — the per-update queue copy (the expensive half of
// partitioning) is skipped, since the caller will drain serially anyway.
// The engine's queues are copied, never consumed, so an aborted parallel
// attempt can fall back to the serial drain over the originals. The returned
// slices alias engine scratch and are valid until the next call.
func (e *Engine) partitionRegions(minRegions int) (regions []*regionRun, vpInit, vrInit []int32, nComps int) {
	const unassigned = -1
	ps := &e.part
	if ps.dirty == nil {
		ps.dirty = make(map[world.ChunkPos]int32, 64)
	}
	clear(ps.dirty)
	dirty := ps.dirty
	// Cascade updates arrive in same-chunk runs (a block change queues its
	// six neighbours and itself), so both passes over the queues remember
	// the previous update's chunk and skip the map for the rest of a run.
	var last world.ChunkPos
	fresh := true
	for _, q := range [2][]scheduledUpdate{e.pending, e.redstonePending} {
		for _, u := range q {
			if cp := world.ChunkPosAt(u.pos); fresh || cp != last {
				dirty[cp] = unassigned
				last, fresh = cp, false
			}
		}
	}

	// Connected components over the dirty set.
	// Component ids follow map iteration order, but components are
	// canonical, and the final region order is fixed by the key sort below.
	comps := ps.comps[:0]
	world.LabelComponents(dirty, regionLinkChunks, func(comp int32, cp world.ChunkPos) {
		if int(comp) == len(comps) {
			if len(comps) < cap(comps) {
				comps = comps[:len(comps)+1]
				comps[comp] = comps[comp][:0]
			} else {
				comps = append(comps, nil)
			}
		}
		comps[comp] = append(comps[comp], cp)
	})
	ps.comps = comps
	nComps = len(comps)
	if nComps < minRegions {
		return nil, nil, nil, nComps
	}

	regions = ps.regions[:0]
	for i, comp := range comps {
		r := e.takeRegionRun()
		r.comp = int32(i)
		r.key = comp[0]
		for _, cp := range comp {
			if cp.Compare(r.key) < 0 {
				r.key = cp
			}
			for dz := int32(-1); dz <= 1; dz++ {
				for dx := int32(-1); dx <= 1; dx++ {
					r.owned[world.ChunkPos{X: cp.X + dx, Z: cp.Z + dz}] = struct{}{}
				}
			}
		}
		regions = append(regions, r)
	}
	slices.SortFunc(regions, func(a, b *regionRun) int { return a.key.Compare(b.key) })
	ps.regions = regions
	// remap carries component ids across the sort, so queue entries resolve
	// through the dirty map in one lookup.
	remap := zeroed(ps.remap, len(regions))
	for i, r := range regions {
		remap[r.comp] = int32(i)
	}
	ps.remap = remap

	// regionOf resolves an update's region, again once per same-chunk run.
	fresh = true
	var lastIdx int32
	regionOf := func(u scheduledUpdate) int32 {
		if cp := world.ChunkPosAt(u.pos); fresh || cp != last {
			lastIdx = remap[dirty[cp]]
			last, fresh = cp, false
		}
		return lastIdx
	}
	vpInit = ps.vp[:0]
	for _, u := range e.pending {
		idx := regionOf(u)
		vpInit = append(vpInit, idx)
		regions[idx].pendingQ = append(regions[idx].pendingQ, u)
	}
	vrInit = ps.vr[:0]
	for _, u := range e.redstonePending {
		idx := regionOf(u)
		vrInit = append(vrInit, idx)
		regions[idx].redstoneQ = append(regions[idx].redstoneQ, u)
	}
	ps.vp, ps.vr = vpInit, vrInit
	return regions, vpInit, vrInit, nComps
}

// zeroed returns s resized to n zero elements, reusing its backing array
// when that is large enough — the per-use clear of engine-owned scratch.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// takeRegionRun reuses a pooled regionRun shell (its maps cleared, its
// buffers length-reset but capacity-retained) or allocates a fresh one.
// Shells return to the pool at the end of every parallel attempt, so
// steady-state parallel ticks stop growing the heap with per-tick region
// buffers.
func (e *Engine) takeRegionRun() *regionRun {
	if n := len(e.regionPool); n > 0 {
		r := e.regionPool[n-1]
		e.regionPool = e.regionPool[:n-1]
		r.reset()
		return r
	}
	return &regionRun{owned: make(map[world.ChunkPos]struct{}, 64)}
}

// releaseRegionRuns returns the tick's region shells to the pool. Callers
// must be done with every buffer the regions own (queues, logs, events).
func (e *Engine) releaseRegionRuns(regions []*regionRun) {
	e.regionPool = append(e.regionPool, regions...)
}

func (r *regionRun) reset() {
	clear(r.owned)
	clear(r.wireSeen)
	r.pendingQ = r.pendingQ[:0]
	r.redstoneQ = r.redstoneQ[:0]
	r.log = r.log[:0]
	r.events = r.events[:0]
	r.undo = r.undo[:0]
	r.pendPops, r.redPops = 0, 0
	r.counters = Counters{}
	r.setCount, r.lightScans = 0, 0
	r.escaped = false
	r.cache = world.ChunkCache{}
}
