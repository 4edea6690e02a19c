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

// tagRun is n consecutive entries of one region in a tag sequence — a
// queue's entries, a virtual queue's entries or the merge's events. Cascades
// keep to their region for long stretches, so these sequences hold a few
// dozen runs per ten thousand entries, and the serial bookkeeping around a
// parallel drain walks runs, not entries.
type tagRun struct {
	region int32
	n      int32
}

// appendRun appends n entries of region to runs, extending the last run
// when it has the same region.
func appendRun(runs []tagRun, region int32, n int) []tagRun {
	if n == 0 {
		return runs
	}
	if k := len(runs) - 1; k >= 0 && runs[k].region == region {
		runs[k].n += int32(n)
		return runs
	}
	return append(runs, tagRun{region: region, n: int32(n)})
}

// partition is one remembered partition: which region each dirty chunk
// belongs to, and the regions' keys and owned sets in key order. A partition
// is a pure function of the dirty-chunk set, so a tick whose queues touch
// exactly the same chunks reuses it as it stands.
type partition struct {
	chunks map[world.ChunkPos]int32      // dirty chunk -> index into slots
	slots  []chunkSlot                   // one per dirty chunk
	keys   []world.ChunkPos              // region keys (minimal core chunk), sorted
	owned  []map[world.ChunkPos]struct{} // per region: core chunks plus one-chunk halo; maps past len(keys) are spare
	used   int64                         // the partitionRegions call that last used it; 0 while empty
}

// chunkSlot is one dirty chunk of a partition.
type chunkSlot struct {
	region int32
	seen   int64 // the partitionRegions call that last tagged an update here
}

// partitionScratch is the partitioner's memory, owned by the engine: the
// last two partitions — the redstone cadence alternates the dirty set
// between even and odd ticks, so the partition two ticks back is the one a
// steady workload needs — plus working memory cleared per use, so a steady
// parallel workload partitions without allocating.
type partitionScratch struct {
	mem   [2]partition
	calls int64 // partitionRegions calls, the stamp of partition.used and chunkSlot.seen
	hits  int64 // calls answered by a remembered partition

	comps   [][]world.ChunkPos // chunks per component
	stack   []world.ChunkPos   // LabelComponents' search stack
	regions []*regionRun
	vp, vr  []tagRun
}

// partitionRegions groups the engine's queued updates into simulation
// regions. It returns the regions sorted by key (minimal core chunk in
// ChunkPos.Compare order, the order of World.LoadedChunkRefs), plus the
// initial virtual queues as region runs: vpInit covers e.pending entry for
// entry, vrInit likewise e.redstonePending; nComps is the component count.
// When fewer than minRegions components exist, only nComps is returned —
// the queue copy is skipped, since the caller will drain serially anyway.
// The engine's queues are copied, never consumed, so an aborted parallel
// attempt can fall back to the serial drain over the originals. The returned
// slices alias engine scratch and are valid until the next call.
//
// A remembered partition is reused when the queues hit exactly its dirty
// chunks; otherwise the older one is recomputed from the queues.
func (e *Engine) partitionRegions(minRegions int) (regions []*regionRun, vpInit, vrInit []tagRun, nComps int) {
	ps := &e.part
	ps.calls++
	older, newer := &ps.mem[0], &ps.mem[1]
	if newer.used < older.used {
		older, newer = newer, older
	}
	var p *partition
	for _, m := range [2]*partition{older, newer} {
		if m.used != 0 && ps.tag(m, e.pending, e.redstonePending) {
			p = m
			ps.hits++
			break
		}
	}
	if p == nil {
		p = older
		p.used = 0
		if nComps = e.buildPartition(p, minRegions); nComps < minRegions {
			return nil, nil, nil, nComps
		}
		ps.tag(p, e.pending, e.redstonePending) // a fresh partition always hits
	}
	p.used = ps.calls
	nComps = len(p.keys)
	if nComps < minRegions {
		return nil, nil, nil, nComps
	}

	regions = ps.regions[:0]
	for i, key := range p.keys {
		r := e.takeRegionRun()
		r.key, r.owned = key, p.owned[i]
		regions = append(regions, r)
	}
	ps.regions = regions
	off := 0
	for _, run := range ps.vp {
		r := regions[run.region]
		r.pendingQ = append(r.pendingQ, e.pending[off:off+int(run.n)]...)
		off += int(run.n)
	}
	off = 0
	for _, run := range ps.vr {
		r := regions[run.region]
		r.redstoneQ = append(r.redstoneQ, e.redstonePending[off:off+int(run.n)]...)
		off += int(run.n)
	}
	return regions, ps.vp, ps.vr, nComps
}

// tag tags both queues against p, into ps.vp and ps.vr, and reports whether
// p is this tick's partition: every queued update's chunk is one of p's
// dirty chunks, and every one of them is hit.
func (ps *partitionScratch) tag(p *partition, pending, redstone []scheduledUpdate) bool {
	hit := 0
	var ok bool
	if ps.vp, ok = p.tagQueue(ps.vp[:0], pending, ps.calls, &hit); !ok {
		return false
	}
	if ps.vr, ok = p.tagQueue(ps.vr[:0], redstone, ps.calls, &hit); !ok {
		return false
	}
	return hit == len(p.slots)
}

// tagQueue appends q's region runs to runs, counting into hit the chunks it
// sees first under stamp; false means an update's chunk is not in p. Cascade
// updates arrive in same-chunk runs (a block change queues its six
// neighbours and itself), so only a chunk change costs a map lookup. Each
// queue is its own sequence: no run or chunk state carries in.
func (p *partition) tagQueue(runs []tagRun, q []scheduledUpdate, stamp int64, hit *int) ([]tagRun, bool) {
	var last world.ChunkPos
	region, start := int32(-1), 0
	for i := range q {
		cp := world.ChunkPosAt(q[i].pos)
		if i > 0 && cp == last {
			continue
		}
		last = cp
		s, ok := p.chunks[cp]
		if !ok {
			return runs, false
		}
		slot := &p.slots[s]
		if slot.seen != stamp {
			slot.seen = stamp
			*hit++
		}
		if slot.region != region {
			if i > start {
				runs = append(runs, tagRun{region: region, n: int32(i - start)})
			}
			region, start = slot.region, i
		}
	}
	if len(q) > start {
		runs = append(runs, tagRun{region: region, n: int32(len(q) - start)})
	}
	return runs, true
}

// buildPartition recomputes p from the engine's queues: the dirty-chunk
// set, its connected components, and the regions in key order with their
// owned sets. It returns the component count; below minRegions components
// only the count is meaningful, and the caller leaves p unused.
func (e *Engine) buildPartition(p *partition, minRegions int) int {
	const unassigned = -1
	ps := &e.part
	if p.chunks == nil {
		p.chunks = make(map[world.ChunkPos]int32, 64)
	}
	clear(p.chunks)
	dirty := p.chunks
	for _, q := range [2][]scheduledUpdate{e.pending, e.redstonePending} {
		var last world.ChunkPos
		for i := range q {
			if cp := world.ChunkPosAt(q[i].pos); i == 0 || cp != last {
				dirty[cp] = unassigned
				last = cp
			}
		}
	}

	// Connected components over the dirty set.
	comps := ps.comps[:0]
	world.LabelComponents(dirty, regionLinkChunks, &ps.stack, func(comp int32, cp world.ChunkPos) {
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
	if len(comps) < minRegions {
		return len(comps)
	}

	// Component ids follow map iteration order, but components are
	// canonical: moving each one's minimal chunk, its key, to the front and
	// sorting by it fixes the region order.
	for _, comp := range comps {
		for i, cp := range comp {
			if cp.Compare(comp[0]) < 0 {
				comp[0], comp[i] = cp, comp[0]
			}
		}
	}
	slices.SortFunc(comps, func(a, b []world.ChunkPos) int { return a[0].Compare(b[0]) })

	p.keys, p.slots = p.keys[:0], p.slots[:0]
	for i, comp := range comps {
		p.keys = append(p.keys, comp[0])
		if i == len(p.owned) {
			p.owned = append(p.owned, make(map[world.ChunkPos]struct{}, 64))
		}
		owned := p.owned[i]
		clear(owned)
		for _, cp := range comp {
			dirty[cp] = int32(len(p.slots))
			p.slots = append(p.slots, chunkSlot{region: int32(i)})
			for dz := int32(-1); dz <= 1; dz++ {
				for dx := int32(-1); dx <= 1; dx++ {
					owned[world.ChunkPos{X: cp.X + dx, Z: cp.Z + dz}] = struct{}{}
				}
			}
		}
	}
	return len(comps)
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

// takeRegionRun reuses a pooled regionRun shell (its wire map cleared, its
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
	return &regionRun{}
}

// releaseRegionRuns returns the tick's region shells to the pool. Callers
// must be done with every buffer the regions own (queues, logs, events).
func (e *Engine) releaseRegionRuns(regions []*regionRun) {
	e.regionPool = append(e.regionPool, regions...)
}

// reset leaves the owned set alone: it belongs to the partition, and
// partitionRegions points the shell at the next one.
func (r *regionRun) reset() {
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
