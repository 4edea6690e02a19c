package sim

// Property-based tests for the region partitioner: for randomized
// dirty-chunk sets the partition must (1) assign every queued update to
// exactly one region core, (2) keep region cores and owned sets pairwise
// disjoint, (3) never split two updates that are at most one chunk apart
// into different regions, and (4) keep distinct cores far enough apart that
// owned sets are separated by the safety gap the parallel drains rely on.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mlg/world"
)

// chebyshev returns the chunk-grid Chebyshev distance.
func chebyshev(a, b world.ChunkPos) int32 {
	dx, dz := a.X-b.X, a.Z-b.Z
	if dx < 0 {
		dx = -dx
	}
	if dz < 0 {
		dz = -dz
	}
	if dz > dx {
		return dz
	}
	return dx
}

// partitionForUpdates builds an engine whose queues contain exactly the
// given update positions and returns its partition, plus each region's core
// chunks in region order and the initial tags expanded to one per entry.
func partitionForUpdates(t *testing.T, pendingPos, redstonePos []world.Pos) ([]*regionRun, [][]world.ChunkPos, []int32, []int32) {
	t.Helper()
	w := world.New(nil)
	e := New(w, &orderedEnts{}, DefaultConfig(), 1)
	for _, p := range pendingPos {
		e.pending = append(e.pending, scheduledUpdate{pos: p, kind: updateNeighbor})
	}
	for _, p := range redstonePos {
		e.redstonePending = append(e.redstonePending, scheduledUpdate{pos: p, kind: updateNeighbor})
	}
	regions, vpInit, vrInit, nComps := e.partitionRegions(1)
	if nComps != len(regions) {
		t.Fatalf("component count %d != materialized regions %d", nComps, len(regions))
	}
	return regions, partitionCores(e, len(regions)), expandRuns(vpInit), expandRuns(vrInit)
}

// currentPartition returns the partition the engine's last
// partitionRegions call used.
func currentPartition(e *Engine) *partition {
	for i := range e.part.mem {
		if p := &e.part.mem[i]; p.used == e.part.calls {
			return p
		}
	}
	return nil
}

// partitionCores lists each region's core chunks, sorted, from the
// engine's current partition.
func partitionCores(e *Engine, n int) [][]world.ChunkPos {
	cores := make([][]world.ChunkPos, n)
	if p := currentPartition(e); p != nil {
		for cp, s := range p.chunks {
			r := p.slots[s].region
			cores[r] = append(cores[r], cp)
		}
	}
	for _, c := range cores {
		slices.SortFunc(c, world.ChunkPos.Compare)
	}
	return cores
}

// expandRuns returns a run sequence as one region tag per entry.
func expandRuns(runs []tagRun) []int32 {
	tags := []int32{}
	for _, run := range runs {
		for k := int32(0); k < run.n; k++ {
			tags = append(tags, run.region)
		}
	}
	return tags
}

// randomDirtySet draws update positions for the two queues: a few clusters
// plus uniform noise, in a bounded chunk area so merges actually happen.
func randomDirtySet(rng *rand.Rand) (pending, redstone []world.Pos) {
	nClusters := 1 + rng.Intn(5)
	for c := 0; c < nClusters; c++ {
		cx, cz := rng.Intn(1200)-600, rng.Intn(1200)-600
		for i := 0; i < 1+rng.Intn(30); i++ {
			p := world.Pos{X: cx + rng.Intn(48), Y: rng.Intn(world.Height), Z: cz + rng.Intn(48)}
			if rng.Intn(2) == 0 {
				pending = append(pending, p)
			} else {
				redstone = append(redstone, p)
			}
		}
	}
	for i := 0; i < rng.Intn(10); i++ {
		pending = append(pending, world.Pos{X: rng.Intn(2000) - 1000, Y: 5, Z: rng.Intn(2000) - 1000})
	}
	return pending, redstone
}

func TestRegionPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 200; trial++ {
		pending, redstone := randomDirtySet(rng)
		regions, cores, vpInit, vrInit := partitionForUpdates(t, pending, redstone)

		// Tag sequences must mirror the queues one to one.
		if len(vpInit) != len(pending) || len(vrInit) != len(redstone) {
			t.Fatalf("trial %d: tag lengths %d/%d, want %d/%d",
				trial, len(vpInit), len(vrInit), len(pending), len(redstone))
		}

		// Every update's chunk must be in its tagged region's core, and the
		// region queues must hold the updates in their original order.
		check := func(tags []int32, positions []world.Pos, queueOf func(*regionRun) []scheduledUpdate) {
			seen := make([]int, len(regions))
			for i, tag := range tags {
				r := regions[tag]
				cp := world.ChunkPosAt(positions[i])
				if !slices.Contains(cores[tag], cp) {
					t.Fatalf("trial %d: update %v tagged to region %v whose core misses chunk %v",
						trial, positions[i], r.key, cp)
				}
				if got := queueOf(r)[seen[tag]].pos; got != positions[i] {
					t.Fatalf("trial %d: region %v queue order diverged: %v vs %v",
						trial, r.key, got, positions[i])
				}
				seen[tag]++
			}
		}
		check(vpInit, pending, func(r *regionRun) []scheduledUpdate { return r.pendingQ })
		check(vrInit, redstone, func(r *regionRun) []scheduledUpdate { return r.redstoneQ })

		// Cores are pairwise disjoint, separated by more than the link
		// distance, and owned sets are disjoint with a gap.
		for i, a := range regions {
			for j, b := range regions {
				if i >= j {
					continue
				}
				for _, ca := range cores[i] {
					for _, cb := range cores[j] {
						if d := chebyshev(ca, cb); d <= regionLinkChunks {
							t.Fatalf("trial %d: cores of regions %v and %v only %d chunks apart",
								trial, a.key, b.key, d)
						}
					}
				}
				for oa := range a.owned {
					if _, ok := b.owned[oa]; ok {
						t.Fatalf("trial %d: owned sets of %v and %v overlap at %v",
							trial, a.key, b.key, oa)
					}
				}
			}
		}

		// No two updates at most one chunk apart may land in different
		// regions (the 1-chunk-halo independence requirement).
		all := append(append([]world.Pos{}, pending...), redstone...)
		allTags := append(append([]int32{}, vpInit...), vrInit...)
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if chebyshev(world.ChunkPosAt(all[i]), world.ChunkPosAt(all[j])) <= 1 &&
					allTags[i] != allTags[j] {
					t.Fatalf("trial %d: updates %v and %v are <=1 chunk apart but in regions %d and %d",
						trial, all[i], all[j], allTags[i], allTags[j])
				}
			}
		}

		// Owned sets must cover each core with its full 1-chunk halo.
		for i, r := range regions {
			for _, cp := range cores[i] {
				for dz := int32(-1); dz <= 1; dz++ {
					for dx := int32(-1); dx <= 1; dx++ {
						n := world.ChunkPos{X: cp.X + dx, Z: cp.Z + dz}
						if _, ok := r.owned[n]; !ok {
							t.Fatalf("trial %d: region %v owned set misses halo chunk %v", trial, r.key, n)
						}
					}
				}
			}
		}
	}
}

// TestRegionPartitionDeterministicOrder: identical queue contents must
// produce identical region keys in identical order regardless of map
// iteration order (run repeatedly to shake the map hash seed).
func TestRegionPartitionDeterministicOrder(t *testing.T) {
	positions := []world.Pos{
		{X: 0, Y: 10, Z: 0}, {X: 500, Y: 10, Z: 0}, {X: 0, Y: 10, Z: 500},
		{X: -400, Y: 10, Z: -400}, {X: 505, Y: 10, Z: 3},
	}
	var firstKeys []world.ChunkPos
	for rep := 0; rep < 20; rep++ {
		regions, _, _, _ := partitionForUpdates(t, positions, nil)
		keys := make([]world.ChunkPos, len(regions))
		for i, r := range regions {
			keys[i] = r.key
		}
		if rep == 0 {
			firstKeys = keys
			continue
		}
		if len(keys) != len(firstKeys) {
			t.Fatalf("rep %d: region count %d vs %d", rep, len(keys), len(firstKeys))
		}
		for i := range keys {
			if keys[i] != firstKeys[i] {
				t.Fatalf("rep %d: region order diverged: %v vs %v", rep, keys, firstKeys)
			}
		}
	}
}

// partitionView is everything a partition hands the drain, copied out of
// the engine's scratch: region keys, owned sets, region queues and the
// initial tags, one per entry.
type partitionView struct {
	Keys                []world.ChunkPos
	Owned               [][]world.ChunkPos
	PendingQ, RedstoneQ [][]scheduledUpdate
	VP, VR              []int32
}

func viewPartition(regions []*regionRun, vp, vr []tagRun) partitionView {
	v := partitionView{VP: expandRuns(vp), VR: expandRuns(vr)}
	for _, r := range regions {
		v.Keys = append(v.Keys, r.key)
		owned := []world.ChunkPos{}
		for cp := range r.owned {
			owned = append(owned, cp)
		}
		slices.SortFunc(owned, world.ChunkPos.Compare)
		v.Owned = append(v.Owned, owned)
		v.PendingQ = append(v.PendingQ, append([]scheduledUpdate{}, r.pendingQ...))
		v.RedstoneQ = append(v.RedstoneQ, append([]scheduledUpdate{}, r.redstoneQ...))
	}
	return v
}

// setQueues replaces the engine's queues with updates at the positions.
func setQueues(e *Engine, pending, redstone []world.Pos) {
	e.pending, e.redstonePending = e.pending[:0], e.redstonePending[:0]
	for _, p := range pending {
		e.pending = append(e.pending, scheduledUpdate{pos: p, kind: updateNeighbor})
	}
	for _, p := range redstone {
		e.redstonePending = append(e.redstonePending, scheduledUpdate{pos: p, kind: updateNeighbor})
	}
}

// TestRegionPartitionRemembered: a remembered partition is reused only for
// exactly its dirty-chunk set, and then equals a fresh partition of the same
// queues. One engine partitions A, B, A (the third call must hit), then a
// strict subset of A's chunks and a strict superset (both must miss); each
// result is compared with a fresh engine's. Every other trial starts the
// redstone queue in the chunk that ends the pending queue, so a run or
// same-chunk memo carried from one queue into the other would show.
func TestRegionPartitionRemembered(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for trial := 0; trial < 200; trial++ {
		aP, aR := randomDirtySet(rng)
		bP, bR := randomDirtySet(rng)
		if trial%2 == 0 && len(aP) > 0 {
			last := aP[len(aP)-1]
			aR = append([]world.Pos{{X: last.X, Y: (last.Y + 1) % world.Height, Z: last.Z}}, aR...)
		}
		// Subset: every update in the chunk of a random A update dropped;
		// superset: one more update in a chunk A does not touch.
		all := append(slices.Clone(aP), aR...)
		drop := world.ChunkPosAt(all[rng.Intn(len(all))])
		keep := func(ps []world.Pos) []world.Pos {
			return slices.DeleteFunc(slices.Clone(ps), func(p world.Pos) bool { return world.ChunkPosAt(p) == drop })
		}
		subP, subR := keep(aP), keep(aR)
		if len(subP)+len(subR) == 0 {
			continue // A touched one chunk: it has no nonempty strict subset
		}
		supP := append(slices.Clone(aP), world.Pos{X: 5000, Y: 3, Z: 5000})

		e := New(world.New(nil), &orderedEnts{}, DefaultConfig(), 1)
		for step, c := range []struct {
			name              string
			pending, redstone []world.Pos
			hit               bool
		}{
			{"A", aP, aR, false},
			{"B", bP, bR, false},
			{"A again", aP, aR, true},
			{"subset of A", subP, subR, false},
			{"superset of A", supP, aR, false},
		} {
			setQueues(e, c.pending, c.redstone)
			hits := e.part.hits
			regions, vp, vr, _ := e.partitionRegions(1)
			if got := e.part.hits > hits; got != c.hit {
				t.Fatalf("trial %d step %d (%s): remembered partition hit = %v, want %v", trial, step, c.name, got, c.hit)
			}
			got := viewPartition(regions, vp, vr)
			e.releaseRegionRuns(regions)

			fresh := New(world.New(nil), &orderedEnts{}, DefaultConfig(), 1)
			setQueues(fresh, c.pending, c.redstone)
			fr, fvp, fvr, _ := fresh.partitionRegions(1)
			if want := viewPartition(fr, fvp, fvr); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d (%s): partition differs from a fresh one\ngot:  %+v\nwant: %+v",
					trial, step, c.name, got, want)
			}
		}
	}
}

// TestRegionPartitionWarmHitAllocs: once both alternating dirty sets are
// remembered, partitioning allocates nothing.
func TestRegionPartitionWarmHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	aP, aR := randomDirtySet(rng)
	bP, bR := randomDirtySet(rng)
	e := New(world.New(nil), &orderedEnts{}, DefaultConfig(), 1)
	cycle := func() {
		for _, q := range [2][2][]world.Pos{{aP, aR}, {bP, bR}} {
			setQueues(e, q[0], q[1])
			regions, _, _, _ := e.partitionRegions(1)
			e.releaseRegionRuns(regions)
		}
	}
	cycle()
	hits := e.part.hits
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm remembered partitions allocate %.1f times per cycle, want 0", allocs)
	}
	if want := hits + 2*51; e.part.hits != want {
		t.Fatalf("remembered partition hits %d, want %d (every warm call)", e.part.hits, want)
	}
}
