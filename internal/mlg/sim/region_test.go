package sim

// Property-based tests for the region partitioner: for randomized
// dirty-chunk sets the partition must (1) assign every queued update to
// exactly one region core, (2) keep region cores and owned sets pairwise
// disjoint, (3) never split two updates that are at most one chunk apart
// into different regions, and (4) keep distinct cores far enough apart that
// owned sets are separated by the safety gap the parallel drains rely on.

import (
	"math/rand"
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
// chunks (its component's chunk list) in region order.
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
	cores := make([][]world.ChunkPos, len(regions))
	for i, r := range regions {
		cores[i] = e.part.comps[r.comp]
	}
	return regions, cores, vpInit, vrInit
}

func TestRegionPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 200; trial++ {
		// Random dirty set: a few clusters of positions plus uniform noise,
		// in a bounded chunk area so merges actually happen.
		var pending, redstone []world.Pos
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
