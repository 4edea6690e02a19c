// Package shard partitions one MLG world into disjoint chunk ranges, each
// owned by its own server.Server, and keeps the shards consistent: halo
// chunk mirrors and entity handoffs flow between neighbours over the same
// varint-framed protocol the players speak, and a gateway routes player
// connections to whichever shard owns their position. The partition reuses
// the engine's determinism contract — every simulation RNG draw is a pure
// function of position, tick and world seed — so a cluster of N shards
// produces, for entities that never cross a boundary, bit-identical
// per-tick counters (summed across shards) to a single server running the
// whole world.
package shard

import (
	"fmt"

	"repro/internal/mlg/world"
)

// HaloWidth is how many owned chunk columns on each side of a shard
// boundary are mirrored to the neighbouring shard every tick. One chunk
// (16 blocks) comfortably covers the largest cross-boundary read the
// engine performs: the TNT blast radius (4 blocks) and mob pathfinding
// lookahead both stay within it.
const HaloWidth = 1

// Map is the static chunk-range shard assignment (v1): the world is split
// along chunk-X into len(Splits)+1 contiguous ranges. Shard i owns chunk
// columns with Splits[i-1] <= X < Splits[i] (the first and last ranges are
// unbounded). Z is never split, matching the engine's region partition
// which already treats chunk columns as the ownership unit.
type Map struct {
	// Splits are the ascending chunk-X boundaries. Empty means one shard
	// owns everything.
	Splits []int32
}

// Validate rejects unordered split lists before they are used for routing.
func (m Map) Validate() error {
	for i := 1; i < len(m.Splits); i++ {
		if m.Splits[i] <= m.Splits[i-1] {
			return fmt.Errorf("shard: splits must be strictly ascending, got %v", m.Splits)
		}
	}
	return nil
}

// Count returns the number of shards in the map.
func (m Map) Count() int { return len(m.Splits) + 1 }

// ShardOf returns the index of the shard owning the chunk column.
func (m Map) ShardOf(cp world.ChunkPos) int {
	for i, s := range m.Splits {
		if cp.X < s {
			return i
		}
	}
	return len(m.Splits)
}

// ShardOfBlock returns the shard owning the block position.
func (m Map) ShardOfBlock(p world.Pos) int { return m.ShardOf(world.ChunkPosAt(p)) }

// Owns returns the ownership predicate for shard i, in the shape
// server.ShardConfig expects.
func (m Map) Owns(i int) func(world.ChunkPos) bool {
	return func(cp world.ChunkPos) bool { return m.ShardOf(cp) == i }
}

// AppendHaloPeers appends to dst, for an owned chunk column, the
// neighbouring shard indices that need a mirror of it: shards whose range
// starts within HaloWidth of the column. A column deep inside a shard
// appends nothing. The per-tick exchange passes a reused buffer, so the
// lookup allocates nothing.
func (m Map) AppendHaloPeers(dst []int, owner int, cp world.ChunkPos) []int {
	// Boundary below: shard owner-1 ends at Splits[owner-1].
	if owner > 0 && cp.X < m.Splits[owner-1]+HaloWidth {
		dst = append(dst, owner-1)
	}
	// Boundary above: shard owner+1 begins at Splits[owner].
	if owner < len(m.Splits) && cp.X >= m.Splits[owner]-HaloWidth {
		dst = append(dst, owner+1)
	}
	return dst
}
