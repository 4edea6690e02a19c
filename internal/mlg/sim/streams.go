package sim

import (
	"math/bits"

	"repro/internal/mlg/mrand"
	"repro/internal/mlg/world"
)

// Position-keyed random streams — the terrain half of the determinism
// contract, extended from worker-count independence to shard-layout
// independence.
//
// A shared engine RNG would make every draw's value depend on the global
// draw order: which chunks were loaded, which explosion detonated first, how
// many random-tick samples preceded this one — and a shard simulating half
// the chunks consumes half the draws. Every draw the simulation needs is
// therefore an mrand.Source keyed by the simulation state that caused it
// (chunk or block position ⊕ tick ⊕ world seed) and advanced by draw index
// within that event, making each value a pure function of simulation state:
// a shard that owns a chunk draws exactly the values the single-shard run
// draws for it, no matter what the rest of the cluster is doing.

// chunkStream keys a stream by (world seed, chunk column, tick) — one stream
// per chunk per tick, used by the random-tick sampler.
func chunkStream(seed int64, cp world.ChunkPos, tick int64) mrand.Source {
	return mrand.New(mrand.Mix(uint64(world.RegionSeed(seed, cp)) ^ bits.RotateLeft64(uint64(tick), 32)))
}

// blockStream keys a stream by (world seed, block position, tick) — one
// stream per affected block per tick, used by explosion fuse/drop rolls.
func blockStream(seed int64, p world.Pos, tick int64) mrand.Source {
	return mrand.New(mrand.Mix(uint64(seed) ^ mrand.PosHash(p.X, p.Y, p.Z) ^ bits.RotateLeft64(uint64(tick), 32)))
}
