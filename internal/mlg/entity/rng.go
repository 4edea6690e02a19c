package entity

import (
	"math/bits"

	"repro/internal/mlg/mrand"
	"repro/internal/mlg/world"
)

// Per-region decision RNG streams: what makes entity behaviour independent
// of the shard layout.
//
// Mob decisions (choosePath's wander goal and cooldown rolls, followPath's
// completion roll) do not draw from a shared store RNG, whose sequence would
// depend on which other entities the local store happens to hold. Every
// decision draw comes from a stateless counter-based stream keyed by
//
//	world.RegionSeed(world seed, mob's chunk column) ⊕ spawn identity ⊕ tick
//
// and advanced by draw index within the mob's tick. The chunk key makes the
// streams per-region in the spatial sense (RegionSeed is the same derivation
// the terrain engine's region contexts use), so neighbouring mobs' streams
// stay uncorrelated and a mob's stream changes deterministically as it
// crosses chunk borders.
//
// The spawn-identity component (Entity.seedKey) is derived from the spawn
// position and tick — not the store-local ID, which depends on how many
// entities the local store allocated before this one — so a shard
// simulating a subset of the world draws the same values the single-shard
// run draws for the same entity, and a handed-off entity keeps its stream
// across the boundary.
//
// Every stream here is an mrand.Source, the engine's one splitmix64
// generator. Item spawn velocities draw from a position/tick-keyed source
// for the same shard-independence reason. Natural-spawn placement is the one
// sequential use: it draws from the store's own source, whose state
// round-trips through snapshots (and which shard mode keeps off).

// decisionStream is one mob-tick's decision stream. It is seeded lazily on
// the first draw (most mob ticks — path following, cooldown waits — draw
// nothing, and the FNV mix should not tax them), then advances one
// splitmix64 step per draw. Create exactly one per entity per tick: draws
// within a tick occur in fixed program order, so the stream's sequence is
// deterministic.
type decisionStream struct {
	ew     *World
	e      *Entity
	src    mrand.Source
	seeded bool
}

// decisionStreamFor returns the stream for one mob tick. The key uses
// e.chunk — the spatial-index bucket at tick start — which is stable for
// the whole mob tick: tickEntity rebuckets only after the kind switch.
func (ew *World) decisionStreamFor(e *Entity) decisionStream {
	return decisionStream{ew: ew, e: e}
}

// Intn returns a draw in [0, n), seeding the stream on the first draw.
func (d *decisionStream) Intn(n int) int {
	if !d.seeded {
		base := uint64(world.RegionSeed(d.ew.seed, d.e.chunk))
		d.src = mrand.New(mrand.Mix(base ^ mrand.Mix(d.e.seedKey^bits.RotateLeft64(uint64(d.ew.tickNum), 32))))
		d.seeded = true
	}
	return d.src.Intn(n)
}

// spawnSeedKey derives an entity's spawn identity from the world seed and
// its spawn position and tick. Entities spawned at the same block on the
// same tick share a key — in practice only item drops can collide (mob
// spawns are spawner- or placement-throttled), and items draw no decisions,
// so a shared key only aligns their throttle phases. Never returns zero.
func spawnSeedKey(seed int64, p world.Pos, tick int64) uint64 {
	k := mrand.Mix(uint64(seed) ^ mrand.PosHash(p.X, p.Y, p.Z) ^ bits.RotateLeft64(uint64(tick), 17))
	if k == 0 {
		k = 1
	}
	return k
}
