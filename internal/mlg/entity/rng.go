package entity

import "repro/internal/mlg/world"

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
// The store RNG still exists — natural-spawn placement stays on it (and is
// disabled in shard mode); its state round-trips through snapshots. Item
// spawn velocities draw from a position/tick-keyed stream for the same
// shard-independence reason.

// decisionStream is one mob-tick's decision stream. It is seeded lazily on
// the first draw (most mob ticks — path following, cooldown waits — draw
// nothing, and the FNV mix should not tax them), then advances one
// splitmix64 step per draw. Create exactly one per entity per tick: draws
// within a tick occur in fixed program order, so the stream's sequence is
// deterministic.
type decisionStream struct {
	ew     *World
	e      *Entity
	state  uint64
	seeded bool
}

// decisionStreamFor returns the stream for one mob tick. The key uses
// e.chunk — the spatial-index bucket at tick start — which is stable for
// the whole mob tick: tickEntity rebuckets only after the kind switch.
func (ew *World) decisionStreamFor(e *Entity) decisionStream {
	return decisionStream{ew: ew, e: e}
}

// next advances the stream one draw: splitmix64 over the lazily mixed seed.
func (d *decisionStream) next() uint64 {
	if !d.seeded {
		base := uint64(world.RegionSeed(d.ew.seed, d.e.chunk))
		d.state = mix64(base ^ mix64(d.e.seedKey^rotl(uint64(d.ew.tickNum), 32)))
		d.seeded = true
	}
	d.state += 0x9E3779B97F4A7C15
	return mix64(d.state)
}

// Intn returns a draw in [0, n). Modulo bias at these tiny ranges (n <= 49)
// is ~2^-59 — irrelevant for wander goals and cooldowns.
func (d *decisionStream) Intn(n int) int {
	return int(d.next() % uint64(n))
}

// spawnSeedKey derives an entity's spawn identity from the world seed and
// its spawn position and tick. Entities spawned at the same block on the
// same tick share a key — in practice only item drops can collide (mob
// spawns are spawner- or placement-throttled), and items draw no decisions,
// so a shared key only aligns their throttle phases. Never returns zero.
func spawnSeedKey(seed int64, p world.Pos, tick int64) uint64 {
	h := uint64(int64(p.X))*0x9E3779B97F4A7C15 ^
		rotl(uint64(int64(p.Y)), 21)*0xBF58476D1CE4E5B9 ^
		rotl(uint64(int64(p.Z)), 42)*0x94D049BB133111EB
	k := mix64(uint64(seed) ^ h ^ rotl(uint64(tick), 17))
	if k == 0 {
		k = 1
	}
	return k
}

// spawnStream is the position/tick-keyed stream item spawn velocities draw
// from: one stream per (spawn block, tick), advanced per draw, so spawn
// velocities are pure functions of simulation state too.
type spawnStream struct{ state uint64 }

func newSpawnStream(seed int64, p world.Pos, tick int64) spawnStream {
	return spawnStream{state: spawnSeedKey(seed, p, tick)}
}

func (s *spawnStream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Float64 returns a draw in [0, 1) with 53 bits of precision.
func (s *spawnStream) Float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }
