package entity

// Shard handoff: when a sharded world is split into disjoint chunk ranges,
// an entity that physics carried out of its shard's owned range must move —
// state intact — to the shard that owns its new chunk. The handoff record
// is everything the receiving store needs to continue the entity exactly
// where the sending store left off; the store-local ID is deliberately
// absent (each shard assigns its own) and the seedKey carries the entity's
// spawn identity so its decision streams are unaffected by the move.

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/mlg/world"
)

// Handoff is the portable state of one entity crossing a shard boundary.
type Handoff struct {
	Kind     Type
	Pos, Vel Vec3
	OnGround bool
	Age      int
	ItemType world.BlockID
	Fuse     int
	// SeedKey is the entity's spawn identity (never zero); the receiving
	// store preserves it so decision streams and the throttle phase are
	// unchanged by the migration.
	SeedKey uint64
	// WanderCooldown preserves the mob AI timer; the A* path itself is
	// dropped (it referenced terrain the old shard owned) and recomputes on
	// arrival, a documented v1 approximation.
	WanderCooldown int
}

// DrainDepartures removes every live entity whose chunk the predicate
// rejects and returns their handoff records in store (ID) order. Departures
// do not count as despawns — the entity lives on elsewhere — but the chunk
// population index is updated so interest tracking stays correct. Call it
// between ticks, after the simulation phases have settled positions.
func (ew *World) DrainDepartures(owns func(world.ChunkPos) bool) []Handoff {
	var out []Handoff
	live := ew.list[:0]
	for _, e := range ew.list {
		if e.Dead || owns(e.chunk) {
			live = append(live, e)
			continue
		}
		out = append(out, Handoff{
			Kind:           e.Kind,
			Pos:            e.Pos,
			Vel:            e.Vel,
			OnGround:       e.OnGround,
			Age:            e.Age,
			ItemType:       e.ItemType,
			Fuse:           e.Fuse,
			SeedKey:        e.seedKey,
			WanderCooldown: e.wanderCooldown,
		})
		ew.unlink(e)
	}
	ew.list = live
	ew.purgeItemCells()
	return out
}

// Arrive inserts a handed-off entity into this store, preserving its spawn
// identity and AI timers. It reports whether the store accepted it (the
// entity cap can reject arrivals, mirroring the spawn path). Arrivals do
// not count as spawns: the single-shard run a sharded cluster must
// sum-match never spawned them.
func (ew *World) Arrive(h Handoff) bool {
	e := &Entity{
		Kind:           h.Kind,
		Pos:            h.Pos,
		Vel:            h.Vel,
		OnGround:       h.OnGround,
		Age:            h.Age,
		ItemType:       h.ItemType,
		Fuse:           h.Fuse,
		seedKey:        h.SeedKey,
		wanderCooldown: h.WanderCooldown,
	}
	return ew.insert(e) != nil
}

// StateSum returns an order- and ID-agnostic fingerprint of every live
// entity's externally visible state: the per-entity FNV-1a hashes are
// combined by wrapping addition, so the sum over a cluster's shards equals
// the sum of an equivalent single store regardless of how entities are
// distributed or in which order each store holds them. Store-local IDs are
// excluded (shards assign their own); the spawn identity key stands in as
// the cross-shard entity identity.
func (ew *World) StateSum() uint64 {
	var sum uint64
	var buf [76]byte
	for _, e := range ew.list {
		if e.Dead {
			continue
		}
		b := buf[:0]
		b = append(b, byte(e.Kind))
		for _, v := range [6]float64{e.Pos.X, e.Pos.Y, e.Pos.Z, e.Vel.X, e.Vel.Y, e.Vel.Z} {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		if e.OnGround {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(e.Age)))
		b = append(b, byte(e.ItemType))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(e.Fuse)))
		b = binary.BigEndian.AppendUint64(b, e.seedKey)
		b = binary.BigEndian.AppendUint32(b, uint32(int32(e.wanderCooldown)))
		h := fnv.New64a()
		h.Write(b)
		sum += h.Sum64()
	}
	return sum
}
