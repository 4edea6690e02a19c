package protocol

// Inter-shard packets. A sharded deployment splits the world into disjoint
// chunk ranges, one server process per range; the shards keep each other
// consistent over the same varint-framed codec the players use, so the
// transport (frame reader, batched async writers, backlog shedding) is
// shared code. IDs start at 0x11, above the client-facing range.

import "encoding/binary"

// Inter-shard packet IDs. 0x15 and 0x16 once carried halo entity ghosts,
// which no shard read; they are retired, not reused, so a peer still
// sending them faults the session with an unknown packet ID instead of
// being misread.
const (
	IDShardHello    PacketID = 0x11 // shard → shard: session handshake
	IDChunkMirror   PacketID = 0x12 // owner → neighbour: halo chunk image
	IDEntityHandoff PacketID = 0x13 // owner → new owner: migrating entity
	IDShardBarrier  PacketID = 0x14 // shard → shard: end-of-tick marker
)

// ShardHello opens an inter-shard session: each side announces its shard
// index and the cluster size so misconfigured peers fail fast.
type ShardHello struct {
	Shard  int32
	Shards int32
}

func (*ShardHello) ID() PacketID { return IDShardHello }
func (p *ShardHello) MarshalBody(dst []byte) []byte {
	dst = appendI32(dst, p.Shard)
	return appendI32(dst, p.Shards)
}
func (p *ShardHello) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Shard = r.i32()
	p.Shards = r.i32()
	return r.err
}

// ChunkMirror carries one boundary chunk's full RLE image from its owner to
// a neighbouring shard's halo copy. Sent only for chunks whose content
// changed since the last mirror, so steady-state boundary traffic is small.
type ChunkMirror struct {
	ChunkX, ChunkZ int32
	Data           []byte
}

func (*ChunkMirror) ID() PacketID { return IDChunkMirror }
func (p *ChunkMirror) MarshalBody(dst []byte) []byte {
	dst = appendI32(dst, p.ChunkX)
	dst = appendI32(dst, p.ChunkZ)
	dst = AppendVarint(dst, int32(len(p.Data)))
	return append(dst, p.Data...)
}
func (p *ChunkMirror) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.ChunkX, p.ChunkZ = r.i32(), r.i32()
	p.Data = append([]byte(nil), r.bytes()...)
	return r.err
}

// EntityHandoff migrates one entity to the shard owning its new chunk. The
// fields mirror entity.Handoff: everything the receiving store needs to
// continue the entity bit-identically, keyed by its spawn identity rather
// than any store-local ID.
type EntityHandoff struct {
	Kind           uint8
	X, Y, Z        float64
	VX, VY, VZ     float64
	OnGround       bool
	Age            int32
	ItemType       uint8
	Fuse           int32
	SeedKey        uint64
	WanderCooldown int32
}

func (*EntityHandoff) ID() PacketID { return IDEntityHandoff }
func (p *EntityHandoff) MarshalBody(dst []byte) []byte {
	dst = append(dst, p.Kind)
	for _, f := range [6]float64{p.X, p.Y, p.Z, p.VX, p.VY, p.VZ} {
		dst = appendF64(dst, f)
	}
	if p.OnGround {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendI32(dst, p.Age)
	dst = append(dst, p.ItemType)
	dst = appendI32(dst, p.Fuse)
	dst = binary.BigEndian.AppendUint64(dst, p.SeedKey)
	return appendI32(dst, p.WanderCooldown)
}
func (p *EntityHandoff) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Kind = r.u8()
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	p.VX, p.VY, p.VZ = r.f64(), r.f64(), r.f64()
	p.OnGround = r.u8() != 0
	p.Age = r.i32()
	p.ItemType = r.u8()
	p.Fuse = r.i32()
	p.SeedKey = r.u64()
	p.WanderCooldown = r.i32()
	return r.err
}

// ShardBarrier marks the end of a shard's outbound traffic for one tick:
// after the barrier for tick T, the peer has every mirror and handoff T
// produced and may start its own tick T+1. The lockstep cluster driver uses
// it to sequence shards deterministically.
type ShardBarrier struct {
	Tick int64
	// Handoffs is the number of EntityHandoff packets preceding this
	// barrier, a cheap integrity check: the receiving session faults when
	// the stream carried a different number.
	Handoffs int32
}

func (*ShardBarrier) ID() PacketID { return IDShardBarrier }
func (p *ShardBarrier) MarshalBody(dst []byte) []byte {
	dst = appendI64(dst, p.Tick)
	return appendI32(dst, p.Handoffs)
}
func (p *ShardBarrier) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Tick = r.i64()
	p.Handoffs = r.i32()
	return r.err
}
