package protocol

// Inter-shard packets. A sharded deployment splits the world into disjoint
// chunk ranges, one server process per range; the shards keep each other
// consistent over the same varint-framed codec the players use, so the
// transport (frame reader, batched async writers, backlog shedding) is
// shared code. IDs start at 0x11, above the client-facing range.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Inter-shard packet IDs. 0x15 once carried a single ghost per packet; it
// is retired, not reused, so a peer still sending it faults the session
// with an unknown packet ID instead of being misread.
const (
	IDShardHello    PacketID = 0x11 // shard → shard: session handshake
	IDChunkMirror   PacketID = 0x12 // owner → neighbour: halo chunk image
	IDEntityHandoff PacketID = 0x13 // owner → new owner: migrating entity
	IDShardBarrier  PacketID = 0x14 // shard → shard: end-of-tick marker
	IDEntityMirrors PacketID = 0x16 // owner → neighbour: one tick's halo entity ghosts
)

// ShardHello opens an inter-shard session: each side announces its shard
// index and the cluster size so misconfigured peers fail fast.
type ShardHello struct {
	Shard  int32
	Shards int32
	Tick   int64
}

func (*ShardHello) ID() PacketID { return IDShardHello }
func (p *ShardHello) MarshalBody(dst []byte) []byte {
	dst = appendI32(dst, p.Shard)
	dst = appendI32(dst, p.Shards)
	return appendI64(dst, p.Tick)
}
func (p *ShardHello) UnmarshalBody(src []byte) error {
	var err error
	if p.Shard, src, err = readI32(src); err != nil {
		return err
	}
	if p.Shards, src, err = readI32(src); err != nil {
		return err
	}
	p.Tick, _, err = readI64(src)
	return err
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
	var err error
	if p.ChunkX, src, err = readI32(src); err != nil {
		return err
	}
	if p.ChunkZ, src, err = readI32(src); err != nil {
		return err
	}
	n, rest, err := readVarintBytes(src)
	if err != nil {
		return err
	}
	if n < 0 || int(n) > len(rest) {
		return fmt.Errorf("protocol: chunk mirror length %d exceeds buffer", n)
	}
	p.Data = append([]byte(nil), rest[:n]...)
	return nil
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
	var err error
	if p.Kind, src, err = readU8(src); err != nil {
		return err
	}
	fs := [6]*float64{&p.X, &p.Y, &p.Z, &p.VX, &p.VY, &p.VZ}
	for _, f := range fs {
		if *f, src, err = readF64(src); err != nil {
			return err
		}
	}
	var og byte
	if og, src, err = readU8(src); err != nil {
		return err
	}
	p.OnGround = og != 0
	if p.Age, src, err = readI32(src); err != nil {
		return err
	}
	if p.ItemType, src, err = readU8(src); err != nil {
		return err
	}
	if p.Fuse, src, err = readI32(src); err != nil {
		return err
	}
	if len(src) < 8 {
		return fmt.Errorf("protocol: entity handoff truncated")
	}
	p.SeedKey = binary.BigEndian.Uint64(src)
	p.WanderCooldown, _, err = readI32(src[8:])
	return err
}

// EntityMirror is a halo entity ghost: the position of one live entity
// standing in an owned chunk within HaloWidth of a shard boundary, resent
// every tick. Ghosts exist for visibility only — clients near the boundary
// see entities across it — and are never simulated by the receiving shard,
// which keeps the determinism contract intact (only the owner draws the
// entity's decision streams).
type EntityMirror struct {
	Kind    uint8
	X, Y, Z float64
}

// entityMirrorSize is one ghost's body size: kind byte plus three float64s.
const entityMirrorSize = 1 + 3*8

// MaxEntityMirrors caps the ghosts one EntityMirrors packet carries. 2048
// ghosts are about 51 kB, so the frame stays inside a connection's pooled
// read buffer (maxPooledReadBuf) and the receiver never takes the
// transient-allocation path; senders split larger sets across packets.
const MaxEntityMirrors = 2048

// EntityMirrors carries one tick's halo entity ghosts from an owner to a
// neighbouring shard in one packet: a varint count, then 25 bytes per
// ghost. Ghosts currently have no consumer outside tests; the receiving
// shard keeps them as a display-only set (Endpoint.Ghosts).
type EntityMirrors struct {
	Ghosts []EntityMirror
}

func (*EntityMirrors) ID() PacketID { return IDEntityMirrors }
func (p *EntityMirrors) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, int32(len(p.Ghosts)))
	for _, g := range p.Ghosts {
		dst = append(dst, g.Kind)
		dst = appendF64(dst, g.X)
		dst = appendF64(dst, g.Y)
		dst = appendF64(dst, g.Z)
	}
	return dst
}
func (p *EntityMirrors) UnmarshalBody(src []byte) error {
	n, src, err := readVarintBytes(src)
	if err != nil {
		return err
	}
	// Bound the count by the bytes actually present before allocating, so a
	// hostile count cannot reserve memory the body does not back.
	if n < 0 || int(n) > len(src)/entityMirrorSize {
		return fmt.Errorf("protocol: %d entity mirrors exceed buffer of %d bytes", n, len(src))
	}
	p.Ghosts = make([]EntityMirror, n)
	for i := range p.Ghosts {
		b := src[i*entityMirrorSize:]
		p.Ghosts[i] = EntityMirror{
			Kind: b[0],
			X:    math.Float64frombits(binary.BigEndian.Uint64(b[1:])),
			Y:    math.Float64frombits(binary.BigEndian.Uint64(b[9:])),
			Z:    math.Float64frombits(binary.BigEndian.Uint64(b[17:])),
		}
	}
	return nil
}

// ShardBarrier marks the end of a shard's outbound traffic for one tick:
// after the barrier for tick T, the peer has every mirror and handoff T
// produced and may start its own tick T+1. The lockstep cluster driver uses
// it to sequence shards deterministically.
type ShardBarrier struct {
	Tick int64
	// Handoffs is the number of EntityHandoff packets preceding this
	// barrier, a cheap integrity check on the session stream.
	Handoffs int32
}

func (*ShardBarrier) ID() PacketID { return IDShardBarrier }
func (p *ShardBarrier) MarshalBody(dst []byte) []byte {
	dst = appendI64(dst, p.Tick)
	return appendI32(dst, p.Handoffs)
}
func (p *ShardBarrier) UnmarshalBody(src []byte) error {
	var err error
	if p.Tick, src, err = readI64(src); err != nil {
		return err
	}
	p.Handoffs, _, err = readI32(src)
	return err
}
