package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PacketID identifies a packet type on the wire.
type PacketID int32

// Packet IDs. One shared namespace for both directions keeps the codec
// simple; direction legality is enforced by the endpoints.
const (
	IDHandshake      PacketID = 0x00 // client → server: protocol hello
	IDLogin          PacketID = 0x01 // client → server: player name
	IDLoginSuccess   PacketID = 0x02 // server → client: assigned player ID
	IDKeepAlive      PacketID = 0x03 // both: liveness probe
	IDChat           PacketID = 0x04 // both: chat message (response-time probe)
	IDPlayerMove     PacketID = 0x05 // client → server: position update
	IDPlayerAction   PacketID = 0x06 // client → server: dig/place
	IDBlockChange    PacketID = 0x07 // server → client: terrain state update
	IDChunkData      PacketID = 0x08 // server → client: bulk terrain
	IDSpawnEntity    PacketID = 0x09 // server → client: entity created
	IDEntityMove     PacketID = 0x0A // server → client: entity position update
	IDDestroyEntity  PacketID = 0x0B // server → client: entity removed
	IDPlayerPosition PacketID = 0x0C // server → client: authoritative position
	IDTimeUpdate     PacketID = 0x0D // server → client: tick number
	IDDisconnect     PacketID = 0x0E // server → client: connection closing
	IDEntityMoveRel  PacketID = 0x0F // server → client: delta-encoded entity move
	IDWorldStream    PacketID = 0x10 // server → client: bulk terrain/light refresh
)

// ProtocolVersion is the protocol revision both sides must agree on.
const ProtocolVersion = 1

// Packet is one protocol message.
type Packet interface {
	// ID returns the packet's wire identifier.
	ID() PacketID
	// MarshalBody appends the packet body to dst.
	MarshalBody(dst []byte) []byte
	// UnmarshalBody parses the packet body.
	UnmarshalBody(src []byte) error
}

// EntityRelated reports whether a packet carries entity state — the
// classification behind Table 8 ("percentage of network messages that are
// related to entities").
func EntityRelated(p Packet) bool { return entityRelatedID(p.ID()) }

func entityRelatedID(id PacketID) bool {
	switch id {
	case IDSpawnEntity, IDEntityMove, IDEntityMoveRel, IDDestroyEntity:
		return true
	default:
		return false
	}
}

// --- body encoding helpers ---
//
// Bodies are written with the append helpers and read back through a
// reader: each read takes its field off the front of the body, and the
// first field that runs short or holds a bad varint makes the reader's
// error sticky, after which every read returns zero. An UnmarshalBody
// therefore reads its fields in order and returns r.err once. Bytes after
// the last field are ignored.

func appendString(dst []byte, s string) []byte {
	dst = AppendVarint(dst, int32(len(s)))
	return append(dst, s...)
}

func readVarintBytes(src []byte) (int32, []byte, error) {
	var result uint32
	for i := 0; i < maxVarintBytes; i++ {
		if i >= len(src) {
			// The buffer ran out mid-encoding: a short read, not an overlong
			// varint.
			return 0, nil, ErrVarintTruncated
		}
		b := src[i]
		result |= uint32(b&0x7F) << (7 * i)
		if b&0x80 == 0 {
			return int32(result), src[i+1:], nil
		}
	}
	return 0, nil, ErrVarintTooLong
}

func appendF64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendI64(dst []byte, v int64) []byte { return binary.BigEndian.AppendUint64(dst, uint64(v)) }

func appendI32(dst []byte, v int32) []byte { return binary.BigEndian.AppendUint32(dst, uint32(v)) }

// errShortBody reports a body that ends before its last field, or a length
// prefix that points past the end of the body.
var errShortBody = errors.New("protocol: short packet body")

// reader decodes one packet body with a sticky error.
type reader struct {
	b   []byte
	err error
}

// zeros backs the fixed-width reads after the body has run short.
var zeros [8]byte

// take returns the next n bytes, or nil once the body is short.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errShortBody
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// fixed returns the next n bytes (1 <= n <= 8), or n zero bytes once the
// body is short.
func (r *reader) fixed(n int) []byte {
	if v := r.take(n); v != nil {
		return v
	}
	return zeros[:n]
}

func (r *reader) u8() uint8      { return r.fixed(1)[0] }
func (r *reader) i32() int32     { return int32(binary.BigEndian.Uint32(r.fixed(4))) }
func (r *reader) u64() uint64    { return binary.BigEndian.Uint64(r.fixed(8)) }
func (r *reader) i64() int64     { return int64(r.u64()) }
func (r *reader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *reader) string() string { return string(r.bytes()) }

func (r *reader) varint() int32 {
	if r.err != nil {
		return 0
	}
	v, rest, err := readVarintBytes(r.b)
	r.b, r.err = rest, err
	return v
}

// bytes reads a varint length prefix and returns that many bytes, aliasing
// the body: a decoder that keeps them copies them.
func (r *reader) bytes() []byte { return r.take(int(r.varint())) }

// --- packet definitions ---

// Handshake opens a connection.
type Handshake struct {
	Version int32
}

func (*Handshake) ID() PacketID { return IDHandshake }
func (p *Handshake) MarshalBody(dst []byte) []byte {
	return AppendVarint(dst, p.Version)
}
func (p *Handshake) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Version = r.varint()
	return r.err
}

// Login carries the player name.
type Login struct {
	Name string
}

func (*Login) ID() PacketID                    { return IDLogin }
func (p *Login) MarshalBody(dst []byte) []byte { return appendString(dst, p.Name) }
func (p *Login) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Name = r.string()
	return r.err
}

// LoginSuccess assigns the player's entity ID and spawn position.
type LoginSuccess struct {
	PlayerID int32
	X, Y, Z  float64
}

func (*LoginSuccess) ID() PacketID { return IDLoginSuccess }
func (p *LoginSuccess) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, p.PlayerID)
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	return appendF64(dst, p.Z)
}
func (p *LoginSuccess) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.PlayerID = r.varint()
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	return r.err
}

// KeepAlive is the liveness probe; the client echoes the nonce.
type KeepAlive struct {
	Nonce int64
}

func (*KeepAlive) ID() PacketID                    { return IDKeepAlive }
func (p *KeepAlive) MarshalBody(dst []byte) []byte { return appendI64(dst, p.Nonce) }
func (p *KeepAlive) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Nonce = r.i64()
	return r.err
}

// Chat is a chat message. Meterstick's response-time probe sends a chat
// message and measures the time until the sender receives its own message
// back (§3.5.1).
type Chat struct {
	Sender string
	Text   string
	// SentUnixNano is the client's send timestamp, echoed back by the
	// server, letting the probe compute round-trip time statelessly.
	SentUnixNano int64
}

func (*Chat) ID() PacketID { return IDChat }
func (p *Chat) MarshalBody(dst []byte) []byte {
	dst = appendString(dst, p.Sender)
	dst = appendString(dst, p.Text)
	return appendI64(dst, p.SentUnixNano)
}
func (p *Chat) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Sender = r.string()
	p.Text = r.string()
	p.SentUnixNano = r.i64()
	return r.err
}

// PlayerMove is a client movement input.
type PlayerMove struct {
	X, Y, Z float64
}

func (*PlayerMove) ID() PacketID { return IDPlayerMove }
func (p *PlayerMove) MarshalBody(dst []byte) []byte {
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	return appendF64(dst, p.Z)
}
func (p *PlayerMove) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	return r.err
}

// Player actions.
const (
	ActionDig   = 0
	ActionPlace = 1
)

// PlayerAction is a terrain modification request (dig or place).
type PlayerAction struct {
	Action  uint8
	X, Y, Z int32
	BlockID uint8
}

func (*PlayerAction) ID() PacketID { return IDPlayerAction }
func (p *PlayerAction) MarshalBody(dst []byte) []byte {
	dst = append(dst, p.Action)
	dst = appendI32(dst, p.X)
	dst = appendI32(dst, p.Y)
	dst = appendI32(dst, p.Z)
	return append(dst, p.BlockID)
}
func (p *PlayerAction) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Action = r.u8()
	p.X, p.Y, p.Z = r.i32(), r.i32(), r.i32()
	p.BlockID = r.u8()
	return r.err
}

// BlockChange is a terrain state update.
type BlockChange struct {
	X, Y, Z int32
	BlockID uint8
	Meta    uint8
}

func (*BlockChange) ID() PacketID { return IDBlockChange }
func (p *BlockChange) MarshalBody(dst []byte) []byte {
	dst = appendI32(dst, p.X)
	dst = appendI32(dst, p.Y)
	dst = appendI32(dst, p.Z)
	return append(dst, p.BlockID, p.Meta)
}
func (p *BlockChange) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.X, p.Y, p.Z = r.i32(), r.i32(), r.i32()
	p.BlockID = r.u8()
	p.Meta = r.u8()
	return r.err
}

// ChunkData is a bulk terrain transfer (sent on join and chunk load).
type ChunkData struct {
	ChunkX, ChunkZ int32
	Data           []byte
}

func (*ChunkData) ID() PacketID { return IDChunkData }
func (p *ChunkData) MarshalBody(dst []byte) []byte {
	dst = appendI32(dst, p.ChunkX)
	dst = appendI32(dst, p.ChunkZ)
	dst = AppendVarint(dst, int32(len(p.Data)))
	return append(dst, p.Data...)
}
func (p *ChunkData) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.ChunkX, p.ChunkZ = r.i32(), r.i32()
	p.Data = append([]byte(nil), r.bytes()...)
	return r.err
}

// SpawnEntity announces a new entity.
type SpawnEntity struct {
	EntityID int32
	Kind     uint8
	X, Y, Z  float64
}

func (*SpawnEntity) ID() PacketID { return IDSpawnEntity }
func (p *SpawnEntity) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, p.EntityID)
	dst = append(dst, p.Kind)
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	return appendF64(dst, p.Z)
}
func (p *SpawnEntity) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.EntityID = r.varint()
	p.Kind = r.u8()
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	return r.err
}

// EntityMove updates an entity's position.
type EntityMove struct {
	EntityID int32
	X, Y, Z  float64
}

func (*EntityMove) ID() PacketID { return IDEntityMove }
func (p *EntityMove) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, p.EntityID)
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	return appendF64(dst, p.Z)
}
func (p *EntityMove) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.EntityID = r.varint()
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	return r.err
}

// DestroyEntity removes an entity.
type DestroyEntity struct {
	EntityID int32
}

func (*DestroyEntity) ID() PacketID                    { return IDDestroyEntity }
func (p *DestroyEntity) MarshalBody(dst []byte) []byte { return AppendVarint(dst, p.EntityID) }
func (p *DestroyEntity) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.EntityID = r.varint()
	return r.err
}

// PlayerPosition is the server's authoritative position correction.
type PlayerPosition struct {
	X, Y, Z float64
}

func (*PlayerPosition) ID() PacketID { return IDPlayerPosition }
func (p *PlayerPosition) MarshalBody(dst []byte) []byte {
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	return appendF64(dst, p.Z)
}
func (p *PlayerPosition) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.X, p.Y, p.Z = r.f64(), r.f64(), r.f64()
	return r.err
}

// TimeUpdate carries the server's tick number.
type TimeUpdate struct {
	Tick int64
}

func (*TimeUpdate) ID() PacketID                    { return IDTimeUpdate }
func (p *TimeUpdate) MarshalBody(dst []byte) []byte { return appendI64(dst, p.Tick) }
func (p *TimeUpdate) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Tick = r.i64()
	return r.err
}

// Disconnect closes the connection with a reason.
type Disconnect struct {
	Reason string
}

func (*Disconnect) ID() PacketID                    { return IDDisconnect }
func (p *Disconnect) MarshalBody(dst []byte) []byte { return appendString(dst, p.Reason) }
func (p *Disconnect) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Reason = r.string()
	return r.err
}

// EntityMoveRel is a compact delta-encoded entity movement update, the
// high-frequency packet real MLG protocols use for entity position streams
// (full EntityMove packets are reserved for teleports).
type EntityMoveRel struct {
	EntityID   int32
	DX, DY, DZ int8 // deltas in 1/32 block
}

func (*EntityMoveRel) ID() PacketID { return IDEntityMoveRel }
func (p *EntityMoveRel) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, p.EntityID)
	return append(dst, byte(p.DX), byte(p.DY), byte(p.DZ))
}
func (p *EntityMoveRel) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.EntityID = r.varint()
	p.DX, p.DY, p.DZ = int8(r.u8()), int8(r.u8()), int8(r.u8())
	return r.err
}

// WorldStream is a bulk terrain/light refresh blob: the steady background
// stream (chunk-border loads, lighting batches, sound/particle state) that
// dominates an MLG's byte volume even though it is a small share of its
// message count (Table 8).
type WorldStream struct {
	Data []byte
}

func (*WorldStream) ID() PacketID { return IDWorldStream }
func (p *WorldStream) MarshalBody(dst []byte) []byte {
	dst = AppendVarint(dst, int32(len(p.Data)))
	return append(dst, p.Data...)
}
func (p *WorldStream) UnmarshalBody(src []byte) error {
	r := reader{b: src}
	p.Data = append([]byte(nil), r.bytes()...)
	return r.err
}

// New constructs an empty packet of the given ID, for decode dispatch.
func New(id PacketID) (Packet, error) {
	switch id {
	case IDHandshake:
		return &Handshake{}, nil
	case IDLogin:
		return &Login{}, nil
	case IDLoginSuccess:
		return &LoginSuccess{}, nil
	case IDKeepAlive:
		return &KeepAlive{}, nil
	case IDChat:
		return &Chat{}, nil
	case IDPlayerMove:
		return &PlayerMove{}, nil
	case IDPlayerAction:
		return &PlayerAction{}, nil
	case IDBlockChange:
		return &BlockChange{}, nil
	case IDChunkData:
		return &ChunkData{}, nil
	case IDSpawnEntity:
		return &SpawnEntity{}, nil
	case IDEntityMove:
		return &EntityMove{}, nil
	case IDDestroyEntity:
		return &DestroyEntity{}, nil
	case IDPlayerPosition:
		return &PlayerPosition{}, nil
	case IDTimeUpdate:
		return &TimeUpdate{}, nil
	case IDDisconnect:
		return &Disconnect{}, nil
	case IDEntityMoveRel:
		return &EntityMoveRel{}, nil
	case IDWorldStream:
		return &WorldStream{}, nil
	case IDShardHello:
		return &ShardHello{}, nil
	case IDChunkMirror:
		return &ChunkMirror{}, nil
	case IDEntityHandoff:
		return &EntityHandoff{}, nil
	case IDShardBarrier:
		return &ShardBarrier{}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown packet id %#x", int32(id))
	}
}
