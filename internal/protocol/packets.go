package protocol

import (
	"encoding/binary"
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

func appendString(dst []byte, s string) []byte {
	dst = AppendVarint(dst, int32(len(s)))
	return append(dst, s...)
}

func readString(src []byte) (string, []byte, error) {
	n, rest, err := readVarintBytes(src)
	if err != nil {
		return "", nil, err
	}
	if n < 0 || int(n) > len(rest) {
		return "", nil, fmt.Errorf("protocol: string length %d exceeds buffer %d", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
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

func readF64(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("protocol: short float64")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(src)), src[8:], nil
}

func appendI64(dst []byte, v int64) []byte { return binary.BigEndian.AppendUint64(dst, uint64(v)) }

func readI64(src []byte) (int64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("protocol: short int64")
	}
	return int64(binary.BigEndian.Uint64(src)), src[8:], nil
}

func appendI32(dst []byte, v int32) []byte { return binary.BigEndian.AppendUint32(dst, uint32(v)) }

func readI32(src []byte) (int32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("protocol: short int32")
	}
	return int32(binary.BigEndian.Uint32(src)), src[4:], nil
}

func readU8(src []byte) (byte, []byte, error) {
	if len(src) < 1 {
		return 0, nil, fmt.Errorf("protocol: short byte")
	}
	return src[0], src[1:], nil
}

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
	v, _, err := readVarintBytes(src)
	p.Version = v
	return err
}

// Login carries the player name.
type Login struct {
	Name string
}

func (*Login) ID() PacketID                    { return IDLogin }
func (p *Login) MarshalBody(dst []byte) []byte { return appendString(dst, p.Name) }
func (p *Login) UnmarshalBody(src []byte) error {
	s, _, err := readString(src)
	p.Name = s
	return err
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
	var err error
	if p.PlayerID, src, err = readVarintBytes(src); err != nil {
		return err
	}
	if p.X, src, err = readF64(src); err != nil {
		return err
	}
	if p.Y, src, err = readF64(src); err != nil {
		return err
	}
	p.Z, _, err = readF64(src)
	return err
}

// KeepAlive is the liveness probe; the client echoes the nonce.
type KeepAlive struct {
	Nonce int64
}

func (*KeepAlive) ID() PacketID                    { return IDKeepAlive }
func (p *KeepAlive) MarshalBody(dst []byte) []byte { return appendI64(dst, p.Nonce) }
func (p *KeepAlive) UnmarshalBody(src []byte) error {
	v, _, err := readI64(src)
	p.Nonce = v
	return err
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
	var err error
	if p.Sender, src, err = readString(src); err != nil {
		return err
	}
	if p.Text, src, err = readString(src); err != nil {
		return err
	}
	p.SentUnixNano, _, err = readI64(src)
	return err
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
	var err error
	if p.X, src, err = readF64(src); err != nil {
		return err
	}
	if p.Y, src, err = readF64(src); err != nil {
		return err
	}
	p.Z, _, err = readF64(src)
	return err
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
	var err error
	if p.Action, src, err = readU8(src); err != nil {
		return err
	}
	if p.X, src, err = readI32(src); err != nil {
		return err
	}
	if p.Y, src, err = readI32(src); err != nil {
		return err
	}
	if p.Z, src, err = readI32(src); err != nil {
		return err
	}
	p.BlockID, _, err = readU8(src)
	return err
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
	var err error
	if p.X, src, err = readI32(src); err != nil {
		return err
	}
	if p.Y, src, err = readI32(src); err != nil {
		return err
	}
	if p.Z, src, err = readI32(src); err != nil {
		return err
	}
	if p.BlockID, src, err = readU8(src); err != nil {
		return err
	}
	p.Meta, _, err = readU8(src)
	return err
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
	var err error
	if p.ChunkX, src, err = readI32(src); err != nil {
		return err
	}
	if p.ChunkZ, src, err = readI32(src); err != nil {
		return err
	}
	var n int32
	if n, src, err = readVarintBytes(src); err != nil {
		return err
	}
	if int(n) > len(src) || n < 0 {
		return fmt.Errorf("protocol: chunk data length %d exceeds buffer", n)
	}
	p.Data = append([]byte(nil), src[:n]...)
	return nil
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
	var err error
	if p.EntityID, src, err = readVarintBytes(src); err != nil {
		return err
	}
	if p.Kind, src, err = readU8(src); err != nil {
		return err
	}
	if p.X, src, err = readF64(src); err != nil {
		return err
	}
	if p.Y, src, err = readF64(src); err != nil {
		return err
	}
	p.Z, _, err = readF64(src)
	return err
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
	var err error
	if p.EntityID, src, err = readVarintBytes(src); err != nil {
		return err
	}
	if p.X, src, err = readF64(src); err != nil {
		return err
	}
	if p.Y, src, err = readF64(src); err != nil {
		return err
	}
	p.Z, _, err = readF64(src)
	return err
}

// DestroyEntity removes an entity.
type DestroyEntity struct {
	EntityID int32
}

func (*DestroyEntity) ID() PacketID                    { return IDDestroyEntity }
func (p *DestroyEntity) MarshalBody(dst []byte) []byte { return AppendVarint(dst, p.EntityID) }
func (p *DestroyEntity) UnmarshalBody(src []byte) error {
	v, _, err := readVarintBytes(src)
	p.EntityID = v
	return err
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
	var err error
	if p.X, src, err = readF64(src); err != nil {
		return err
	}
	if p.Y, src, err = readF64(src); err != nil {
		return err
	}
	p.Z, _, err = readF64(src)
	return err
}

// TimeUpdate carries the server's tick number.
type TimeUpdate struct {
	Tick int64
}

func (*TimeUpdate) ID() PacketID                    { return IDTimeUpdate }
func (p *TimeUpdate) MarshalBody(dst []byte) []byte { return appendI64(dst, p.Tick) }
func (p *TimeUpdate) UnmarshalBody(src []byte) error {
	v, _, err := readI64(src)
	p.Tick = v
	return err
}

// Disconnect closes the connection with a reason.
type Disconnect struct {
	Reason string
}

func (*Disconnect) ID() PacketID                    { return IDDisconnect }
func (p *Disconnect) MarshalBody(dst []byte) []byte { return appendString(dst, p.Reason) }
func (p *Disconnect) UnmarshalBody(src []byte) error {
	s, _, err := readString(src)
	p.Reason = s
	return err
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
	var err error
	if p.EntityID, src, err = readVarintBytes(src); err != nil {
		return err
	}
	if len(src) < 3 {
		return fmt.Errorf("protocol: short entity move rel")
	}
	p.DX, p.DY, p.DZ = int8(src[0]), int8(src[1]), int8(src[2])
	return nil
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
	n, rest, err := readVarintBytes(src)
	if err != nil {
		return err
	}
	if n < 0 || int(n) > len(rest) {
		return fmt.Errorf("protocol: world stream length %d exceeds buffer", n)
	}
	p.Data = append([]byte(nil), rest[:n]...)
	return nil
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
