package protocol

// Fuzz targets for the wire codec. The seed corpus below runs as ordinary
// cases under `go test ./...`; `go test -fuzz=FuzzPacketDecode` (or
// -fuzz=FuzzVarint) explores further.

import (
	"bytes"
	"testing"
)

// FuzzVarint: every int32 must survive an encode/decode round trip, and the
// encoded length must match VarintLen.
func FuzzVarint(f *testing.F) {
	for _, v := range []int32{0, 1, -1, 127, 128, 300, 1 << 13, -1 << 28, 1<<31 - 1, -1 << 31} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int32) {
		enc := AppendVarint(nil, v)
		if len(enc) != VarintLen(v) {
			t.Fatalf("VarintLen(%d) = %d, encoded %d bytes", v, VarintLen(v), len(enc))
		}
		if len(enc) > maxVarintBytes {
			t.Fatalf("encoding of %d is %d bytes, max %d", v, len(enc), maxVarintBytes)
		}
		got, err := ReadVarint(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of freshly encoded %d: %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
		// The buffer-based decoder must agree and consume exactly the
		// encoding.
		got2, rest, err := readVarintBytes(enc)
		if err != nil || got2 != v || len(rest) != 0 {
			t.Fatalf("readVarintBytes(%x) = %d, rest %d, err %v", enc, got2, len(rest), err)
		}
	})
}

// FuzzVarintDecode: arbitrary bytes must never panic the decoders, and on
// success a re-encode must decode to the same value.
func FuzzVarintDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x80})                               // truncated continuation
	f.Add([]byte{0x80, 0x00})                         // non-canonical zero
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // too long
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := readVarintBytes(data)
		if err != nil {
			return
		}
		enc := AppendVarint(nil, v)
		v2, _, err := readVarintBytes(enc)
		if err != nil || v2 != v {
			t.Fatalf("canonical re-encode of %d decodes to %d (err %v)", v, v2, err)
		}
	})
}

// fuzzSeedPackets returns one populated instance of every packet type, so
// the corpus covers each body layout.
func fuzzSeedPackets() []Packet {
	return []Packet{
		&Handshake{Version: ProtocolVersion},
		&Login{Name: "player-01"},
		&LoginSuccess{PlayerID: 17, X: 8.5, Y: 11, Z: 8.5},
		&KeepAlive{Nonce: 1 << 40},
		&Chat{Sender: "bot", Text: "probe-000001", SentUnixNano: 1234567890},
		&PlayerMove{X: 1.5, Y: -2.25, Z: 1e9},
		&PlayerAction{Action: ActionPlace, X: -3, Y: 12, Z: 40, BlockID: 7},
		&BlockChange{X: 100, Y: 30, Z: -100, BlockID: 3, Meta: 9},
		&ChunkData{ChunkX: -5, ChunkZ: 12, Data: []byte{1, 2, 3, 4}},
		&SpawnEntity{EntityID: 9999, Kind: 2, X: 0.1, Y: 0.2, Z: 0.3},
		&EntityMove{EntityID: 1 << 20, X: -1, Y: 64, Z: 3.25},
		&DestroyEntity{EntityID: 42},
		&PlayerPosition{X: 5, Y: 6, Z: 7},
		&TimeUpdate{Tick: 1 << 33},
		&Disconnect{Reason: "bad handshake"},
		&EntityMoveRel{EntityID: 7, DX: -128, DY: 127, DZ: 1},
		&WorldStream{Data: bytes.Repeat([]byte{0xAB}, 64)},
		&ShardHello{Shard: 1, Shards: 2},
		&ChunkMirror{ChunkX: 16, ChunkZ: -3, Data: []byte{0, 1, 1, 0, 0xFF, 0xFF, 0, 0}},
		&EntityHandoff{Kind: 3, X: 255.5, Y: 11, Z: -8.25, VX: 0.4, VY: -0.08, VZ: 0,
			OnGround: true, Age: 1200, ItemType: 4, Fuse: 40, SeedKey: 0xDEADBEEFCAFE, WanderCooldown: 17},
		&ShardBarrier{Tick: 1 << 20, Handoffs: 3},
	}
}

// FuzzPacketDecode: for every packet ID, arbitrary bodies must never panic
// UnmarshalBody, and any body that decodes must re-marshal canonically:
// marshal(decode(body)) must itself decode and re-marshal to the same bytes.
func FuzzPacketDecode(f *testing.F) {
	for _, p := range fuzzSeedPackets() {
		f.Add(int32(p.ID()), p.MarshalBody(nil))
	}
	f.Add(int32(IDChat), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // oversized string length
	f.Add(int32(IDChunkData), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x7F})
	f.Add(int32(0x16), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07, 1, 2, 3}) // retired ghost ID: must stay unknown
	// A hello in the old layout, with the retired trailing tick: the tail
	// is ignored and the body must re-marshal to the 8-byte canonical form.
	f.Add(int32(IDShardHello), appendI64((&ShardHello{Shard: 1, Shards: 2}).MarshalBody(nil), 1<<35))
	f.Fuzz(func(t *testing.T, id int32, body []byte) {
		p1, err := New(PacketID(id))
		if err != nil {
			return // unknown ID: nothing to decode
		}
		if p1.UnmarshalBody(body) != nil {
			return // malformed body rejected: fine
		}
		b1 := p1.MarshalBody(nil)
		p2, _ := New(PacketID(id))
		if err := p2.UnmarshalBody(b1); err != nil {
			t.Fatalf("id %#x: canonical re-marshal does not decode: %v\nbody: %x\nremarshal: %x",
				id, err, body, b1)
		}
		if b2 := p2.MarshalBody(nil); !bytes.Equal(b1, b2) {
			t.Fatalf("id %#x: re-marshal not canonical:\nfirst:  %x\nsecond: %x", id, b1, b2)
		}
	})
}

// FuzzPacketRoundTrip drives the framed codec end to end: a marshaled
// packet written as a frame must read back as the same packet type with the
// same canonical body.
func FuzzPacketRoundTrip(f *testing.F) {
	for _, p := range fuzzSeedPackets() {
		f.Add(int32(p.ID()), p.MarshalBody(nil))
	}
	f.Fuzz(func(t *testing.T, id int32, body []byte) {
		p, err := New(PacketID(id))
		if err != nil || p.UnmarshalBody(body) != nil {
			return
		}
		var buf bytes.Buffer
		conn := NewConn(rwc{&buf})
		if _, err := conn.WritePacket(p); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, n, err := conn.ReadPacket()
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if n <= 0 {
			t.Fatalf("frame size %d", n)
		}
		if got.ID() != p.ID() {
			t.Fatalf("round trip changed packet ID %#x -> %#x", p.ID(), got.ID())
		}
		if !bytes.Equal(got.MarshalBody(nil), p.MarshalBody(nil)) {
			t.Fatalf("round trip changed body for ID %#x", p.ID())
		}
	})
}

// rwc adapts a buffer into the ReadWriteCloser a Conn wants.
type rwc struct{ *bytes.Buffer }

func (rwc) Close() error { return nil }
