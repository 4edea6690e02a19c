package protocol

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []int32{0, 1, 127, 128, 255, 300, 16383, 16384, 1<<28 - 1, -1, -100}
	for _, v := range cases {
		enc := AppendVarint(nil, v)
		if len(enc) != VarintLen(v) {
			t.Errorf("VarintLen(%d) = %d, encoded %d bytes", v, VarintLen(v), len(enc))
		}
		got, err := ReadVarint(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(v int32) bool {
		got, err := ReadVarint(bytes.NewReader(AppendVarint(nil, v)))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintTooLong(t *testing.T) {
	if _, err := ReadVarint(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80})); err != ErrVarintTooLong {
		t.Fatalf("err = %v, want ErrVarintTooLong", err)
	}
}

// allPackets returns one populated instance of every packet type.
func allPackets() []Packet {
	return []Packet{
		&Handshake{Version: ProtocolVersion},
		&Login{Name: "bot-17"},
		&LoginSuccess{PlayerID: 42, X: 1.5, Y: 11, Z: -3.25},
		&KeepAlive{Nonce: -99887766},
		&Chat{Sender: "bot-17", Text: "probe-00042", SentUnixNano: 1234567890123},
		&PlayerMove{X: 10.25, Y: 11, Z: -4.75},
		&PlayerAction{Action: ActionPlace, X: 5, Y: 12, Z: -7, BlockID: 12},
		&BlockChange{X: -100, Y: 30, Z: 200, BlockID: 8, Meta: 3},
		&ChunkData{ChunkX: -2, ChunkZ: 5, Data: []byte{1, 2, 3, 4, 5}},
		&SpawnEntity{EntityID: 900, Kind: 1, X: 0.5, Y: 20, Z: 0.5},
		&EntityMove{EntityID: 900, X: 1.5, Y: 19, Z: 0.5},
		&DestroyEntity{EntityID: 900},
		&PlayerPosition{X: 16.5, Y: 11, Z: 16.5},
		&TimeUpdate{Tick: 123456},
		&Disconnect{Reason: "server stopping"},
		&EntityMoveRel{EntityID: 900, DX: 3, DY: -2, DZ: 1},
		&WorldStream{Data: []byte{9, 8, 7}},
	}
}

func TestAllPacketsRoundTrip(t *testing.T) {
	for _, p := range allPackets() {
		body := p.MarshalBody(nil)
		fresh, err := New(p.ID())
		if err != nil {
			t.Fatalf("New(%#x): %v", int32(p.ID()), err)
		}
		if err := fresh.UnmarshalBody(body); err != nil {
			t.Fatalf("unmarshal %T: %v", p, err)
		}
		if !reflect.DeepEqual(p, fresh) {
			t.Errorf("%T round trip: sent %+v, got %+v", p, p, fresh)
		}
	}
}

func TestNewRejectsUnknownID(t *testing.T) {
	// 0x15 and 0x16, the retired halo entity ghost packets, must stay
	// unknown so a peer still sending them faults instead of being misread.
	for _, id := range []PacketID{0x15, 0x16, 0x7F} {
		if _, err := New(id); err == nil {
			t.Fatalf("expected error for unknown packet id %#x", int32(id))
		}
	}
}

// TestShardHelloBody: the hello carries the shard index and the cluster
// size, nothing else.
func TestShardHelloBody(t *testing.T) {
	if n := len((&ShardHello{Shard: 1, Shards: 2}).MarshalBody(nil)); n != 8 {
		t.Fatalf("hello body is %d bytes, want 8", n)
	}
}

func TestEntityRelatedClassification(t *testing.T) {
	wantEntity := map[PacketID]bool{
		IDSpawnEntity: true, IDEntityMove: true, IDEntityMoveRel: true,
		IDDestroyEntity: true,
	}
	for _, p := range allPackets() {
		if got := EntityRelated(p); got != wantEntity[p.ID()] {
			t.Errorf("EntityRelated(%T) = %v", p, got)
		}
	}
}

// TestTruncatedBodiesError: every strict prefix of every packet body is
// rejected, bodies that end in a length-prefixed string or blob included
// (their prefix then points past the end), and the full body decodes and
// re-marshals to the same bytes.
func TestTruncatedBodiesError(t *testing.T) {
	for _, p := range fuzzSeedPackets() {
		body := p.MarshalBody(nil)
		fresh, _ := New(p.ID())
		for n := 0; n < len(body); n++ {
			if err := fresh.UnmarshalBody(body[:n]); err == nil {
				t.Errorf("%T decoded a %d-byte prefix of its %d-byte body", p, n, len(body))
			}
		}
		if err := fresh.UnmarshalBody(body); err != nil {
			t.Errorf("%T: full body: %v", p, err)
		} else if got := fresh.MarshalBody(nil); !bytes.Equal(got, body) {
			t.Errorf("%T re-marshals %x, sent %x", p, got, body)
		}
	}
}

// TestUnmarshalBodyAllocs: decoding a fixed-size packet into an existing
// value allocates nothing, so the body reader stays on the stack. Packets
// that keep a string or a blob copy it and are left out.
func TestUnmarshalBodyAllocs(t *testing.T) {
	for _, p := range fuzzSeedPackets() {
		switch p.(type) {
		case *Login, *Chat, *Disconnect, *ChunkData, *WorldStream, *ChunkMirror:
			continue
		}
		body := p.MarshalBody(nil)
		fresh, _ := New(p.ID())
		if n := testing.AllocsPerRun(100, func() { fresh.UnmarshalBody(body) }); n != 0 {
			t.Errorf("%T: %.0f allocs per decode, want 0", p, n)
		}
	}
}

func TestConnOverPipe(t *testing.T) {
	client, server := net.Pipe()
	cc, sc := NewConn(client), NewConn(server)
	defer cc.Close()
	defer sc.Close()

	done := make(chan error, 1)
	go func() {
		for _, p := range allPackets() {
			if _, err := cc.WritePacket(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for _, want := range allPackets() {
		got, frame, err := sc.ReadPacket()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if frame <= 0 {
			t.Fatal("non-positive frame size")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("write: %v", err)
	}

	ws, rs := cc.Stats(), sc.Stats()
	if ws.MsgsOut != int64(len(allPackets())) {
		t.Errorf("writer MsgsOut = %d", ws.MsgsOut)
	}
	if rs.MsgsIn != int64(len(allPackets())) {
		t.Errorf("reader MsgsIn = %d", rs.MsgsIn)
	}
	if ws.BytesOut != rs.BytesIn {
		t.Errorf("bytes out %d != bytes in %d", ws.BytesOut, rs.BytesIn)
	}
	if ws.EntityMsgs != 4 {
		t.Errorf("entity msgs = %d, want 4", ws.EntityMsgs)
	}
	if ws.EntityBytes <= 0 || ws.EntityBytes >= ws.BytesOut {
		t.Errorf("entity bytes = %d of %d", ws.EntityBytes, ws.BytesOut)
	}
}

// TestLogIn: LogIn sends a Handshake and a Login for its name, and
// returns the answer only when it is a LoginSuccess.
func TestLogIn(t *testing.T) {
	for _, answer := range []Packet{&LoginSuccess{PlayerID: 7, X: 8.5}, &Disconnect{Reason: "full"}} {
		client, server := net.Pipe()
		cc, sc := NewConn(client), NewConn(server)
		go func() {
			defer sc.Close()
			want := []Packet{&Handshake{Version: ProtocolVersion}, &Login{Name: "bot-1"}}
			for _, w := range want {
				if got, _, err := sc.ReadPacket(); err != nil || !reflect.DeepEqual(got, w) {
					return
				}
			}
			sc.WritePacket(answer)
		}()
		ls, err := cc.LogIn("bot-1")
		cc.Close()
		if _, ok := answer.(*LoginSuccess); ok {
			if err != nil || !reflect.DeepEqual(ls, answer) {
				t.Errorf("LogIn = %+v, %v; want %+v", ls, err, answer)
			}
		} else if err == nil || ls != nil {
			t.Errorf("LogIn answered by %T = %+v, %v; want an error", answer, ls, err)
		}
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		sc := NewConn(c)
		defer sc.Close()
		for {
			p, _, err := sc.ReadPacket()
			if err != nil {
				return
			}
			// Echo chats back; that is the response-time probe path.
			if chat, ok := p.(*Chat); ok {
				if _, err := sc.WritePacket(chat); err != nil {
					return
				}
			}
		}
	}()

	cc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	sent := &Chat{Sender: "probe", Text: "hello", SentUnixNano: 777}
	if _, err := cc.WritePacket(sent); err != nil {
		t.Fatal(err)
	}
	got, _, err := cc.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("echo mismatch: %+v", got)
	}
}

func TestReadPacketRejectsBadFrame(t *testing.T) {
	client, server := net.Pipe()
	sc := NewConn(server)
	go func() {
		// A frame claiming an absurd length.
		client.Write(AppendVarint(nil, MaxFrameSize+1))
		client.Close()
	}()
	if _, _, err := sc.ReadPacket(); err == nil {
		t.Fatal("expected error on oversized frame")
	}
}

// Property: chat packets of arbitrary content survive the wire.
func TestChatRoundTripProperty(t *testing.T) {
	f := func(sender, text string, ts int64) bool {
		p := &Chat{Sender: sender, Text: text, SentUnixNano: ts}
		fresh := &Chat{}
		if err := fresh.UnmarshalBody(p.MarshalBody(nil)); err != nil {
			return false
		}
		return reflect.DeepEqual(p, fresh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
