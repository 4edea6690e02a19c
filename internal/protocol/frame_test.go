package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAppendFrameMatchesWritePacket: the encode-once frame of every packet
// type must be byte-identical to what the per-packet WritePacket path puts
// on the wire.
func TestAppendFrameMatchesWritePacket(t *testing.T) {
	for _, p := range allPackets() {
		var buf bytes.Buffer
		c := NewConn(rwc{&buf})
		n, err := c.WritePacket(p)
		if err != nil {
			t.Fatalf("%T: write: %v", p, err)
		}
		frame := AppendFrame(nil, p)
		if !bytes.Equal(frame, buf.Bytes()) {
			t.Errorf("%T: AppendFrame %x != WritePacket %x", p, frame, buf.Bytes())
		}
		if n != len(frame) {
			t.Errorf("%T: WritePacket size %d, frame size %d", p, n, len(frame))
		}
		_, f := EncodeFrame(nil, p)
		if f.Len() != len(frame) {
			t.Errorf("%T: EncodeFrame.Len %d, want %d", p, f.Len(), len(frame))
		}
		if f.EntityRelated() != EntityRelated(p) {
			t.Errorf("%T: frame entity classification diverges", p)
		}
	}
}

// TestEncodeFrameArena: frames appended to one arena, which grows under
// them, each keep their own packet's bytes, and a frame is capped so an
// append to it cannot write into the frame after it.
func TestEncodeFrameArena(t *testing.T) {
	var arena []byte
	pkts := allPackets()
	frames := make([]Frame, len(pkts))
	for i, p := range pkts {
		arena, frames[i] = EncodeFrame(arena, p)
	}
	for i, p := range pkts {
		if !bytes.Equal(frames[i].data, AppendFrame(nil, p)) {
			t.Errorf("%T: frame %d changed after later encodes", p, i)
		}
	}
	arena, first := EncodeFrame(make([]byte, 0, 64), &KeepAlive{Nonce: 1})
	_, second := EncodeFrame(arena, &KeepAlive{Nonce: 2})
	_ = append(first.data, 0xFF)
	if !bytes.Equal(second.data, AppendFrame(nil, &KeepAlive{Nonce: 2})) {
		t.Fatal("appending to a frame overwrote the next frame in the arena")
	}
}

// TestBatchedFrameStreamByteIdentical: a full packet sequence written with
// encode-once frames inside one batch must produce the exact byte stream of
// the legacy flush-per-packet path, and decode back to the same packets.
func TestBatchedFrameStreamByteIdentical(t *testing.T) {
	pkts := allPackets()

	var perPacket bytes.Buffer
	ca := NewConn(rwc{&perPacket})
	for _, p := range pkts {
		if _, err := ca.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}

	var batched bytes.Buffer
	cb := NewConn(rwc{&batched})
	cb.BeginBatch()
	for _, p := range pkts {
		_, f := EncodeFrame(nil, p)
		if _, err := cb.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Len() != 0 {
		t.Fatalf("batch leaked %d bytes before FlushBatch", batched.Len())
	}
	if err := cb.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(perPacket.Bytes(), batched.Bytes()) {
		t.Fatalf("batched stream differs from per-packet stream\nper-packet: %x\nbatched:    %x",
			perPacket.Bytes(), batched.Bytes())
	}

	// The batched stream must decode back to the same packets.
	cr := NewConn(rwc{&batched})
	for _, want := range pkts {
		got, _, err := cr.ReadPacket()
		if err != nil {
			t.Fatalf("decode %T from batched stream: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batched round trip: sent %+v, got %+v", want, got)
		}
	}
}

// TestNestedBatchesFlushOnce: inner FlushBatch must not flush while an
// outer batch is open.
func TestNestedBatchesFlushOnce(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(rwc{&buf})
	c.BeginBatch()
	c.BeginBatch()
	_, f := EncodeFrame(nil, &KeepAlive{Nonce: 7})
	if _, err := c.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("inner FlushBatch flushed while outer batch open")
	}
	if err := c.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("outer FlushBatch did not flush")
	}
}

// TestWriteFrameStats: the raw-copy path must keep the Table 8 counters
// exact, including the entity classification.
func TestWriteFrameStats(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(rwc{&buf})
	_, move := EncodeFrame(nil, &EntityMove{EntityID: 9, X: 1, Y: 2, Z: 3})
	_, chat := EncodeFrame(nil, &Chat{Sender: "a", Text: "hi"})
	c.WriteFrame(move)
	c.WriteFrame(move)
	c.WriteFrame(chat)
	st := c.Stats()
	if st.MsgsOut != 3 || st.EntityMsgs != 2 {
		t.Fatalf("msgs = %d (entity %d), want 3 (2)", st.MsgsOut, st.EntityMsgs)
	}
	wantBytes := int64(2*move.Len() + chat.Len())
	if st.BytesOut != wantBytes || st.EntityBytes != int64(2*move.Len()) {
		t.Fatalf("bytes = %d (entity %d), want %d (%d)",
			st.BytesOut, st.EntityBytes, wantBytes, 2*move.Len())
	}
	if int64(buf.Len()) != wantBytes {
		t.Fatalf("wire bytes %d, want %d", buf.Len(), wantBytes)
	}
}

// TestReadVarintBytesTruncatedVsOverlong: a buffer that merely ends
// mid-varint is a truncation, not a malformed overlong encoding.
func TestReadVarintBytesTruncatedVsOverlong(t *testing.T) {
	for _, src := range [][]byte{nil, {}, {0x80}, {0xFF, 0xFF}, {0x80, 0x80, 0x80, 0x80}} {
		if _, _, err := readVarintBytes(src); err != ErrVarintTruncated {
			t.Errorf("readVarintBytes(%x) err = %v, want ErrVarintTruncated", src, err)
		}
	}
	for _, src := range [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x80},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	} {
		if _, _, err := readVarintBytes(src); err != ErrVarintTooLong {
			t.Errorf("readVarintBytes(%x) err = %v, want ErrVarintTooLong", src, err)
		}
	}
}

// TestReadFrameMatchesWritePacket: for every packet layout, ReadFrame hands
// back exactly the bytes WritePacket put on the wire, with the packet's ID
// and entity classification, and counts inbound traffic as ReadPacket does.
func TestReadFrameMatchesWritePacket(t *testing.T) {
	var wire bytes.Buffer
	w := NewConn(rwc{&wire})
	var frames [][]byte
	for _, p := range fuzzSeedPackets() {
		start := wire.Len()
		if _, err := w.WritePacket(p); err != nil {
			t.Fatalf("%T: write: %v", p, err)
		}
		frames = append(frames, append([]byte(nil), wire.Bytes()[start:]...))
	}

	byFrame := NewConn(rwc{bytes.NewBuffer(append([]byte(nil), wire.Bytes()...))})
	byPacket := NewConn(rwc{bytes.NewBuffer(append([]byte(nil), wire.Bytes()...))})
	for i, p := range fuzzSeedPackets() {
		f, id, err := byFrame.ReadFrame()
		if err != nil {
			t.Fatalf("%T: ReadFrame: %v", p, err)
		}
		if id != p.ID() || f.EntityRelated() != EntityRelated(p) {
			t.Errorf("%T: frame id %#x entity %t, want %#x %t", p, int32(id), f.EntityRelated(), int32(p.ID()), EntityRelated(p))
		}
		if !bytes.Equal(f.data, frames[i]) {
			t.Errorf("%T: ReadFrame %x, WritePacket wrote %x", p, f.data, frames[i])
		}
		if _, n, err := byPacket.ReadPacket(); err != nil || n != f.Len() {
			t.Fatalf("%T: ReadPacket size %d err %v, frame size %d", p, n, err, f.Len())
		}
	}
	if a, b := byFrame.Stats(), byPacket.Stats(); a != b || a.MsgsIn != int64(len(frames)) || a.BytesIn != int64(wire.Len()) {
		t.Fatalf("ReadFrame stats %+v, ReadPacket stats %+v, wire %d bytes in %d frames", a, b, wire.Len(), len(frames))
	}
}

// TestReadFrameOversizedNotRetained: a frame larger than maxPooledReadBuf
// reads intact through a transient buffer and leaves the pooled one as it
// was, so one large frame does not pin its size for the connection's life.
func TestReadFrameOversizedNotRetained(t *testing.T) {
	big := &WorldStream{Data: bytes.Repeat([]byte{0x5A}, maxPooledReadBuf+1000)}
	small := &KeepAlive{Nonce: 9}
	var wire bytes.Buffer
	w := NewConn(rwc{&wire})
	for _, p := range []Packet{small, big, small} {
		if _, err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConn(rwc{&wire})
	if _, _, err := c.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	pooled := cap(c.rbuf)
	f, id, err := c.ReadFrame()
	if err != nil || id != IDWorldStream {
		t.Fatalf("oversized frame: id %#x err %v", int32(id), err)
	}
	if !bytes.Equal(f.data, AppendFrame(nil, big)) {
		t.Fatal("oversized frame corrupted")
	}
	if cap(c.rbuf) != pooled {
		t.Fatalf("pooled buffer grew from %d to %d bytes for an oversized frame", pooled, cap(c.rbuf))
	}
	if f, _, err := c.ReadFrame(); err != nil || !bytes.Equal(f.data, AppendFrame(nil, small)) {
		t.Fatalf("frame after the oversized one: %x, %v", f.data, err)
	}
}

// TestReadPacketReusesBuffer: decoded packets must own their data — nothing
// may alias the connection's pooled read buffer across packets.
func TestReadPacketReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(rwc{&buf})
	first := &Chat{Sender: "alice", Text: "first message"}
	second := &Chat{Sender: "bob", Text: "second message"}
	c.WritePacket(first)
	c.WritePacket(second)

	p1, _, err := c.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := c.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.(*Chat); got.Sender != "alice" || got.Text != "first message" {
		t.Fatalf("first packet corrupted by buffer reuse: %+v", got)
	}
	if got := p2.(*Chat); got.Sender != "bob" || got.Text != "second message" {
		t.Fatalf("second packet wrong: %+v", got)
	}
}
