package protocol

// Encode-once broadcast frames. A broadcast packet (block change, chat,
// keep-alive, time update, entity move) historically was re-marshalled once
// per recipient; a Frame is the packet's complete wire representation —
// length prefix, ID varint, body — produced exactly once and then written
// to N connections as a raw byte copy via Conn.WriteFrame.
//
// Frames are encoded by appending to a caller-owned arena, so a tick's
// broadcast frames can share one reused buffer. A frame stays valid until
// its arena is reused. Conn.WriteFrame copies the bytes into the
// connection's batch, so no staged or queued batch aliases the arena, and
// the arena may be reused as soon as every WriteFrame of its frames has
// returned.

// Frame is one packet in its full wire form: encoded once for broadcast
// (EncodeFrame), or read undecoded for relay (Conn.ReadFrame). The zero
// Frame is empty and must not be written.
type Frame struct {
	data   []byte
	entity bool
}

// EncodeFrame appends p's wire frame to arena and returns the grown arena
// and a Frame that views the appended bytes (capped, so appending to it
// cannot write into the arena). A nil arena gives the frame its own slice.
//
// The frame stays valid until the arena is reused: truncated and appended
// to again. Growing the arena is safe: a frame sliced before the arena
// grew keeps pointing at the array it was encoded into. Conn.WriteFrame
// copies, so a written frame's arena may be reused once WriteFrame returns.
func EncodeFrame(arena []byte, p Packet) ([]byte, Frame) {
	start := len(arena)
	arena = AppendFrame(arena, p)
	return arena, Frame{data: arena[start:len(arena):len(arena)], entity: EntityRelated(p)}
}

// Len returns the frame's size on the wire in bytes.
func (f Frame) Len() int { return len(f.data) }

// EntityRelated reports whether the framed packet carries entity state (the
// Table 8 classification), preserved so per-connection stats stay exact on
// the raw-copy path.
func (f Frame) EntityRelated() bool { return f.entity }

// AppendFrame appends p's complete wire frame (length prefix, packet ID,
// body) to dst and returns the extended slice. The body is marshalled
// directly into dst; the length prefix is spliced in front afterwards, so
// the packet is encoded exactly once with no intermediate buffer.
func AppendFrame(dst []byte, p Packet) []byte {
	payloadStart := len(dst)
	dst = AppendVarint(dst, int32(p.ID()))
	dst = p.MarshalBody(dst)
	n := len(dst) - payloadStart

	var hdr [maxVarintBytes]byte
	h := AppendVarint(hdr[:0], int32(n))
	dst = append(dst, h...) // grow by the header size
	copy(dst[payloadStart+len(h):], dst[payloadStart:payloadStart+n])
	copy(dst[payloadStart:], h)
	return dst
}
