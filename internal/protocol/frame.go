package protocol

// Encode-once broadcast frames. A broadcast packet (block change, chat,
// keep-alive, time update, entity move) historically was re-marshalled once
// per recipient; a Frame is the packet's complete wire representation —
// length prefix, ID varint, body — produced exactly once and then written
// to N connections as a raw byte copy via Conn.WriteFrame.

// Frame is one packet in its full wire form: encoded once for broadcast
// (EncodeFrame), or read undecoded for relay (Conn.ReadFrame). The zero
// Frame is empty and must not be written.
type Frame struct {
	data   []byte
	entity bool
}

// EncodeFrame marshals p once into a reusable Frame.
func EncodeFrame(p Packet) Frame {
	return Frame{data: AppendFrame(nil, p), entity: EntityRelated(p)}
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
