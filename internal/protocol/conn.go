package protocol

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameSize bounds a single packet frame; larger frames are rejected as
// malformed (protects against corrupt length prefixes).
const MaxFrameSize = 4 << 20

// maxPooledReadBuf caps the payload buffer a connection keeps between
// reads. Frames up to this size reuse the pooled buffer; larger (legal but
// rare) frames get a transient allocation instead, so one oversized frame
// cannot pin up to MaxFrameSize (4 MiB) per connection for its lifetime —
// at 10k connections that pin would cost 40 GiB.
const maxPooledReadBuf = 64 << 10

// Conn frames packets over a byte stream. It is safe for one concurrent
// reader and one concurrent writer. Byte and message counters feed the
// Table 8 network statistics; they are plain atomics so the hot write path
// pays no stats mutex.
type Conn struct {
	rw   io.ReadWriteCloser
	br   *bufio.Reader
	rbuf []byte // pooled payload buffer, owned by the reader goroutine

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte
	// batchDepth suspends the flush-per-packet discipline while > 0: writes
	// accumulate in bw and go out on the closing FlushBatch (or when the
	// buffer fills). Guarded by wmu.
	batchDepth int
	// aw, when non-nil, switches the connection into async-writer mode (see
	// StartWriter): writes stage into pending and enqueue at the flush
	// boundary instead of touching the socket. All three guarded by wmu.
	aw           *connWriter
	pending      []byte
	pendingStats outStats

	msgsOut      atomic.Int64
	bytesOut     atomic.Int64
	entityMsgs   atomic.Int64
	entityBytes  atomic.Int64
	msgsIn       atomic.Int64
	bytesIn      atomic.Int64
	lastActivity atomic.Int64 // unix nanoseconds
}

// NewConn wraps a stream (usually a *net.TCPConn) in a packet framer.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{
		rw: rw,
		br: bufio.NewReaderSize(rw, 32<<10),
		bw: bufio.NewWriterSize(rw, 32<<10),
	}
}

// Dial connects a packet conn to a TCP address.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol dial: %w", err)
	}
	return NewConn(c), nil
}

// noteOut records outbound traffic for one packet of the given frame size.
func (c *Conn) noteOut(frame int, entity bool) {
	c.msgsOut.Add(1)
	c.bytesOut.Add(int64(frame))
	if entity {
		c.entityMsgs.Add(1)
		c.entityBytes.Add(int64(frame))
	}
	c.lastActivity.Store(time.Now().UnixNano())
}

// flushLocked flushes unless a batch is open; caller holds wmu.
func (c *Conn) flushLocked() error {
	if c.batchDepth > 0 {
		return nil
	}
	return c.bw.Flush()
}

// WritePacket frames and sends one packet, returning the frame size in
// bytes. Outside a batch it flushes immediately (game traffic is latency
// sensitive); inside a BeginBatch/FlushBatch window the bytes ride the
// batch. In async-writer mode nothing touches the socket: the frame stages
// onto the in-progress batch and, at the flush boundary, enqueues onto the
// bounded writer queue — a full queue returns ErrBacklog, a dead peer the
// writer's sticky error.
func (c *Conn) WritePacket(p Packet) (int, error) {
	c.wmu.Lock()
	c.wbuf = AppendFrame(c.wbuf[:0], p)
	frame := len(c.wbuf)
	if c.aw != nil {
		c.appendAsyncLocked(c.wbuf, EntityRelated(p))
		var err error
		if c.batchDepth == 0 {
			err = c.enqueueLocked()
		}
		c.wmu.Unlock()
		return frame, err
	}
	if _, err := c.bw.Write(c.wbuf); err != nil {
		c.wmu.Unlock()
		return 0, err
	}
	if err := c.flushLocked(); err != nil {
		c.wmu.Unlock()
		return 0, err
	}
	c.wmu.Unlock()
	c.noteOut(frame, EntityRelated(p))
	return frame, nil
}

// WriteFrame sends an already-encoded frame as a raw byte copy — the
// broadcast fast path: the packet was marshalled once (EncodeFrame) and
// fans out to N connections without re-encoding. Flush and async-mode
// discipline match WritePacket.
func (c *Conn) WriteFrame(f Frame) (int, error) {
	c.wmu.Lock()
	if c.aw != nil {
		c.appendAsyncLocked(f.data, f.entity)
		var err error
		if c.batchDepth == 0 {
			err = c.enqueueLocked()
		}
		c.wmu.Unlock()
		return len(f.data), err
	}
	if _, err := c.bw.Write(f.data); err != nil {
		c.wmu.Unlock()
		return 0, err
	}
	if err := c.flushLocked(); err != nil {
		c.wmu.Unlock()
		return 0, err
	}
	c.wmu.Unlock()
	c.noteOut(len(f.data), f.entity)
	return len(f.data), nil
}

// BeginBatch opens a batch window: subsequent writes accumulate in the
// connection's buffer instead of flushing per packet. Batches nest; each
// BeginBatch must be paired with a FlushBatch. The server's dissemination
// phase wraps each player's per-tick sends in one batch, turning a
// flush (syscall) per packet into one per player per tick.
func (c *Conn) BeginBatch() {
	c.wmu.Lock()
	c.batchDepth++
	c.wmu.Unlock()
}

// FlushBatch closes the innermost batch window and, when the last one
// closes, flushes everything accumulated. In async-writer mode the closing
// flush enqueues the batch instead of writing it: ErrBacklog means the
// whole batch was dropped (the peer is not draining), any other error is
// the writer's sticky fault.
func (c *Conn) FlushBatch() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.batchDepth > 0 {
		c.batchDepth--
	}
	if c.batchDepth == 0 {
		if c.aw != nil {
			return c.enqueueLocked()
		}
		return c.bw.Flush()
	}
	return nil
}

// ReadPacket reads and decodes the next packet, returning it and the frame
// size in bytes. The payload is staged in a buffer reused across calls, not
// allocated per packet; decoded packets copy what they keep.
func (c *Conn) ReadPacket() (Packet, int, error) {
	frame, id, body, err := c.readFrame()
	if err != nil {
		return nil, 0, err
	}
	p, err := New(id)
	if err != nil {
		return nil, 0, err
	}
	if err := p.UnmarshalBody(body); err != nil {
		return nil, 0, fmt.Errorf("protocol: decode %#x: %w", int32(id), err)
	}
	c.noteIn(len(frame))
	return p, len(frame), nil
}

// ReadFrame reads the next packet without decoding its body — the relay
// path for a proxy that forwards packets it does not inspect (WriteFrame
// sends the result on). Framing is checked as in ReadPacket; the body is
// left for the final receiver to decode. The returned frame aliases the
// connection's pooled read buffer and is valid only until the next
// ReadFrame or ReadPacket.
func (c *Conn) ReadFrame() (Frame, PacketID, error) {
	frame, id, _, err := c.readFrame()
	if err != nil {
		return Frame{}, 0, err
	}
	c.noteIn(len(frame))
	return Frame{data: frame, entity: entityRelatedID(id)}, id, nil
}

// readFrame reads one frame and returns its complete wire bytes (length
// prefix included), its packet ID, and its body.
func (c *Conn) readFrame() (frame []byte, id PacketID, body []byte, err error) {
	length, err := ReadVarint(c.br)
	if err != nil {
		return nil, 0, nil, err
	}
	if length < 1 || length > MaxFrameSize {
		return nil, 0, nil, fmt.Errorf("protocol: bad frame length %d", length)
	}
	// Stage the frame in the pooled buffer when its payload fits
	// maxPooledReadBuf: oversized frames use a transient allocation so they
	// never ratchet the per-connection buffer up toward MaxFrameSize for
	// good. Decoded packets copy what they keep, so the transient buffer is
	// garbage immediately.
	hdr := VarintLen(length)
	n := hdr + int(length)
	if int(length) > maxPooledReadBuf {
		frame = make([]byte, n)
	} else {
		if cap(c.rbuf) < n {
			c.rbuf = make([]byte, n)
		}
		frame = c.rbuf[:n]
	}
	AppendVarint(frame[:0], length)
	if _, err := io.ReadFull(c.br, frame[hdr:]); err != nil {
		return nil, 0, nil, err
	}
	raw, body, err := readVarintBytes(frame[hdr:])
	if err != nil {
		return nil, 0, nil, err
	}
	return frame, PacketID(raw), body, nil
}

// noteIn records inbound traffic for one frame of the given size.
func (c *Conn) noteIn(frame int) {
	c.msgsIn.Add(1)
	c.bytesIn.Add(int64(frame))
	c.lastActivity.Store(time.Now().UnixNano())
}

// SetReadDeadline bounds the next ReadPacket when the underlying stream
// supports deadlines (net.Conn, net.Pipe); otherwise it is a no-op. The
// server's per-connection read loop uses it as the idle timeout that reaps
// silent peers.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// Close shuts down the async writer (if running), reclaiming any queued
// batches, and closes the underlying stream — which also unblocks a writer
// goroutine stalled inside a socket write.
func (c *Conn) Close() error {
	c.wmu.Lock()
	aw := c.aw
	c.wmu.Unlock()
	if aw != nil {
		aw.stop()
	}
	err := c.rw.Close()
	if aw != nil {
		<-aw.done
	}
	return err
}

// Stats is a snapshot of the connection's traffic counters.
type Stats struct {
	MsgsOut, BytesOut       int64
	EntityMsgs, EntityBytes int64
	MsgsIn, BytesIn         int64
}

// Stats returns a snapshot of the traffic counters. The counters are
// independent atomics, so a snapshot taken during writes is not a single
// consistent cut; loading the entity counters before the totals (writers
// add totals first, noteOut) keeps the invariant EntityMsgs <= MsgsOut and
// EntityBytes <= BytesOut regardless of interleaving.
func (c *Conn) Stats() Stats {
	entityMsgs, entityBytes := c.entityMsgs.Load(), c.entityBytes.Load()
	return Stats{
		EntityMsgs: entityMsgs, EntityBytes: entityBytes,
		MsgsOut: c.msgsOut.Load(), BytesOut: c.bytesOut.Load(),
		MsgsIn: c.msgsIn.Load(), BytesIn: c.bytesIn.Load(),
	}
}
