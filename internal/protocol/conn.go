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
// reads, and the outbound batch it keeps between stream writes. Frames up
// to this size reuse the pooled buffer; larger (legal but rare) frames get
// a transient allocation instead, so one oversized frame cannot pin up to
// MaxFrameSize (4 MiB) per connection for its lifetime — at 10k
// connections that pin would cost 40 GiB.
const maxPooledReadBuf = 64 << 10

// Conn frames packets over a byte stream. It is safe for one concurrent
// reader and one concurrent writer. Byte and message counters feed the
// Table 8 network statistics; they are plain atomics so the hot write path
// pays no stats mutex.
//
// Every write takes one path: the frame is appended to the in-progress
// batch, and the flush boundary hands that batch to its sink (see
// flushLocked and writer.go).
type Conn struct {
	rw   io.ReadWriteCloser
	br   *bufio.Reader
	rbuf []byte // pooled payload buffer, owned by the reader goroutine

	// The outbound side, all guarded by wmu: batch stages frames until the
	// flush boundary, batchStats counts them, and batchDepth > 0 while a
	// BeginBatch/FlushBatch window is open. aw, once StartWriter has run,
	// is the batch's sink instead of the stream; free holds the batch
	// buffers its goroutine has written and handed back.
	wmu        sync.Mutex
	batch      []byte
	batchStats outStats
	batchDepth int
	aw         *connWriter
	free       [][]byte

	msgsOut     atomic.Int64
	bytesOut    atomic.Int64
	entityMsgs  atomic.Int64
	entityBytes atomic.Int64
	msgsIn      atomic.Int64
	bytesIn     atomic.Int64
}

// NewConn wraps a stream (usually a *net.TCPConn) in a packet framer.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw, br: bufio.NewReaderSize(rw, 32<<10)}
}

// Dial connects a packet conn to a TCP address.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol dial: %w", err)
	}
	return NewConn(c), nil
}

// LogIn runs the client side of the login exchange: a Handshake at
// ProtocolVersion and a Login for name, then the server's answer, which
// must be a LoginSuccess. On error the caller closes the connection.
func (c *Conn) LogIn(name string) (*LoginSuccess, error) {
	if _, err := c.WritePacket(&Handshake{Version: ProtocolVersion}); err != nil {
		return nil, err
	}
	if _, err := c.WritePacket(&Login{Name: name}); err != nil {
		return nil, err
	}
	pkt, _, err := c.ReadPacket()
	if err != nil {
		return nil, err
	}
	ls, ok := pkt.(*LoginSuccess)
	if !ok {
		return nil, fmt.Errorf("protocol: login answered with %#x", int32(pkt.ID()))
	}
	return ls, nil
}

// WritePacket frames p onto the in-progress batch and returns the frame
// size in bytes. Outside a BeginBatch/FlushBatch window the write is its
// own flush boundary (game traffic is latency sensitive) and returns the
// sink's error: the stream's write error, or, after StartWriter,
// ErrBacklog for a full writer queue and the writer's sticky fault for a
// dead peer. Inside a window the write only stages, so it cannot fail: the
// error is nil, and the window's closing FlushBatch reports the sink's.
func (c *Conn) WritePacket(p Packet) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := c.stagePacketLocked(p)
	return n, c.flushLocked()
}

// WriteFrame copies an already-encoded frame onto the in-progress batch —
// the broadcast fast path: the packet was marshalled once (EncodeFrame)
// and fans out to N connections without re-encoding. Flushing and errors
// match WritePacket.
func (c *Conn) WriteFrame(f Frame) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.batch = append(c.batchLocked(), f.data...)
	c.batchStats.add(len(f.data), f.entity)
	return len(f.data), c.flushLocked()
}

// StagePacket frames p onto the in-progress batch without a flush
// boundary, even outside a batch window: p leads the next flushed write or
// batch. The server stages a player's LoginSuccess this way before it
// publishes the player, so no tick frame can overtake it.
func (c *Conn) StagePacket(p Packet) {
	c.wmu.Lock()
	c.stagePacketLocked(p)
	c.wmu.Unlock()
}

// stagePacketLocked appends p's frame to the batch and returns its size.
// Caller holds wmu.
func (c *Conn) stagePacketLocked(p Packet) int {
	start := len(c.batchLocked())
	c.batch = AppendFrame(c.batch, p)
	n := len(c.batch) - start
	c.batchStats.add(n, EntityRelated(p))
	return n
}

// batchLocked returns the batch to stage onto. When the last batch went to
// the writer queue it is nil, and a buffer the writer handed back — or a
// new one — takes its place. Caller holds wmu.
func (c *Conn) batchLocked() []byte {
	if c.batch == nil {
		if n := len(c.free); n > 0 {
			c.batch = c.free[n-1][:0]
			c.free = c.free[:n-1]
		} else {
			c.batch = make([]byte, 0, 4<<10)
		}
	}
	return c.batch
}

// BeginBatch opens a batch window: subsequent writes stage onto one batch
// instead of flushing per packet. Batches nest; each BeginBatch must be
// paired with a FlushBatch. The server's dissemination phase wraps each
// player's per-tick sends in one batch, turning a flush per packet into
// one per player per tick.
func (c *Conn) BeginBatch() {
	c.wmu.Lock()
	c.batchDepth++
	c.wmu.Unlock()
}

// Flush hands the in-progress batch to its sink now, unless a batch window
// is open: the window's closing FlushBatch carries it then. Its errors are
// FlushBatch's.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// FlushBatch closes the innermost batch window and, when the last one
// closes, flushes the batch: it returns the stream's write error, or, after
// StartWriter, ErrBacklog when the whole batch was dropped (the peer is not
// draining) and the writer's sticky fault for a dead peer.
func (c *Conn) FlushBatch() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.batchDepth > 0 {
		c.batchDepth--
	}
	return c.flushLocked()
}

// flushLocked is the flush boundary: unless a batch window is open, it
// hands the batch to its sink — the writer queue after StartWriter,
// otherwise the stream, written on the caller's goroutine — and counts it
// once the sink has taken it. A retained stream batch larger than
// maxPooledReadBuf is dropped, so one burst cannot pin its buffer for the
// connection's lifetime. Caller holds wmu.
func (c *Conn) flushLocked() error {
	if c.batchDepth > 0 {
		return nil
	}
	st := c.batchStats
	c.batchStats = outStats{}
	var err error
	if c.aw != nil {
		err = c.enqueueLocked()
	} else if len(c.batch) > 0 {
		_, err = c.rw.Write(c.batch)
		c.batch = c.batch[:0]
		if cap(c.batch) > maxPooledReadBuf {
			c.batch = nil
		}
	}
	if err != nil {
		return err
	}
	c.msgsOut.Add(st.msgs)
	c.bytesOut.Add(st.bytes)
	c.entityMsgs.Add(st.entityMsgs)
	c.entityBytes.Add(st.entityBytes)
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
// consistent cut; loading the entity counters before the totals (the flush
// boundary adds totals first) keeps the invariant EntityMsgs <= MsgsOut
// and EntityBytes <= BytesOut regardless of interleaving.
func (c *Conn) Stats() Stats {
	entityMsgs, entityBytes := c.entityMsgs.Load(), c.entityBytes.Load()
	return Stats{
		EntityMsgs: entityMsgs, EntityBytes: entityBytes,
		MsgsOut: c.msgsOut.Load(), BytesOut: c.bytesOut.Load(),
		MsgsIn: c.msgsIn.Load(), BytesIn: c.bytesIn.Load(),
	}
}
