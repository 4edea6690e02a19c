package protocol

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Async per-connection writers. Every write stages its frame onto the
// connection's in-progress batch, and the flush boundary (FlushBatch, or
// the write itself outside a batch window) hands the batch to one of two
// sinks. Until StartWriter the sink is the stream, written on the caller's
// goroutine: clients, the gateway and login handshakes use it, and a slow
// or dead peer blocks the caller for as long as the kernel send buffer
// stays full. StartWriter makes the sink a bounded queue of ready-to-write
// batches drained by a dedicated writer goroutine:
//
//   - Enqueueing never blocks.
//   - The queue is bounded in both batches and bytes. When the peer cannot
//     keep up the flush boundary fails fast with ErrBacklog and the batch's
//     bytes are reclaimed — the caller decides what to resend (the game
//     server falls back to a keyframe).
//   - Each socket write runs under a write deadline. A peer that keeps a
//     write stalled past it kills the writer: the error sticks, every
//     queued batch is reclaimed, and all subsequent writes report the
//     fault so the caller can disconnect the peer.
//
// Either way traffic counters apply when the sink takes a batch, never for
// a failed or dropped one, so Stats reflect bytes written or handed to the
// writer.

// ErrBacklog reports that the peer's bounded writer queue could not accept
// a batch: the peer is not draining its connection fast enough. The batch
// was dropped and its buffer reclaimed; nothing partial was queued.
var ErrBacklog = errors.New("protocol: writer queue full (slow peer)")

// ErrWriterClosed reports a write on a connection whose async writer has
// been shut down.
var ErrWriterClosed = errors.New("protocol: writer closed")

// WriterConfig bounds one connection's async writer.
type WriterConfig struct {
	// MaxBatches caps the number of queued batches (default 64).
	MaxBatches int
	// MaxBytes caps the queued bytes across all batches, including the one
	// being enqueued (default 1 MiB).
	MaxBytes int
	// WriteTimeout bounds each socket write; a peer that keeps one write
	// blocked past it faults the writer. Zero disables the deadline.
	WriteTimeout time.Duration
}

func (c WriterConfig) withDefaults() WriterConfig {
	if c.MaxBatches <= 0 {
		c.MaxBatches = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	return c
}

// writeDeadliner is the subset of net.Conn the writer needs for deadlines;
// in-memory test conns that don't implement it simply get no deadline.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// outStats accumulates the traffic counters of an in-progress batch; they
// are applied to the connection's atomics only when the sink takes the
// batch (failed and dropped batches never count).
type outStats struct {
	msgs, bytes             int64
	entityMsgs, entityBytes int64
}

func (o *outStats) add(frame int, entity bool) {
	o.msgs++
	o.bytes += int64(frame)
	if entity {
		o.entityMsgs++
		o.entityBytes += int64(frame)
	}
}

// connWriter is the bounded queue + goroutine behind one async connection.
type connWriter struct {
	cfg WriterConfig

	mu          sync.Mutex
	cond        *sync.Cond
	queue       [][]byte
	queuedBytes int
	err         error // sticky fault: first write/deadline error
	closed      bool
	done        chan struct{} // closed when the writer goroutine exits
}

// StartWriter makes the writer queue the connection's sink: from now on
// every flush boundary enqueues its batch onto a bounded queue drained by a
// dedicated goroutine and never blocks on the socket. Call it once, after
// any synchronous handshake traffic; starting it again is a no-op.
func (c *Conn) StartWriter(cfg WriterConfig) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.aw != nil {
		return
	}
	aw := &connWriter{cfg: cfg.withDefaults(), done: make(chan struct{})}
	aw.cond = sync.NewCond(&aw.mu)
	c.aw = aw
	go c.writerLoop(aw)
}

// WriterQueueDepth returns the async writer's current backlog in batches
// and bytes (0, 0 before StartWriter) — the per-connection queue-depth
// gauge the server's tick counters sample.
func (c *Conn) WriterQueueDepth() (batches, bytes int) {
	c.wmu.Lock()
	aw := c.aw
	c.wmu.Unlock()
	if aw == nil {
		return 0, 0
	}
	aw.mu.Lock()
	defer aw.mu.Unlock()
	return len(aw.queue), aw.queuedBytes
}

// WriterErr returns the async writer's sticky fault: non-nil once a socket
// write failed or missed its deadline; nil before StartWriter.
func (c *Conn) WriterErr() error {
	c.wmu.Lock()
	aw := c.aw
	c.wmu.Unlock()
	if aw == nil {
		return nil
	}
	aw.mu.Lock()
	defer aw.mu.Unlock()
	return aw.err
}

// stop shuts the writer down and reclaims every queued batch. The writer
// goroutine may be blocked inside a socket write; closing the underlying
// stream (the caller's next step) unblocks it.
func (aw *connWriter) stop() {
	aw.mu.Lock()
	aw.closed = true
	aw.queue = nil
	aw.queuedBytes = 0
	aw.cond.Broadcast()
	aw.mu.Unlock()
}

// enqueueLocked hands the in-progress batch to the writer queue, which
// owns its buffer until the writer hands it back to c.free. It never
// blocks: a full queue drops the batch, keeping its buffer, and returns
// ErrBacklog; a faulted writer returns its sticky error. Caller holds
// c.wmu.
func (c *Conn) enqueueLocked() error {
	aw := c.aw
	aw.mu.Lock()
	defer aw.mu.Unlock()
	var err error
	switch {
	case len(c.batch) == 0:
		return aw.err
	case aw.err != nil:
		err = aw.err
	case aw.closed:
		err = ErrWriterClosed
	case len(aw.queue) >= aw.cfg.MaxBatches || aw.queuedBytes+len(c.batch) > aw.cfg.MaxBytes:
		err = ErrBacklog
	default:
		aw.queue = append(aw.queue, c.batch)
		aw.queuedBytes += len(c.batch)
		aw.cond.Signal()
		c.batch = nil
		return nil
	}
	c.batch = c.batch[:0]
	return err
}

// writerLoop drains the queue onto the socket: each wakeup takes every
// queued batch and writes them as one coalesced buffer under the configured
// deadline. Coalescing matters under broadcast bursts — N small frames
// enqueued back to back (chat fan-out) cost one syscall instead of N, and
// the queue's batch slots free up N at a time. The first failed write faults
// the writer: remaining batches are reclaimed and the loop exits — a
// stalled peer costs one blocked goroutine for at most WriteTimeout, never
// a blocked caller.
func (c *Conn) writerLoop(aw *connWriter) {
	defer close(aw.done)
	var taken [][]byte // this round's batches, owned until reclaimed
	var wbuf []byte    // coalesced write buffer, reused across rounds
	for {
		aw.mu.Lock()
		for len(aw.queue) == 0 && !aw.closed && aw.err == nil {
			aw.cond.Wait()
		}
		if aw.closed || aw.err != nil {
			aw.queue = nil
			aw.queuedBytes = 0
			aw.mu.Unlock()
			return
		}
		// The queue keeps its backing array for the next enqueue; the
		// batches it held now belong to taken.
		taken = append(taken[:0], aw.queue...)
		clear(aw.queue)
		aw.queue = aw.queue[:0]
		aw.queuedBytes = 0
		aw.mu.Unlock()

		buf := taken[0]
		if len(taken) > 1 {
			wbuf = wbuf[:0]
			for _, b := range taken {
				wbuf = append(wbuf, b...)
			}
			buf = wbuf
		}
		if aw.cfg.WriteTimeout > 0 {
			if d, ok := c.rw.(writeDeadliner); ok {
				d.SetWriteDeadline(time.Now().Add(aw.cfg.WriteTimeout))
			}
		}
		_, werr := c.rw.Write(buf)
		c.wmu.Lock()
		c.free = append(c.free, taken...)
		c.wmu.Unlock()
		aw.mu.Lock()
		if werr != nil {
			aw.err = fmt.Errorf("protocol: async write: %w", werr)
			aw.queue = nil
			aw.queuedBytes = 0
			aw.mu.Unlock()
			return
		}
		aw.mu.Unlock()
	}
}
