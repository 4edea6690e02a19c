package shard

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/protocol"
)

// Session is one directionless inter-shard link: both ends write through
// the protocol package's bounded async writer (the same machinery that
// keeps slow players from blocking the tick loop) and a reader goroutine
// sorts inbound packets into per-tick buckets delimited by ShardBarrier
// markers. The tick loop never touches the socket: SendTick enqueues,
// WaitBarrier blocks on the bucket, and a peer that stalls past the write
// deadline faults the session instead of wedging the shard.
type Session struct {
	conn       *protocol.Conn
	self, peer int

	// WaitTimeout bounds WaitBarrier; a peer that cannot produce its
	// barrier within it is treated as dead (failover territory), not
	// merely slow. Defaults to 30 s.
	WaitTimeout time.Duration

	// barrier is Send's scratch end-of-tick marker: WritePacket encodes it
	// at once, so one value serves every tick.
	barrier protocol.ShardBarrier

	mu      sync.Mutex
	cond    *sync.Cond
	ready   map[int64][]protocol.Packet
	pending []protocol.Packet
	err     error
	// timer bounds WaitBarrier; one per session, re-armed per call. waitTick
	// is the tick the call waits for, for its fault message.
	timer    *time.Timer
	waitTick int64
}

// sessionWriter bounds the inter-shard writer queue. Mirror bursts after a
// failover resync can momentarily exceed player-sized queues, so the
// limits are an order of magnitude above the per-player defaults.
var sessionWriter = protocol.WriterConfig{
	MaxBatches:   256,
	MaxBytes:     8 << 20,
	WriteTimeout: 10 * time.Second,
}

// NewSession wraps rw (a net.Conn or an in-process pipe end) into an
// inter-shard session between shard self and shard peer of a shards-sized
// cluster. The hello handshake is asynchronous: a mismatched peer faults
// the session, surfacing on the next WaitBarrier.
func NewSession(rw io.ReadWriteCloser, self, peer, shards int) *Session {
	s := newSession(rw, self, peer)
	s.conn.StartWriter(sessionWriter)
	s.conn.WritePacket(&protocol.ShardHello{Shard: int32(self), Shards: int32(shards)})
	go s.readLoop(shards, true)
	return s
}

// AcceptSession is the listener side of a TCP shard mesh: the acceptor
// does not know which peer dialed until the hello arrives, so it reads the
// hello synchronously, learns the peer index, and answers with its own.
func AcceptSession(rw io.ReadWriteCloser, self, shards int) (*Session, error) {
	s := newSession(rw, self, -1)
	h, err := s.readHello(shards)
	if err != nil {
		s.conn.Close()
		return nil, err
	}
	s.peer = int(h.Shard)
	s.conn.StartWriter(sessionWriter)
	s.conn.WritePacket(&protocol.ShardHello{Shard: int32(self), Shards: int32(shards)})
	go s.readLoop(shards, false)
	return s, nil
}

func newSession(rw io.ReadWriteCloser, self, peer int) *Session {
	s := &Session{
		conn:        protocol.NewConn(rw),
		self:        self,
		peer:        peer,
		WaitTimeout: 30 * time.Second,
		ready:       make(map[int64][]protocol.Packet),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// readHello consumes and validates the peer's opening hello.
func (s *Session) readHello(shards int) (*protocol.ShardHello, error) {
	hello, _, err := s.conn.ReadPacket()
	if err != nil {
		return nil, err
	}
	h, ok := hello.(*protocol.ShardHello)
	switch {
	case !ok:
		return nil, fmt.Errorf("shard: peer opened with %#x, want hello", int32(hello.ID()))
	case int(h.Shards) != shards:
		return nil, fmt.Errorf("shard: peer cluster size %d, want %d", h.Shards, shards)
	case s.peer >= 0 && int(h.Shard) != s.peer:
		return nil, fmt.Errorf("shard: peer is %d, want %d", h.Shard, s.peer)
	}
	return h, nil
}

func (s *Session) readLoop(shards int, expectHello bool) {
	if expectHello {
		if _, err := s.readHello(shards); err != nil {
			s.fault(err)
			return
		}
	}
	handoffs := 0 // EntityHandoff packets since the last barrier
	for {
		p, _, err := s.conn.ReadPacket()
		if err != nil {
			s.fault(err)
			return
		}
		switch p := p.(type) {
		case *protocol.ShardBarrier:
			if int(p.Handoffs) != handoffs {
				s.fault(fmt.Errorf("shard: peer %d barrier for tick %d claims %d handoffs, stream carried %d",
					s.peer, p.Tick, p.Handoffs, handoffs))
				return
			}
			handoffs = 0
			s.mu.Lock()
			s.ready[p.Tick] = s.pending
			s.pending = nil
			s.cond.Broadcast()
			s.mu.Unlock()
			continue
		case *protocol.EntityHandoff:
			handoffs++
		}
		s.mu.Lock()
		s.pending = append(s.pending, p)
		s.mu.Unlock()
	}
}

func (s *Session) fault(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Send enqueues one tick's outbound packets followed by its barrier. The
// batch boundary matches the tick boundary, so the writer flushes whole
// ticks and the peer's barrier bucket is never torn. Writes inside the
// batch only stage; the closing FlushBatch reports the writer's error.
func (s *Session) Send(tick int64, pkts []protocol.Packet) error {
	s.conn.BeginBatch()
	handoffs := 0
	for _, p := range pkts {
		if _, ok := p.(*protocol.EntityHandoff); ok {
			handoffs++
		}
		s.conn.WritePacket(p)
	}
	s.barrier = protocol.ShardBarrier{Tick: tick, Handoffs: int32(handoffs)}
	s.conn.WritePacket(&s.barrier)
	return s.conn.FlushBatch()
}

// WaitBarrier blocks until the peer's barrier for tick arrives and returns
// the packets that preceded it, in send order.
func (s *Session) WaitBarrier(tick int64) ([]protocol.Packet, error) {
	deadline := time.Now().Add(s.WaitTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitTick = tick
	if s.timer == nil {
		s.timer = time.AfterFunc(s.WaitTimeout, s.missedBarrier)
	} else {
		s.timer.Reset(s.WaitTimeout)
	}
	defer s.timer.Stop()
	for {
		if pkts, ok := s.ready[tick]; ok {
			delete(s.ready, tick)
			return pkts, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: peer %d missed barrier for tick %d", s.peer, tick)
		}
		s.cond.Wait()
	}
}

// missedBarrier faults the session when WaitBarrier's timer expires, which
// wakes the waiting call.
func (s *Session) missedBarrier() {
	s.mu.Lock()
	tick := s.waitTick
	s.mu.Unlock()
	s.fault(fmt.Errorf("shard: peer %d missed barrier for tick %d", s.peer, tick))
}

// Peer returns the peer shard index (learned from the hello on accepted
// sessions).
func (s *Session) Peer() int { return s.peer }

// Err returns the session's sticky fault, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the session down; in-flight reads surface the close as a
// fault.
func (s *Session) Close() error { return s.conn.Close() }
