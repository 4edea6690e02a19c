package server

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// Peer-fault hardening tests: one slow or dead TCP peer must never stall the
// tick goroutine, and the degradation ladder must fire in order —
// queue overflow → dropped batch → keyframe re-baseline → write-deadline
// disconnect — while healthy peers keep streaming.

// pausableReader drains a client conn unless paused; pausing simulates a
// peer that stops reading its socket (e.g. a frozen client).
type pausableReader struct {
	conn   *protocol.Conn
	paused atomic.Bool
	pkts   atomic.Int64
	fulls  atomic.Int64
}

func (r *pausableReader) run() {
	for {
		if r.paused.Load() {
			time.Sleep(time.Millisecond)
			continue
		}
		pkt, _, err := r.conn.ReadPacket()
		if err != nil {
			return
		}
		r.pkts.Add(1)
		if _, ok := pkt.(*protocol.EntityMove); ok {
			r.fulls.Add(1)
		}
	}
}

// TestStalledPeerDoesNotStallTick: with one peer that never reads among
// healthy readers, ticks must stay fast (enqueue-only, never a socket wait),
// the stalled peer's batches must be dropped once its bounded queue fills,
// and the healthy peer must keep receiving the stream.
func TestStalledPeerDoesNotStallTick(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ViewDistance = 2
	cfg.Net.SocketWriteBuffer = 4 << 10
	cfg.Net.WriteQueueBatches = 4
	cfg.Net.WriteQueueBytes = 32 << 10
	cfg.Net.WriteTimeout = 30 * time.Second // keep the stall alive: no deadline rescue
	s := New(w, cfg, nil, env.RealClock{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() { s.Stop(); ln.Close() }()

	dial := func(name string) *protocol.Conn {
		t.Helper()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10) // small client buffer: stalls bite fast
		}
		conn := protocol.NewConn(raw)
		conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion})
		conn.WritePacket(&protocol.Login{Name: name})
		if _, _, err := conn.ReadPacket(); err != nil {
			t.Fatalf("%s login: %v", name, err)
		}
		return conn
	}

	stalled := dial("stalled")
	defer stalled.Close()
	healthy := dial("healthy")
	defer healthy.Close()
	hr := &pausableReader{conn: healthy}
	go hr.run()

	// A mob herd at spawn: hundreds of entity moves per tick, enough to
	// overflow the stalled peer's socket + queue budget within a few ticks.
	for i := 0; i < 200; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: i % 16, Y: 11, Z: i / 16})
	}

	// The stalled peer reads nothing at all (not even its join burst beyond
	// what the kernel buffers absorb). Tick the server and time each tick.
	var maxTick time.Duration
	for i := 0; i < 100; i++ {
		start := time.Now()
		s.Tick()
		if d := time.Since(start); d > maxTick {
			maxTick = d
		}
	}

	if maxTick > time.Second {
		t.Fatalf("tick stalled for %v with one dead peer; enqueue path must not block", maxTick)
	}
	out := s.Outbound()
	if out.DroppedBatches == 0 {
		t.Fatal("stalled peer never overflowed its writer queue; backpressure untested")
	}
	if hr.pkts.Load() == 0 {
		t.Fatal("healthy peer starved while another peer was stalled")
	}
}

// TestPeerFaultLadder drives the full degradation ladder over an unbuffered
// pipe conn, in order: (1) healthy streaming, (2) paused peer → queue
// overflow → dropped batches, (3) resumed peer → keyframe re-baseline with
// full EntityMove packets, (4) pause past WriteTimeout → writer fault →
// disconnect with the session reaped.
func TestPeerFaultLadder(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ViewDistance = 2
	cfg.Net.WriteTimeout = 500 * time.Millisecond
	s := New(w, cfg, nil, env.RealClock{})
	defer s.Stop()

	for i := 0; i < 8; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: 2 + i, Y: 11, Z: 4})
	}

	a, b := net.Pipe()
	conn := protocol.NewConn(a)
	// MaxBatches 2: one tick can enqueue a chunk-burst batch and the entity
	// tick batch back to back; a healthy paced peer never needs more.
	conn.StartWriter(protocol.WriterConfig{
		MaxBatches: 2, MaxBytes: 1 << 20, WriteTimeout: cfg.Net.WriteTimeout,
	})
	p := s.connect("ladder", conn)
	r := &pausableReader{conn: protocol.NewConn(b)}
	go r.run()
	defer b.Close()

	// Phase 1: healthy. Drain the join burst and stream a few ticks, pacing
	// each tick on the (unbuffered, synchronous) pipe reader so the single
	// queue slot never overflows while the peer is healthy.
	for i := 0; i < 6; i++ {
		s.Tick()
		waitCond(t, 5*time.Second, func() bool {
			n, _ := conn.WriterQueueDepth()
			return n == 0
		}, "healthy peer never drained a tick batch")
	}
	waitCond(t, 5*time.Second, func() bool { return len(p.pendingChunks) == 0 },
		"join burst never drained to a healthy peer")
	if out := s.Outbound(); out.DroppedBatches != 0 || out.WriteDisconnects != 0 {
		t.Fatalf("healthy phase produced faults: %+v", out)
	}

	// Phase 2: peer stops reading. The in-flight batch blocks the writer,
	// the single queue slot fills, and further ticks drop whole batches.
	r.paused.Store(true)
	for i := 0; i < 8 && s.Outbound().DroppedBatches == 0; i++ {
		s.Tick()
	}
	if out := s.Outbound(); out.DroppedBatches == 0 {
		t.Fatal("paused peer never caused a dropped batch")
	} else if out.Keyframes != 0 {
		t.Fatalf("keyframe before the queue reopened: %+v", out)
	}

	// Phase 3: peer resumes within the write deadline. The queue drains and
	// the next delivered batch is a keyframe: every in-view entity
	// re-baselined with a full EntityMove (stale deltas must never follow a
	// gap).
	fullsBefore := r.fulls.Load()
	r.paused.Store(false)
	waitCond(t, 5*time.Second, func() bool {
		n, _ := conn.WriterQueueDepth()
		return n == 0
	}, "queue never drained after the peer resumed")
	for i := 0; i < 4 && s.Outbound().Keyframes == 0; i++ {
		s.Tick()
		time.Sleep(5 * time.Millisecond) // let the writer hand off to the reader
	}
	if out := s.Outbound(); out.Keyframes == 0 {
		t.Fatal("no keyframe after drop + recovery")
	}
	waitCond(t, 5*time.Second, func() bool { return r.fulls.Load() > fullsBefore },
		"keyframe tick sent no full EntityMove re-baseline")

	// Phase 4: peer stops reading for good. The writer faults once a write
	// stalls past WriteTimeout, and the next tick reaps the session.
	r.paused.Store(true)
	waitCond(t, 10*time.Second, func() bool {
		s.Tick()
		return s.Outbound().WriteDisconnects > 0
	}, "stalled peer was never disconnected by the write deadline")
	if n := s.PlayerCount(); n != 0 {
		t.Fatalf("PlayerCount = %d after write-fault reap, want 0", n)
	}
	if err := conn.WriterErr(); err == nil {
		t.Fatal("writer has no sticky fault after deadline disconnect")
	}
}

// TestReadIdleTimeoutReapsSilentPeer: a logged-in peer that never sends
// another byte must be reaped by the read idle timeout, not leak its read
// goroutine and session forever.
func TestReadIdleTimeoutReapsSilentPeer(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ViewDistance = 2
	cfg.Net.ReadIdleTimeout = 100 * time.Millisecond
	s := New(w, cfg, nil, env.RealClock{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() { s.Stop(); ln.Close() }()

	conn, err := protocol.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion})
	conn.WritePacket(&protocol.Login{Name: "silent"})
	if _, _, err := conn.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return s.PlayerCount() == 1 },
		"player never registered")

	// Total silence: no moves, no keep-alive echoes.
	waitCond(t, 5*time.Second, func() bool { return s.PlayerCount() == 0 },
		"silent peer was never reaped by the idle timeout")
	if got := s.Outbound().IdleDisconnects; got < 1 {
		t.Fatalf("IdleDisconnects = %d, want >= 1", got)
	}
}

// TestReadIdleTimeoutReapsPreLoginPeer: a peer that connects and never
// sends its handshake is reaped by the same idle timeout, so it cannot hold
// a read goroutine and a socket open forever.
func TestReadIdleTimeoutReapsPreLoginPeer(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ReadIdleTimeout = 100 * time.Millisecond
	s := New(w, cfg, nil, env.RealClock{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() { s.Stop(); ln.Close() }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent pre-login peer read %d bytes, err %v; want EOF from the server's reap", n, err)
	}
}

// TestWriterDisconnectSnapshotRace exercises writer shutdown, Disconnect and
// the between-tick snapshotter concurrently under the race detector: clients
// churn (some stall, some quit) while the server ticks and snapshots.
func TestWriterDisconnectSnapshotRace(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ViewDistance = 2
	cfg.Net.WriteTimeout = 50 * time.Millisecond
	cfg.Net.WriteQueueBatches = 2
	cfg.Net.WriteQueueBytes = 16 << 10
	cfg.Net.ReadIdleTimeout = 200 * time.Millisecond
	var s *Server
	cfg.Hooks.AfterTick = func(TickRecord) { s.Snapshot() }
	s = New(w, cfg, nil, env.RealClock{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Entity mutations must happen before the tick loop starts.
	for i := 0; i < 12; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: i, Y: 11, Z: 6})
	}
	go s.Serve(ln)
	go s.Run()
	defer func() { s.Stop(); ln.Close() }()

	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		mode := i % 3
		go func(mode int) {
			defer func() { done <- struct{}{} }()
			conn, err := protocol.Dial(ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion})
			conn.WritePacket(&protocol.Login{Name: "churn"})
			if _, _, err := conn.ReadPacket(); err != nil {
				return
			}
			switch mode {
			case 0: // read briefly, then vanish without closing cleanly
				deadline := time.Now().Add(150 * time.Millisecond)
				for time.Now().Before(deadline) {
					conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
					if _, _, err := conn.ReadPacket(); err != nil {
						break
					}
				}
			case 1: // stall: never read again, let the write deadline reap us
				time.Sleep(300 * time.Millisecond)
			case 2: // quit immediately
			}
		}(mode)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	// Let the reaping settle while ticks + snapshots keep running.
	time.Sleep(300 * time.Millisecond)
}

// waitCond polls until ok() or the deadline.
func waitCond(t *testing.T, d time.Duration, ok func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBroadcastChatCountsRefusedFrames: a chat fan-out frame that a full
// writer queue refuses is a dropped batch like a refused tick batch, not a
// silent loss.
func TestBroadcastChatCountsRefusedFrames(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, env.RealClock{})
	defer s.Stop()

	a, b := net.Pipe() // b is never read: the first frame blocks the writer
	defer b.Close()
	conn := protocol.NewConn(a)
	conn.StartWriter(protocol.WriterConfig{MaxBatches: 2})
	s.connect("stalled", conn)

	chat := &protocol.Chat{Sender: "probe", Text: "hello"}
	s.BroadcastChat(chat)
	waitCond(t, 5*time.Second, func() bool {
		n, _ := conn.WriterQueueDepth()
		return n == 0
	}, "writer never took the first chat frame")
	// The writer is blocked on the first frame: two more queue, the other
	// seven are refused.
	for i := 1; i < 10; i++ {
		s.BroadcastChat(chat)
	}
	if got := s.Outbound().DroppedBatches; got < 7 {
		t.Fatalf("DroppedBatches = %d after 10 broadcasts to a stalled 2-batch queue, want >= 7", got)
	}
}
