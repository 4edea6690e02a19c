package server

import (
	"errors"
	"log"
	"net"
	"os"
	"slices"
	"time"

	"repro/internal/mlg/entity"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// Real-network serving: the server accepts protocol connections, feeds
// client packets into the incoming networking queue, and materializes state
// updates for connected sockets. This is the path the standalone
// cmd/mlgserver binary and the real-TCP bot swarm use; benchmark
// reproduction normally runs the in-process virtual path instead.
//
// The outbound side is built around four disciplines and one login order:
//
//   - Encode-once frames: a broadcast packet (block change, chat,
//     keep-alive, time update, entity move) is marshalled to wire bytes
//     exactly once (protocol.EncodeFrame) and copied into each of N
//     connections' batches (Conn.WriteFrame). A tick's frames are encoded
//     into one per-tick arena that sendReal reuses across ticks; since
//     every write copies, no staged or queued batch aliases it.
//   - Tick-scoped batch flushing: each player's per-tick sends sit between
//     Conn.BeginBatch and Conn.FlushBatch, so a tick costs one enqueue per
//     player instead of one syscall per packet.
//   - Delta streaming: in-view entities send compact EntityMoveRel deltas
//     against per-player last-sent positions; stationary entities send
//     nothing, teleports and first sightings fall back to full EntityMove.
//   - Async per-connection writers: the tick goroutine never touches a
//     socket. Each logged-in connection runs a writer goroutine behind a
//     bounded queue (protocol.Conn.StartWriter); the tick enqueues a
//     player's completed batch and moves on. On queue overflow the batch is
//     dropped and the player falls back to a keyframe — lastSent is
//     cleared so every in-view entity re-baselines with a full EntityMove,
//     and undelivered chunk batches stay owed — mirroring the delta→full
//     fallback. A peer whose write stalls past NetConfig.WriteTimeout faults
//     its writer and is disconnected on the next tick, frames reclaimed.
//     One slow TCP peer therefore costs one blocked goroutine, never a
//     stalled world.
//   - Login order: handleConn starts the writer, then connect stages
//     LoginSuccess on the connection before it publishes the player to the
//     tick. LoginSuccess therefore leads the first batch that reaches the
//     socket, and every tick write goes through the writer. Only the
//     handshake's error replies (Disconnect) are written synchronously.

// Serve accepts connections until the listener closes. It blocks; run it in
// a goroutine alongside Run.
func (s *Server) Serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stopped:
				return nil
			default:
				return err
			}
		}
		if s.cfg.Net.SocketWriteBuffer > 0 {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetWriteBuffer(s.cfg.Net.SocketWriteBuffer)
			}
		}
		go s.handleConn(protocol.NewConn(c))
	}
}

// Run drives the game loop in real time on the server's clock until Stop is
// called: one Tick per 50 ms budget (back-to-back when overloaded). The
// after-tick hook and snapshot cadence run inside Tick itself
// (Hooks.AfterTick, Config.Persist), so Run is a bare loop.
func (s *Server) Run() {
	for {
		select {
		case <-s.stopped:
			return
		default:
		}
		s.Tick()
		if crashed, reason := s.Crashed(); crashed {
			log.Printf("server crashed: %s", reason)
			return
		}
	}
}

// Stop terminates Run and Serve and disconnects all players.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		s.mu.Lock()
		ids := append([]int64(nil), s.order...)
		s.mu.Unlock()
		for _, id := range ids {
			s.Disconnect(id)
		}
	})
}

// handleConn performs the login handshake, registers the player, and pumps
// incoming packets into the networking queue.
func (s *Server) handleConn(conn *protocol.Conn) {
	defer conn.Close()

	pkt, err := s.readIdle(conn)
	if err != nil {
		return
	}
	hs, ok := pkt.(*protocol.Handshake)
	if !ok || hs.Version != protocol.ProtocolVersion {
		conn.WritePacket(&protocol.Disconnect{Reason: "bad handshake"})
		return
	}
	pkt, err = s.readIdle(conn)
	if err != nil {
		return
	}
	login, ok := pkt.(*protocol.Login)
	if !ok {
		conn.WritePacket(&protocol.Disconnect{Reason: "expected login"})
		return
	}

	// The handshake replies above are synchronous writes on this
	// goroutine. The writer starts before connect publishes the player, so
	// every later write — the staged LoginSuccess and all tick traffic —
	// rides it, and a slow peer can never block the tick goroutine.
	conn.StartWriter(protocol.WriterConfig{
		MaxBatches:   s.cfg.Net.WriteQueueBatches,
		MaxBytes:     s.cfg.Net.WriteQueueBytes,
		WriteTimeout: s.cfg.Net.WriteTimeout,
	})
	p := s.connect(login.Name, conn)
	// Send LoginSuccess now, unless a tick batch already opened on the
	// connection carries it.
	if err := conn.Flush(); err != nil {
		s.Disconnect(p.ID)
		return
	}

	for {
		pkt, err := s.readIdle(conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// A completely silent peer: without this reap its read
				// goroutine and player session would leak forever.
				s.noteIdleDisconnect()
			}
			s.Disconnect(p.ID)
			return
		}
		s.Enqueue(p.ID, pkt, s.clock.Now())
	}
}

// readIdle reads one packet under the read idle deadline. Every read of a
// connection goes through it, the handshake and login included, so a peer
// that connects and never speaks is reaped like one that falls silent.
func (s *Server) readIdle(conn *protocol.Conn) (protocol.Packet, error) {
	if idle := s.cfg.Net.ReadIdleTimeout; idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	pkt, _, err := conn.ReadPacket()
	return pkt, err
}

// sendChunkBatch streams a batch of owed chunks over a player's connection,
// all under one flush. It returns the flush's error:
// protocol.ErrBacklog means the whole batch was dropped before reaching the
// wire (the chunks must stay owed); any other error is a connection fault
// and the peer should be disconnected. The old path discarded both — a
// player whose batch never hit the socket was still marked as having been
// sent those chunks, and a broken conn kept receiving full tick work until
// its reader noticed.
func (s *Server) sendChunkBatch(p *Player, batch []world.ChunkPos) error {
	p.conn.BeginBatch()
	for _, cp := range batch {
		// Resolve through the RLock fast path: pending chunks were loaded at
		// join time, so the write-locking generate path is a cold fallback.
		c := s.w.ChunkIfLoaded(cp)
		if c == nil {
			c = s.w.Chunk(cp)
		}
		p.conn.WritePacket(&protocol.ChunkData{ChunkX: cp.X, ChunkZ: cp.Z, Data: c.Payload()})
	}
	return p.conn.FlushBatch()
}

// entSnap is one entity's per-tick broadcast snapshot: position (raw and
// quantized), interest chunk, and the lazily encoded full-move frame shared
// by every recipient that needs it.
type entSnap struct {
	id       int64
	chunk    world.ChunkPos
	x, y, z  float64
	q        qpos
	frame    protocol.Frame
	hasFrame bool
}

// sendBuffers holds sendReal's per-tick buffers, reused across ticks, so
// the outbound path allocates nothing per broadcast frame.
//
// arena holds the encoded bytes of one tick's broadcast frames: sendReal
// truncates it once per tick, and every frame it writes is copied into the
// connection's batch, so no frame outlives the tick. It keeps no retention
// rule: it holds one tick's frames, and OnChange caps a tick's block
// changes at 20 000 entries.
//
// A packet passed through the protocol.Packet interface escapes to the
// heap, so each packet sendReal encodes or writes that way has one scratch
// value here instead of a fresh one per call.
type sendBuffers struct {
	ents     []entSnap
	bcFrames []protocol.Frame
	arena    []byte

	keepAlive protocol.KeepAlive
	time      protocol.TimeUpdate
	move      protocol.EntityMove
	rel       protocol.EntityMoveRel
	destroy   protocol.DestroyEntity
}

// quant quantizes a coordinate to the EntityMoveRel 1/32-block grid.
func quant(v float64) int32 { return int32(floorRound(v * 32)) }

func floorRound(v float64) int64 {
	if v >= 0 {
		return int64(v + 0.5)
	}
	return -int64(-v + 0.5)
}

// fullMoveFrame returns the entity's encode-once full EntityMove frame,
// marshalling it into b's arena on first use this tick. The arena may grow
// here, mid-tick; frames encoded before keep viewing the array they were
// encoded into.
func (e *entSnap) fullMoveFrame(b *sendBuffers) protocol.Frame {
	if !e.hasFrame {
		b.move = protocol.EntityMove{EntityID: int32(e.id), X: e.x, Y: e.y, Z: e.z}
		b.arena, e.frame = protocol.EncodeFrame(b.arena, &b.move)
		e.hasFrame = true
	}
	return e.frame
}

// sendReal materializes this tick's updates for socket-backed players.
// Entity updates are interest-filtered (only entities inside the player's
// chunk view area are sent) and capped per tick per player, like production
// servers' broadcast budgets. Broadcast packets (block changes, plus a
// KeepAlive on keep-alive ticks) are encoded once into the tick's arena and
// fanned out as raw frames; each player's whole tick goes out under a
// single flush (async conns: a single writer-queue enqueue). It returns the
// IDs of players whose connection faulted mid-send, for the caller to reap.
func (s *Server) sendReal(players []*Player, bc []protocol.BlockChange, keepAlive bool, counts *tickCounts) []int64 {
	const entityCap = 400
	var hasReal bool
	for _, p := range players {
		if p.conn != nil {
			hasReal = true
			break
		}
	}
	if !hasReal {
		return nil
	}

	// Snapshot entity positions (and their chunk, for the interest filter).
	buf := &s.sendScratch
	ents := buf.ents[:0]
	s.ents.Entities(func(e *entity.Entity) {
		ents = append(ents, entSnap{
			id: e.ID, chunk: world.ChunkPosAt(e.Pos.BlockPos()),
			x: e.Pos.X, y: e.Pos.Y, z: e.Pos.Z,
			q: qpos{x: quant(e.Pos.X), y: quant(e.Pos.Y), z: quant(e.Pos.Z)},
		})
	})
	buf.ents = ents

	s.mu.Lock()
	tick := s.tick
	s.mu.Unlock()

	// Encode the tick's shared broadcast frames exactly once, into the
	// arena the last tick's frames used.
	arena := buf.arena[:0]
	bcFrames := buf.bcFrames[:0]
	var f protocol.Frame
	for i := range bc {
		arena, f = protocol.EncodeFrame(arena, &bc[i])
		bcFrames = append(bcFrames, f)
	}
	if keepAlive {
		buf.keepAlive = protocol.KeepAlive{Nonce: tick}
		arena, f = protocol.EncodeFrame(arena, &buf.keepAlive)
		bcFrames = append(bcFrames, f)
	}
	buf.time = protocol.TimeUpdate{Tick: tick}
	arena, tickFrame := protocol.EncodeFrame(arena, &buf.time)
	buf.arena, buf.bcFrames = arena, bcFrames
	vd := int32(s.cfg.Net.ViewDistance)

	var dead []int64
	for _, p := range players {
		if p.conn == nil {
			continue
		}
		err := s.sendPlayerTick(p, bcFrames, tickFrame, ents, vd, entityCap, counts)
		switch {
		case err == nil:
		case errors.Is(err, protocol.ErrBacklog):
			// The peer's writer queue is full: this tick's batch was dropped
			// whole. Stale deltas must never follow a gap — fall back to a
			// keyframe once the queue drains again.
			p.needKeyframe = true
			counts.netDrops++
		default:
			dead = append(dead, p.ID)
		}
	}
	return dead
}

// sendPlayerTick assembles and flushes one player's complete tick batch:
// shared broadcast frames, interest-filtered entity updates (or a keyframe
// re-baseline after a dropped batch), destroys for entities leaving the
// interest area, and the time update. Writes inside the batch only stage,
// so the one error is the flush's: ErrBacklog, or the writer's sticky
// fault.
func (s *Server) sendPlayerTick(p *Player, bcFrames []protocol.Frame, tickFrame protocol.Frame,
	ents []entSnap, vd int32, entityCap int, counts *tickCounts) error {
	keyframe := p.needKeyframe
	if keyframe {
		// The client missed at least one dropped batch; deltas against
		// positions it never received would corrupt its reconstruction.
		// Dropping the tracked set re-baselines every in-view entity with a
		// full EntityMove below — the keyframe.
		clear(p.lastSent)
	}

	buf := &s.sendScratch
	p.conn.BeginBatch()
	for _, f := range bcFrames {
		p.conn.WriteFrame(f)
	}
	pc := world.ChunkPosAt(p.Pos.BlockPos())
	if p.lastSent == nil {
		p.lastSent = make(map[int64]qpos, len(ents))
	}
	seen := p.seen
	if seen == nil {
		seen = make(map[int64]struct{}, len(ents))
		p.seen = seen
	} else {
		clear(seen)
	}
	sent := 0
	for i := range ents {
		en := &ents[i]
		if !chunkWithinView(en.chunk, pc, vd) {
			continue
		}
		seen[en.id] = struct{}{}
		if sent >= entityCap {
			continue // budget spent; the delta catches up next tick
		}
		last, tracked := p.lastSent[en.id]
		if tracked && en.q == last {
			continue // stationary: nothing on the wire
		}
		dx, dy, dz := en.q.x-last.x, en.q.y-last.y, en.q.z-last.z
		if tracked && fitsInt8(dx) && fitsInt8(dy) && fitsInt8(dz) {
			buf.rel = protocol.EntityMoveRel{
				EntityID: int32(en.id),
				DX:       int8(dx), DY: int8(dy), DZ: int8(dz),
			}
			p.conn.WritePacket(&buf.rel)
		} else {
			// First sighting, a jump too large for a delta, or a keyframe
			// re-baseline: full move.
			p.conn.WriteFrame(en.fullMoveFrame(buf))
		}
		p.lastSent[en.id] = en.q
		sent++
	}
	// Untrack: entities streamed before but no longer in this player's
	// interest area (moved out of view, or despawned) are destroyed
	// client-side, in ID order.
	gone := p.gone[:0]
	for id := range p.lastSent {
		if _, ok := seen[id]; !ok {
			gone = append(gone, id)
		}
	}
	slices.Sort(gone)
	p.gone = gone
	for _, id := range gone {
		delete(p.lastSent, id)
		buf.destroy = protocol.DestroyEntity{EntityID: int32(id)}
		p.conn.WritePacket(&buf.destroy)
	}
	p.conn.WriteFrame(tickFrame)
	if err := p.conn.FlushBatch(); err != nil {
		return err
	}
	if keyframe {
		p.needKeyframe = false
		counts.netKeyframes++
	}
	return nil
}

func fitsInt8(v int32) bool { return v >= -128 && v <= 127 }

// BroadcastChat sends a chat packet to every socket-backed player, encoded
// once. The virtual path accounts chats without materializing them; the
// real path delivers them here, which is how the bot swarm's response-time
// probe observes its own message. A frame a full writer queue refuses is
// counted in OutboundStats.DroppedBatches; a faulted writer is reaped by the
// next dissemination. Tick goroutine only: the connection list is
// server-owned scratch.
func (s *Server) BroadcastChat(c *protocol.Chat) {
	s.mu.Lock()
	conns := s.chatConns[:0]
	for _, pid := range s.order {
		if p := s.players[pid]; p.conn != nil {
			conns = append(conns, p.conn)
		}
	}
	s.chatConns = conns
	s.mu.Unlock()
	if len(conns) == 0 {
		return
	}
	_, f := protocol.EncodeFrame(nil, c)
	var dropped int64
	for _, conn := range conns {
		if _, err := conn.WriteFrame(f); errors.Is(err, protocol.ErrBacklog) {
			dropped++
		}
	}
	clear(conns)
	if dropped > 0 {
		s.mu.Lock()
		s.out.DroppedBatches += dropped
		s.mu.Unlock()
	}
}
