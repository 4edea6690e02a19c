package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// relTracker reconstructs entity positions client-side from the mixed
// EntityMove/EntityMoveRel stream, the way a real client would.
type relTracker struct {
	mu    sync.Mutex
	pos   map[int32]qpos
	fulls int
	rels  int
}

func (rt *relTracker) apply(pkt protocol.Packet) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch p := pkt.(type) {
	case *protocol.EntityMove:
		rt.pos[p.EntityID] = qpos{x: quant(p.X), y: quant(p.Y), z: quant(p.Z)}
		rt.fulls++
	case *protocol.EntityMoveRel:
		q := rt.pos[p.EntityID]
		q.x += int32(p.DX)
		q.y += int32(p.DY)
		q.z += int32(p.DZ)
		rt.pos[p.EntityID] = q
		rt.rels++
	case *protocol.DestroyEntity:
		delete(rt.pos, p.EntityID)
	}
}

func (rt *relTracker) snapshot(id int32) (qpos, int, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.pos[id], rt.fulls, rt.rels
}

// TestEntityMoveRelDeltaStream: over a real loopback connection, in-view
// entity movement must stream as one full EntityMove baseline followed by
// compact EntityMoveRel deltas, and the client's reconstructed position
// must land exactly on the server's (quantized to the shared 1/32 grid).
func TestEntityMoveRelDeltaStream(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, env.RealClock{})
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
	conn.WritePacket(&protocol.Login{Name: "delta-bot"})
	if _, _, err := conn.ReadPacket(); err != nil { // LoginSuccess
		t.Fatal(err)
	}

	s.EntityWorld().SpawnMob(world.Pos{X: 12, Y: 11, Z: 12})
	var mob *entity.Entity
	s.EntityWorld().Entities(func(e *entity.Entity) { mob = e })
	mobID := int32(mob.ID)

	rt := &relTracker{pos: make(map[int32]qpos)}
	go func() {
		for {
			pkt, _, err := conn.ReadPacket()
			if err != nil {
				return
			}
			rt.apply(pkt)
		}
	}()

	// Walk the mob in small steps; each tick's dissemination streams the
	// position. Mutations happen before the tick so the final tick's stream
	// reflects the final position.
	for i := 0; i < 12; i++ {
		mob.Pos.X += 0.40625 // 13/32: exact on the delta grid
		mob.Pos.Z += 0.3
		s.Tick()
	}
	want := qpos{x: quant(mob.Pos.X), y: quant(mob.Pos.Y), z: quant(mob.Pos.Z)}

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, fulls, rels := rt.snapshot(mobID)
		if got == want {
			if fulls < 1 {
				t.Fatal("no full EntityMove baseline seen")
			}
			if rels < 1 {
				t.Fatal("movement never streamed as EntityMoveRel deltas")
			}
			if fulls >= rels {
				t.Fatalf("delta streaming not dominant: %d full moves vs %d deltas", fulls, rels)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client position %+v never converged to server %+v (%d fulls, %d rels)",
				got, want, fulls, rels)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSocketChatLeavesNoEcho: a socket client sees its chat in the
// BroadcastChat fan-out, so the tick that handles it must not also queue a
// ChatEcho that no driver of a TCP server ever drains.
func TestSocketChatLeavesNoEcho(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, env.RealClock{})
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
	conn.WritePacket(&protocol.Login{Name: "chat-bot"})
	if _, _, err := conn.ReadPacket(); err != nil { // LoginSuccess
		t.Fatal(err)
	}
	echoed := make(chan struct{})
	go func() {
		for {
			pkt, _, err := conn.ReadPacket()
			if err != nil {
				return
			}
			if _, ok := pkt.(*protocol.Chat); ok {
				close(echoed)
				return
			}
		}
	}()
	conn.WritePacket(&protocol.Chat{Sender: "chat-bot", Text: "probe", SentUnixNano: 1})

	deadline := time.Now().Add(5 * time.Second)
	for {
		s.Tick()
		select {
		case <-echoed:
			if got := s.DrainChatEchoes(); len(got) != 0 {
				t.Fatalf("socket chat left %d echoes nobody drains: %+v", len(got), got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("chat never came back through the broadcast fan-out")
		}
	}
}

// TestStationaryEntitiesSendNothing: an in-view entity that does not move
// between broadcast rounds must send exactly one full-move baseline and
// then nothing.
func TestStationaryEntitiesSendNothing(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5TwoCore, 7), testClock())
	p := s.connect("alice", protocol.NewConn(discardConn{}))
	p.pendingChunks = nil
	// An item entity parked next to the player; it is never ticked, so it
	// is stationary by construction.
	s.EntityWorld().SpawnItem(world.Pos{X: 10, Y: 11, Z: 10}, world.Stone)

	var counts tickCounts
	players := []*Player{p}
	s.sendReal(players, nil, &counts)
	base := p.conn.Stats()
	if base.EntityMsgs != 1 {
		t.Fatalf("baseline round sent %d entity packets, want 1 full move", base.EntityMsgs)
	}
	for i := 0; i < 5; i++ {
		s.sendReal(players, nil, &counts)
	}
	after := p.conn.Stats()
	if got := after.EntityMsgs - base.EntityMsgs; got != 0 {
		t.Fatalf("stationary entity produced %d entity packets after baseline", got)
	}
	if after.MsgsOut <= base.MsgsOut {
		t.Fatal("broadcast rounds stopped sending entirely (no time updates)")
	}
}

// gateGenerator blocks chunk generation until released, exposing what locks
// a connecting player's world-generation burst holds.
type gateGenerator struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateGenerator) GenerateChunk(c *world.Chunk) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
}

// TestConnectWorldGenOutsideServerMutex: while a join burst is generating
// terrain, Enqueue and stats readers must not block on the server mutex.
func TestConnectWorldGenOutsideServerMutex(t *testing.T) {
	gen := &gateGenerator{started: make(chan struct{}), release: make(chan struct{})}
	w := world.New(gen)
	s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5TwoCore, 7), testClock())

	connected := make(chan *Player)
	go func() { connected <- s.Connect("slow-join") }()
	<-gen.started // the join is now parked inside world generation

	probed := make(chan int)
	go func() {
		s.Enqueue(99, &protocol.KeepAlive{}, time.Now())
		probed <- s.PlayerCount()
	}()
	select {
	case n := <-probed:
		if n != 0 {
			t.Fatalf("player registered before its world loaded: count %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue/PlayerCount blocked on s.mu during join world generation")
	}

	close(gen.release)
	if p := <-connected; p == nil || p.ID == 0 {
		t.Fatal("connect failed after release")
	}
}

// TestProcessInboxStablePartition: due packets apply in arrival-queue order
// and not-yet-due packets survive, in order, to the tick they become due.
func TestProcessInboxStablePartition(t *testing.T) {
	s, clock := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	s.Tick()

	now := clock.Now()
	s.Enqueue(p.ID, &protocol.PlayerMove{X: 9.5, Y: 11, Z: 8.5}, now)
	s.Enqueue(p.ID, &protocol.PlayerMove{X: 10.5, Y: 11, Z: 8.5}, now.Add(10*time.Millisecond))
	s.Enqueue(p.ID, &protocol.PlayerMove{X: 11.5, Y: 11, Z: 8.5}, now)

	s.Tick() // due: first and third, in order; later: the +60ms move
	if p.Pos.X != 11.5 {
		t.Fatalf("due moves misapplied: X = %v, want 11.5 (last due)", p.Pos.X)
	}
	s.Tick() // the held-back move is now due
	if p.Pos.X != 10.5 {
		t.Fatalf("deferred move lost or reordered: X = %v, want 10.5", p.Pos.X)
	}
}
