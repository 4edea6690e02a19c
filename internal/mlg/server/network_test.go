package server

import (
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// TestLoginSuccessLeadsTickFrames: a socket player's LoginSuccess is the
// first frame on its connection, ahead of the join burst and the tick
// traffic of the first tick that sees the player.
func TestLoginSuccessLeadsTickFrames(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, testClock())
	a, b := net.Pipe()
	defer b.Close()
	first := make(chan protocol.Packet, 1)
	go func() {
		peer := protocol.NewConn(b)
		pkt, _, err := peer.ReadPacket()
		first <- pkt
		for err == nil { // drain so the tick's writes never block
			_, _, err = peer.ReadPacket()
		}
	}()
	p := s.connect("a", protocol.NewConn(a))
	s.Tick()
	select {
	case pkt := <-first:
		ls, ok := pkt.(*protocol.LoginSuccess)
		if !ok {
			t.Fatalf("first frame is %T, want *protocol.LoginSuccess", pkt)
		}
		if int64(ls.PlayerID) != p.ID {
			t.Fatalf("LoginSuccess for player %d, want %d", ls.PlayerID, p.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no frame reached the peer")
	}
	s.Disconnect(p.ID)
}

// TestQueuedBatchesOutliveArenaReuse pins the arena's validity rule on real
// async writers: sendReal encodes a tick's broadcast frames into one arena
// and rewrites it on the next tick, while the writers may still hold the
// last tick's batches. Two peers that do not read keep tick t's batches
// queued while tick t+1 reuses the arena; read afterwards, each stream
// must carry exactly the packets of every tick. A first tick of block
// changes grows the arena, so ticks t and t+1 encode into the same array
// from its start. The loner sees no entity, so its tick-t batch is one
// frame, the TimeUpdate: the batch a write that staged its frame without
// copying would leave aliasing the arena.
func TestQueuedBatchesOutliveArenaReuse(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, testClock())
	type peer struct {
		p    *Player
		end  net.Conn
		want []protocol.Packet
	}
	join := func(name string) *peer {
		a, b := net.Pipe()
		conn := protocol.NewConn(a)
		conn.StartWriter(protocol.WriterConfig{})
		p := s.connect(name, conn)
		t.Cleanup(func() { s.Disconnect(p.ID); b.Close() })
		p.pendingChunks = nil // broadcast frames only
		login := &protocol.LoginSuccess{PlayerID: int32(p.ID), X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z}
		if err := conn.Flush(); err != nil { // as handleConn sends it
			t.Fatal(err)
		}
		return &peer{p: p, end: b, want: []protocol.Packet{login}}
	}
	// Out of view: 10 chunks east, past the view distance.
	const away = 16 * 10
	viewer, loner := join("viewer"), join("loner")
	peers := []*peer{viewer, loner}
	loner.p.Pos.X += away
	players := []*Player{viewer.p, loner.p}
	ew := s.EntityWorld()
	for x := 4; x < 7; x++ {
		ew.SpawnMob(world.Pos{X: x, Y: 11, Z: 4})
	}
	var mobs []*entity.Entity
	ew.Entities(func(e *entity.Entity) { mobs = append(mobs, e) })
	full := func(e *entity.Entity) protocol.Packet {
		return &protocol.EntityMove{EntityID: int32(e.ID), X: e.Pos.X, Y: e.Pos.Y, Z: e.Pos.Z}
	}
	blockChanges := func(n int) []protocol.BlockChange {
		bc := make([]protocol.BlockChange, n)
		for i := range bc {
			bc[i] = protocol.BlockChange{X: int32(i), Y: 11, Z: int32(n), BlockID: 1, Meta: uint8(i)}
			for _, p := range peers {
				p.want = append(p.want, &bc[i])
			}
		}
		return bc
	}
	step := func(e *entity.Entity) {
		e.Pos.X += 1.0 / 16 // two 1/32-block steps
		viewer.want = append(viewer.want, &protocol.EntityMoveRel{EntityID: int32(e.ID), DX: 2})
	}
	send := func(tick int64, bc []protocol.BlockChange, keepAlive bool) {
		t.Helper()
		for _, p := range peers {
			p.want = append(p.want, &protocol.TimeUpdate{Tick: tick})
		}
		s.mu.Lock()
		s.tick = tick
		s.mu.Unlock()
		var counts tickCounts
		if dead := s.sendReal(players, bc, keepAlive, &counts); len(dead) > 0 {
			t.Fatalf("tick %d: players %v faulted", tick, dead)
		}
	}

	// Tick t-1 grows the arena: block changes, and the viewer's first
	// sighting of every mob.
	const tick = 100
	bc := blockChanges(32)
	for _, e := range mobs {
		viewer.want = append(viewer.want, full(e))
	}
	send(tick-1, bc, false)

	// Tick t: the TimeUpdate is the arena's first frame.
	for _, e := range mobs {
		step(e)
	}
	send(tick, nil, false)

	// Tick t+1 rewrites the arena from its start: block changes, a
	// keep-alive, deltas, and the last mob leaving the viewer for the
	// loner.
	bc = blockChanges(2)
	for _, p := range peers {
		p.want = append(p.want, &protocol.KeepAlive{Nonce: tick + 1})
	}
	last := mobs[len(mobs)-1]
	for _, e := range mobs[:len(mobs)-1] {
		step(e)
	}
	last.Pos.X += away
	viewer.want = append(viewer.want, &protocol.DestroyEntity{EntityID: int32(last.ID)})
	loner.want = append(loner.want, full(last))
	send(tick+1, bc, true)

	// Only now do the peers read.
	for _, p := range peers {
		p.end.SetReadDeadline(time.Now().Add(10 * time.Second))
		c := protocol.NewConn(p.end)
		for i, want := range p.want {
			got, _, err := c.ReadPacket()
			if err != nil {
				t.Fatalf("%s: packet %d: %v", p.p.Name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: packet %d is %T %+v, want %T %+v", p.p.Name, i, got, got, want, want)
			}
		}
	}
}

// TestKeepAliveRidesTick: with nothing but Tick driving the server (no Run,
// no wall-clock loop), a socket player that logged in through handleConn
// receives exactly one KeepAlive in its first keepAliveTicks batches, inside
// the batch of tick keepAliveTicks — the tick the cost model accounts it on.
func TestKeepAliveRidesTick(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), nil, testClock())
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
	conn.WritePacket(&protocol.Login{Name: "keepalive-bot"})
	if _, _, err := conn.ReadPacket(); err != nil { // LoginSuccess
		t.Fatal(err)
	}

	// Each tick batch ends with its TimeUpdate, so a KeepAlive belongs to
	// the batch of the next TimeUpdate read after it.
	type seen struct{ nonce, batch int64 }
	got := make(chan []seen, 1)
	var lastTick atomic.Int64 // the newest TimeUpdate the reader has seen
	go func() {
		var keepAlives []seen
		var pending []int64
		for {
			pkt, _, err := conn.ReadPacket()
			if err != nil {
				got <- nil
				return
			}
			switch p := pkt.(type) {
			case *protocol.KeepAlive:
				pending = append(pending, p.Nonce)
			case *protocol.TimeUpdate:
				for _, n := range pending {
					keepAlives = append(keepAlives, seen{nonce: n, batch: p.Tick})
				}
				pending = pending[:0]
				lastTick.Store(p.Tick)
				if p.Tick == keepAliveTicks {
					got <- keepAlives
					return
				}
			}
		}
	}()

	// Pace the ticks on the reader: unpaced, they outrun the writer queue
	// and drop batches, the one under test among them.
	for i := int64(1); i <= keepAliveTicks; i++ {
		s.Tick()
		deadline := time.Now().Add(10 * time.Second)
		for lastTick.Load() < i {
			if time.Now().After(deadline) {
				t.Fatalf("tick %d batch never arrived (%+v)", i, s.Outbound())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	select {
	case ka := <-got:
		want := []seen{{nonce: keepAliveTicks, batch: keepAliveTicks}}
		if !slices.Equal(ka, want) {
			t.Fatalf("keep-alives (nonce, batch tick) through tick %d = %v, want %v", keepAliveTicks, ka, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("tick %d batch never arrived", keepAliveTicks)
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
	s.sendReal(players, nil, false, &counts)
	base := p.conn.Stats()
	if base.EntityMsgs != 1 {
		t.Fatalf("baseline round sent %d entity packets, want 1 full move", base.EntityMsgs)
	}
	for i := 0; i < 5; i++ {
		s.sendReal(players, nil, false, &counts)
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

// TestVirtualFanOutAllocs: with only virtual players, neither a chat
// broadcast nor a dissemination pass that fans entity updates out
// allocates — both fill server-owned slices, and a broadcast with no
// socket to reach encodes nothing.
func TestVirtualFanOutAllocs(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5SixteenCore, 1),
		env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)))
	for i := 0; i < 20; i++ {
		s.Connect("virtual")
	}
	for i := 0; i < 10; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: 2 * i, Y: 11, Z: 3})
	}
	deliveries := 0
	s.deliverHook = func(int64, world.ChunkPos) { deliveries++ }
	for i := 0; i < 20; i++ {
		s.Tick()
	}
	chat := &protocol.Chat{Sender: "virtual", Text: "probe"}
	if n := testing.AllocsPerRun(100, func() { s.BroadcastChat(chat) }); n != 0 {
		t.Fatalf("BroadcastChat to virtual players: %v allocs, want 0", n)
	}
	// The entity tick that produces the updates stays outside the count;
	// the first 50 passes let the store's drain buffer reach its size.
	pos := s.playerPositions()
	var counts tickCounts
	var before, after runtime.MemStats
	mallocs := uint64(0)
	for i := 0; i < 100; i++ {
		if i == 50 {
			deliveries = 0
		}
		s.ents.Tick(pos)
		runtime.ReadMemStats(&before)
		s.disseminate(&counts)
		runtime.ReadMemStats(&after)
		if i >= 50 {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if deliveries == 0 {
		t.Fatal("no entity update reached a player: the fan-out path did not run")
	}
	if mallocs != 0 {
		t.Fatalf("50 dissemination passes to virtual players: %d allocs, want 0", mallocs)
	}
}
