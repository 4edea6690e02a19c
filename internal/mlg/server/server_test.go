package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

func testClock() *env.VirtualClock {
	return env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
}

func newTestServer(t *testing.T, f Flavor) (*Server, *env.VirtualClock) {
	t.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := testClock()
	m := env.NewMachine(env.DAS5TwoCore, 7)
	cfg := DefaultConfig(f)
	s := New(w, cfg, m, clock)
	return s, clock
}

func TestFlavorByName(t *testing.T) {
	for _, name := range []string{"Minecraft", "Vanilla", "Forge", "PaperMC", "Paper"} {
		if _, err := FlavorByName(name); err != nil {
			t.Errorf("FlavorByName(%q): %v", name, err)
		}
	}
	if _, err := FlavorByName("Bukkit"); err == nil {
		t.Error("expected error for unknown flavor")
	}
	if got, _ := FlavorByName("Paper"); !got.AsyncChat || got.ActivationRange == 0 {
		t.Error("Paper flavor not configured with its optimizations")
	}
	if got, _ := FlavorByName("Forge"); got.EventOverhead <= 1.0 {
		t.Error("Forge must have event overhead > 1")
	}
	if len(Flavors()) != 3 {
		t.Error("Flavors() must return 3 systems under test")
	}
}

func TestFlavorDerivedConfigs(t *testing.T) {
	sc := Paper.SimConfig()
	if !sc.RedstoneBatch || !sc.ExplosionMerge {
		t.Error("Paper sim config missing optimizations")
	}
	ec := Paper.EntityConfig()
	if ec.ActivationRange != 32 {
		t.Error("Paper entity config missing activation range")
	}
	if Vanilla.SimConfig().RedstoneBatch {
		t.Error("Vanilla sim config must not batch redstone")
	}
}

func TestConnectLoadsChunksAndSendsJoinBurst(t *testing.T) {
	s, _ := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	if p == nil || p.ID == 0 {
		t.Fatal("connect failed")
	}
	if s.PlayerCount() != 1 {
		t.Fatal("player count wrong")
	}
	wantChunks := (2*5 + 1) * (2*5 + 1)
	if s.World().ChunkCount() < wantChunks {
		t.Fatalf("view area not loaded: %d chunks", s.World().ChunkCount())
	}
	rec := s.Tick()
	// The join tick must carry the chunk-send burst: network work present
	// and a duration spike versus steady state.
	if rec.Work.NetworkUS <= 0 {
		t.Fatal("join tick has no network work")
	}
	var steady TickRecord
	for i := 0; i < 10; i++ {
		steady = s.Tick()
	}
	if rec.Dur <= steady.Dur {
		t.Fatalf("join tick (%v) not slower than steady tick (%v)", rec.Dur, steady.Dur)
	}
}

func TestTickAdvancesVirtualClock(t *testing.T) {
	s, clock := newTestServer(t, Vanilla)
	s.Connect("alice")
	start := clock.Now()
	rec := s.Tick()
	elapsed := clock.Now().Sub(start)
	// The clock advances by at least the tick budget (fast ticks wait out
	// the remainder) and exactly by busy + waitAfter.
	if elapsed < TickBudget {
		t.Fatalf("clock advanced %v, want >= %v", elapsed, TickBudget)
	}
	want := rec.Dur + rec.WaitBefore + rec.WaitAfter
	if elapsed != want {
		t.Fatalf("clock advanced %v, want %v", elapsed, want)
	}
}

func TestOverloadedTickSkipsWait(t *testing.T) {
	// A huge synthetic workload must produce Dur > budget and WaitAfter 0.
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := testClock()
	m := env.NewMachine(env.DAS5TwoCore, 7)
	cfg := DefaultConfig(Vanilla)
	s := New(w, cfg, m, clock)
	s.Connect("alice")
	// A wall of TNT ignited at once overloads the tick.
	for x := 0; x < 12; x++ {
		for z := 0; z < 12; z++ {
			for y := 12; y < 20; y++ {
				w.SetBlock(world.Pos{X: x, Y: y, Z: z}, world.B(world.TNT))
			}
		}
	}
	s.Engine().ScheduleIgnite(world.Pos{X: 5, Y: 14, Z: 5}, 2)
	overloaded := false
	for i := 0; i < 400; i++ {
		rec := s.Tick()
		if rec.Dur > TickBudget {
			overloaded = true
			if rec.WaitAfter != 0 {
				t.Fatalf("overloaded tick still waited %v", rec.WaitAfter)
			}
		}
	}
	if !overloaded {
		t.Fatal("TNT wall never overloaded the server")
	}
}

func TestSyncChatEchoReadyAtTickEnd(t *testing.T) {
	s, clock := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	s.Tick() // absorb join burst

	sent := clock.Now()
	s.Enqueue(p.ID, &protocol.Chat{Sender: "alice", Text: "probe", SentUnixNano: sent.UnixNano()}, sent)
	rec := s.Tick()
	echoes := s.DrainChatEchoes()
	if len(echoes) != 1 {
		t.Fatalf("echoes = %d, want 1", len(echoes))
	}
	e := echoes[0]
	if e.PlayerID != p.ID || e.SentUnixNano != sent.UnixNano() {
		t.Fatalf("echo fields wrong: %+v", e)
	}
	wantReady := rec.Start.Add(rec.WaitBefore + rec.Dur)
	if !e.ReadyAt.Equal(wantReady) {
		t.Fatalf("ReadyAt = %v, want tick flush %v", e.ReadyAt, wantReady)
	}
	if !e.ReadyAt.After(sent) {
		t.Fatal("echo ready before it was sent")
	}
}

func TestAsyncChatBypassesTick(t *testing.T) {
	s, clock := newTestServer(t, Paper)
	p := s.Connect("alice")
	s.Tick()

	sent := clock.Now()
	s.Enqueue(p.ID, &protocol.Chat{Sender: "alice", Text: "probe", SentUnixNano: sent.UnixNano()}, sent)
	s.Tick()
	echoes := s.DrainChatEchoes()
	if len(echoes) != 1 {
		t.Fatalf("echoes = %d, want 1", len(echoes))
	}
	// Paper's async chat completes a fixed small delay after arrival,
	// independent of the tick flush.
	gap := echoes[0].ReadyAt.Sub(sent)
	if gap <= 0 || gap > 5*time.Millisecond {
		t.Fatalf("async chat delay = %v, want small positive", gap)
	}
}

func TestPlayerMoveValidation(t *testing.T) {
	s, clock := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	s.Tick()

	// Legal move.
	s.Enqueue(p.ID, &protocol.PlayerMove{X: 10.5, Y: 11, Z: 10.5}, clock.Now())
	s.Tick()
	if p.Pos.X != 10.5 {
		t.Fatalf("legal move rejected: %+v", p.Pos)
	}
	// Move into solid ground must be rejected.
	s.Enqueue(p.ID, &protocol.PlayerMove{X: 12.5, Y: 5, Z: 12.5}, clock.Now())
	s.Tick()
	if p.Pos.Y == 5 {
		t.Fatal("move into solid terrain accepted")
	}
}

func TestPlayerDigAndPlace(t *testing.T) {
	s, clock := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	s.Tick()

	target := world.Pos{X: 3, Y: 10, Z: 3}
	s.Enqueue(p.ID, &protocol.PlayerAction{Action: protocol.ActionDig,
		X: int32(target.X), Y: int32(target.Y), Z: int32(target.Z)}, clock.Now())
	before := s.NetTotals()
	s.Tick()
	if got := s.World().Block(target); !got.IsAir() {
		t.Fatalf("dig failed: %v", got.ID)
	}
	after := s.NetTotals()
	if after.Msgs <= before.Msgs {
		t.Fatal("dig produced no state-update messages")
	}

	s.Enqueue(p.ID, &protocol.PlayerAction{Action: protocol.ActionPlace,
		X: int32(target.X), Y: int32(target.Y), Z: int32(target.Z),
		BlockID: uint8(world.TNT)}, clock.Now())
	s.Tick()
	if got := s.World().Block(target); got.ID != world.TNT {
		t.Fatalf("place failed: %v", got.ID)
	}
}

func TestTNTExplosionRoutedThroughTick(t *testing.T) {
	s, _ := newTestServer(t, Vanilla)
	s.Connect("alice")
	s.Tick()
	// Prime TNT directly with a short fuse.
	s.EntityWorld().SpawnPrimedTNT(world.Pos{X: 8, Y: 12, Z: 8}, 3)
	var sawExplosionWork bool
	for i := 0; i < 10; i++ {
		rec := s.Tick()
		if rec.Work.BlockAddRemoveUS > 0 && rec.Work.BlockUpdateUS > 0 {
			sawExplosionWork = true
		}
	}
	if !sawExplosionWork {
		t.Fatal("explosion work never appeared in tick records")
	}
	// The crater must exist.
	if got := s.World().Block(world.Pos{X: 8, Y: 10, Z: 8}); !got.IsAir() {
		t.Fatal("no crater at explosion site")
	}
}

func TestClientTimeoutCrash(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := testClock()
	m := env.NewMachine(env.DAS5TwoCore, 7)
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ClientTimeout = time.Microsecond // everything times out
	s := New(w, cfg, m, clock)
	s.Connect("alice")
	rec := s.Tick()
	if !rec.Crashed {
		t.Fatal("tick not marked crashed")
	}
	crashed, reason := s.Crashed()
	if !crashed || reason == "" {
		t.Fatal("server not crashed")
	}
	if s.PlayerCount() != 0 {
		t.Fatal("players not dropped on crash")
	}
}

func TestNoCrashWithoutPlayers(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := testClock()
	m := env.NewMachine(env.DAS5TwoCore, 7)
	cfg := DefaultConfig(Vanilla)
	cfg.Net.ClientTimeout = time.Microsecond
	s := New(w, cfg, m, clock)
	if rec := s.Tick(); rec.Crashed {
		t.Fatal("crash without connected players")
	}
}

func TestFig11TotalsAccumulate(t *testing.T) {
	s, _ := newTestServer(t, Vanilla)
	s.Connect("alice")
	var f Fig11Totals
	for i := 0; i < 50; i++ {
		f.Add(s.Tick())
	}
	if f.OtherUS <= 0 {
		t.Error("no Other time accumulated")
	}
	if f.WaitAfterUS <= 0 {
		t.Error("no WaitAfter accumulated (server should be idle-ish)")
	}
	if f.WaitBeforeUS <= 0 {
		t.Error("no WaitBefore accumulated")
	}
}

func TestEntityMessagesDominateCount(t *testing.T) {
	// Table 8 shape: with mobs active, entity messages dominate message
	// count but not byte count (chunk joins dominate bytes).
	s, clock := newTestServer(t, Vanilla)
	p := s.Connect("alice")
	for i := 0; i < 20; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: 30 + i, Y: 11, Z: 30})
	}
	for i := 0; i < 200; i++ {
		if i%40 == 0 {
			s.Enqueue(p.ID, &protocol.PlayerMove{X: 8.5, Y: 11, Z: 8.5}, clock.Now())
		}
		s.Tick()
	}
	n := s.NetTotals()
	if n.EntityMsgs == 0 {
		t.Fatal("no entity messages")
	}
	msgFrac := float64(n.EntityMsgs) / float64(n.Msgs)
	byteFrac := float64(n.EntityBytes) / float64(n.Bytes)
	if msgFrac < 0.5 {
		t.Errorf("entity message fraction %v, want > 0.5", msgFrac)
	}
	if byteFrac >= msgFrac {
		t.Errorf("entity byte fraction %v should be well below message fraction %v", byteFrac, msgFrac)
	}
}

func TestRecordsAndTrace(t *testing.T) {
	s, _ := newTestServer(t, Vanilla)
	var hooked []TickRecord
	s.afterTick = func(rec TickRecord) { hooked = append(hooked, rec) }
	for i := 1; i <= 10; i++ {
		rec := s.Tick()
		if rec.Tick != int64(i) || rec.Dur <= 0 {
			t.Fatalf("tick %d: record %+v", i, rec)
		}
		if len(hooked) != i || hooked[i-1] != rec {
			t.Fatalf("tick %d: AfterTick saw %d records, last differs from Tick's", i, len(hooked))
		}
	}
	if s.TickNumber() != 10 {
		t.Fatalf("tick number = %d", s.TickNumber())
	}
}

func TestWallClockModeMeasuresRealTime(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	s := New(w, cfg, nil, env.RealClock{}) // no machine: wall-clock mode
	s.Connect("alice")
	start := time.Now()
	rec := s.Tick()
	if rec.Dur <= 0 {
		t.Fatal("wall-clock tick duration not measured")
	}
	if time.Since(start) < TickBudget/2 {
		t.Fatal("real clock did not wait out the budget")
	}
}

// TestWallClockOverloadedTickPeriod holds each tick for 80 ms inside the
// tick (a delivery hook fired by a fresh item spawn). An overloaded tick
// must start the next one right away: a period of about 80 ms, not the
// work slept a second time (about 160 ms).
func TestWallClockOverloadedTickPeriod(t *testing.T) {
	const work = 80 * time.Millisecond
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
	hold := false
	cfg.Hooks.EntityDelivery = func(int64, world.ChunkPos) {
		if hold {
			hold = false
			time.Sleep(work)
		}
	}
	s := New(w, cfg, nil, env.RealClock{})
	s.Connect("alice")
	const ticks = 3
	start := time.Now()
	for i := 0; i < ticks; i++ {
		s.EntityWorld().SpawnItem(world.Pos{X: 8, Y: 30, Z: 8}, world.Gravel)
		hold = true
		s.Tick()
		if hold {
			t.Fatal("the delivery hook did not run inside the tick")
		}
	}
	if period := time.Since(start) / ticks; period < work || period > work*3/2 {
		t.Fatalf("overloaded tick period %v, want about %v", period, work)
	}
}

func TestRealTCPSession(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig(Vanilla)
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
	ls, err := conn.LogIn("it-bot")
	if err != nil {
		t.Fatal(err)
	}
	if ls.PlayerID == 0 {
		t.Fatal("no player id assigned")
	}

	// Send a chat probe, run ticks, expect chunk data and the echo.
	sent := time.Now()
	if _, err := conn.WritePacket(&protocol.Chat{Sender: "it-bot", Text: "ping", SentUnixNano: sent.UnixNano()}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 20; i++ {
			s.Tick()
		}
	}()

	sawChunk, sawChat := false, false
	deadline := time.After(5 * time.Second)
	for !(sawChunk && sawChat) {
		select {
		case <-deadline:
			t.Fatalf("timed out: chunk=%v chat=%v", sawChunk, sawChat)
		default:
		}
		pkt, _, err := conn.ReadPacket()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch q := pkt.(type) {
		case *protocol.ChunkData:
			sawChunk = true
			if len(q.Data) == 0 {
				t.Fatal("empty chunk payload")
			}
		case *protocol.Chat:
			sawChat = true
			if q.SentUnixNano != sent.UnixNano() {
				t.Fatal("chat echo timestamp mangled")
			}
		}
	}
}

// TestRealSessionUntracksOutOfViewEntities: when a TCP player's view no
// longer covers an entity's chunk, the server must send a destroy for it
// rather than silently stopping its movement stream (which would leave a
// stale ghost on the client).
func TestRealSessionUntracksOutOfViewEntities(t *testing.T) {
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
	conn.WritePacket(&protocol.Login{Name: "ghost-bot"})
	if _, _, err := conn.ReadPacket(); err != nil { // LoginSuccess
		t.Fatal(err)
	}

	s.EntityWorld().SpawnMob(world.Pos{X: 10, Y: 11, Z: 10})
	var mobID int32
	s.EntityWorld().Entities(func(e *entity.Entity) { mobID = int32(e.ID) })
	s.Tick() // streams the in-view mob

	// Teleport far outside view distance; the next tick must untrack.
	sent := time.Now()
	conn.WritePacket(&protocol.PlayerMove{X: 500.5, Y: 11, Z: 500.5})
	go func() {
		for i := 0; i < 20; i++ {
			s.Tick()
		}
	}()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("no DestroyEntity for out-of-view mob %d after %v", mobID, time.Since(sent))
		default:
		}
		pkt, _, err := conn.ReadPacket()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if d, ok := pkt.(*protocol.DestroyEntity); ok && d.EntityID == mobID {
			return // untracked, as required
		}
	}
}

func TestHandshakeRejection(t *testing.T) {
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
	conn.WritePacket(&protocol.Handshake{Version: 999})
	pkt, _, err := conn.ReadPacket()
	if err != nil {
		return // connection closed: acceptable rejection
	}
	if _, ok := pkt.(*protocol.Disconnect); !ok {
		t.Fatalf("expected Disconnect, got %T", pkt)
	}
}

func TestChunkWithinView(t *testing.T) {
	pc := world.ChunkPos{X: 3, Z: -2}
	cases := []struct {
		c    world.ChunkPos
		vd   int32
		want bool
	}{
		{world.ChunkPos{X: 3, Z: -2}, 5, true},
		{world.ChunkPos{X: 8, Z: 3}, 5, true},   // corner of the view square
		{world.ChunkPos{X: 9, Z: -2}, 5, false}, // one past the edge
		{world.ChunkPos{X: -2, Z: -7}, 5, true},
		{world.ChunkPos{X: 3, Z: 4}, 5, false},
		{world.ChunkPos{X: 3, Z: -2}, 0, true},
	}
	for _, tc := range cases {
		if got := chunkWithinView(tc.c, pc, tc.vd); got != tc.want {
			t.Errorf("chunkWithinView(%v, %v, %d) = %v, want %v", tc.c, pc, tc.vd, got, tc.want)
		}
	}
}

// TestInterestManagedEntityBroadcast: entity state updates from chunks
// outside every player's view distance must not be accounted as outbound
// messages. Two identical servers differ only in where their mob herd
// lives: on a platform right next to the single player, or far outside
// their view. The world is void (no ambient spawning is possible), so the
// far run must produce exactly zero entity traffic.
func TestInterestManagedEntityBroadcast(t *testing.T) {
	run := func(mobBase int) int64 {
		w := world.New(nil) // void: no ground, no ambient spawns
		s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5TwoCore, 7), testClock())
		s.Connect("alice")
		s.Tick() // absorb the join burst
		// A platform for the herd to wander on.
		for x := 0; x < 16; x++ {
			for z := 0; z < 16; z++ {
				w.SetBlock(world.Pos{X: mobBase + x, Y: 10, Z: mobBase + z}, world.B(world.Stone))
			}
		}
		for i := 0; i < 20; i++ {
			s.EntityWorld().SpawnMob(world.Pos{X: mobBase + 5 + i%5, Y: 11, Z: mobBase + 5 + i/5})
		}
		before := s.NetTotals().EntityMsgs
		for i := 0; i < 60; i++ {
			s.Tick()
		}
		return s.NetTotals().EntityMsgs - before
	}
	near := run(24)  // chunks 1-2: inside view distance 5 of the spawn chunk
	far := run(2000) // chunk 125+: far outside
	if near == 0 {
		t.Fatal("near herd produced no entity messages")
	}
	if far != 0 {
		t.Fatalf("far herd leaked %d entity messages past the interest sets", far)
	}
}

func TestPaperLighterThanVanillaUnderEntityLoad(t *testing.T) {
	// MF4/I5 shape at the engine level: under identical entity-heavy load
	// far from the player, Paper's activation range must yield less entity
	// work than Vanilla.
	load := func(f Flavor) float64 {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		clock := testClock()
		m := env.NewMachine(env.DAS5TwoCore, 7)
		s := New(w, DefaultConfig(f), m, clock)
		s.Connect("alice")
		w.EnsureArea(world.Pos{X: 80, Y: 0, Z: 80}, 3)
		for i := 0; i < 60; i++ {
			s.EntityWorld().SpawnMob(world.Pos{X: 80 + i%10, Y: 11, Z: 80 + i/10})
		}
		var total float64
		for i := 0; i < 100; i++ {
			total += s.Tick().Work.EntityUS
		}
		return total
	}
	v, p := load(Vanilla), load(Paper)
	if p >= v*0.7 {
		t.Fatalf("Paper entity work (%v) not clearly below Vanilla (%v)", p, v)
	}
}
