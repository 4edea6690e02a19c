package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/workload"
)

// topology is how the cluster workload's world is deployed and reached.
type topology int

const (
	// viaGateway is the workload proper: two shards, bots dial the gateway.
	viaGateway topology = iota
	// direct dials each bot straight to the shard owning its position; its
	// probe RTT against viaGateway's is what the gateway adds.
	direct
	// single runs the same world and bots on one server that owns every
	// chunk, under the same shard-mode regime as the cluster's members
	// (ownership predicate installed, natural spawning off), so its tick time
	// against the cluster's isolates what the partition costs: the sharding
	// tax.
	single
)

// clusterSplit cuts the world at chunk X = 2 (block X = 32), 12 blocks into
// the 16-block TNT cuboid, so the cascade crosses the boundary.
const clusterSplit = 2

// clientTimeout bounds every wait on a client: a packet that has not come
// back by then is counted lost.
const clientTimeout = 2 * time.Second

// netRig is an episode of the cluster workload: real loopback listeners, the
// shard mesh, the gateway, and harness-owned protocol.Conn clients.
type netRig struct {
	sz       size
	topo     topology
	composed bool // the harness composes Cluster.Tick's body itself (traced run)

	cluster *shard.Cluster // nil for the single topology
	servers []*server.Server
	lns     []net.Listener // shard listeners, then the gateway's
	serving sync.WaitGroup

	bots     []*netBot
	phase    []int
	round    int
	lastTick int64
}

// netBot is one real-TCP client: the driver goroutine writes its packets, a
// reader goroutine consumes everything the server sends.
type netBot struct {
	name  string
	walk  *bot.Bot
	conn  *protocol.Conn
	start time.Time
	seq   int64
	done  chan struct{} // closed when the reader has exited

	mu       sync.Mutex
	cond     *sync.Cond
	sentNS   map[int64]int64 // probe → write time since start
	rttNS    []int64
	seenTick int64 // newest TimeUpdate read
	readErr  error
}

func dialBot(addr, name string, walk *bot.Bot) (*netBot, error) {
	conn, err := protocol.Dial(addr)
	if err != nil {
		return nil, err
	}
	b := &netBot{name: name, walk: walk, conn: conn, start: time.Now(),
		done: make(chan struct{}), sentNS: make(map[int64]int64)}
	b.cond = sync.NewCond(&b.mu)
	if _, err := conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion}); err == nil {
		_, err = conn.WritePacket(&protocol.Login{Name: name})
	}
	if err == nil {
		var pkt protocol.Packet
		if pkt, _, err = conn.ReadPacket(); err == nil {
			if _, ok := pkt.(*protocol.LoginSuccess); !ok {
				err = fmt.Errorf("login answered with packet %#x", int32(pkt.ID()))
			}
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bot %s login: %w", name, err)
	}
	go b.read()
	return b, nil
}

func (b *netBot) read() {
	defer close(b.done)
	for {
		pkt, _, err := b.conn.ReadPacket()
		b.mu.Lock()
		switch p := pkt.(type) {
		case nil:
			b.readErr = err
		case *protocol.Chat:
			if t0, ok := b.sentNS[p.SentUnixNano]; ok && p.Sender == b.name {
				delete(b.sentNS, p.SentUnixNano)
				b.rttNS = append(b.rttNS, int64(time.Since(b.start))-t0)
			}
		case *protocol.TimeUpdate:
			b.seenTick = max(b.seenTick, p.Tick)
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// wait blocks until ok() holds (evaluated under b.mu), the reader has
// failed, or clientTimeout passes; it reports whether ok() held.
func (b *netBot) wait(ok func() bool) bool {
	expired := false
	timer := time.AfterFunc(clientTimeout, func() {
		b.mu.Lock()
		expired = true
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer timer.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for !ok() {
		if expired || b.readErr != nil {
			return false
		}
		b.cond.Wait()
	}
	return true
}

func (b *netBot) close() {
	b.conn.Close()
	<-b.done
}

// buildNet builds and warms one cluster-workload episode.
func buildNet(sz size, seed int64, workers int, topo topology, composed bool) (_ rig, info setupInfo, err error) {
	t0 := time.Now()
	r := &netRig{sz: sz, topo: topo, composed: composed}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	spec := workload.TNT.DefaultSpec()
	spec.Scale = sz.scale
	spec.IgniteAfterTicks = 20
	newServer := func(sc server.ShardConfig) *server.Server {
		cfg := server.DefaultConfig(server.Vanilla)
		cfg.Sim.Workers = workers
		cfg.Shard = sc
		w := workload.NewWorld(workload.TNT, world.PaperControlSeed)
		return server.New(w, cfg, env.NewMachine(env.DAS5SixteenCore, 1), env.NewVirtualClock(epoch))
	}
	m := shard.Map{}
	if topo == single {
		s := newServer(server.ShardConfig{Count: 1, Owns: m.Owns(0)})
		if err = workload.Install(s, spec); err != nil {
			return nil, info, err
		}
		r.servers = []*server.Server{s}
	} else {
		m = shard.Map{Splits: []int32{clusterSplit}}
		r.cluster, err = shard.NewCluster(shard.ClusterConfig{
			Map: m,
			Build: func(i int, owns func(world.ChunkPos) bool) (*server.Server, error) {
				return newServer(server.ShardConfig{Count: m.Count(), Index: i, Owns: owns}), nil
			},
			Install: func(s *server.Server, _ int) error { return workload.Install(s, spec) },
		})
		if err != nil {
			return nil, info, err
		}
		for i := 0; i < m.Count(); i++ {
			r.servers = append(r.servers, r.cluster.Shard(i))
		}
	}

	listen := func(serve func(net.Listener) error) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		r.lns = append(r.lns, ln)
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			serve(ln) // returns once close() has closed ln
		}()
		return ln.Addr().String(), nil
	}
	addrs := make([]string, len(r.servers))
	for i, s := range r.servers {
		if addrs[i], err = listen(s.Serve); err != nil {
			return nil, info, err
		}
	}
	gateway := ""
	if topo == viaGateway {
		g, err := shard.NewGateway(shard.GatewayConfig{Map: m, Addrs: addrs})
		if err != nil {
			return nil, info, err
		}
		if gateway, err = listen(g.Serve); err != nil {
			return nil, info, err
		}
	}

	// One bot on each side of the boundary, 10 blocks from it, clear of the
	// cuboid (z 20..35), each random-walking its own 8×8 square.
	rng := rand.New(rand.NewSource(seed))
	want := make([]int, len(r.servers))
	for i := 0; i < sz.players; i++ {
		x := float64(clusterSplit*world.ChunkSize - 10 + 20*(i%2))
		owner := m.ShardOfBlock(world.Pos{X: int(x), Y: 11, Z: 12})
		want[owner]++
		addr := addrs[owner]
		if topo == viaGateway {
			addr = gateway
		}
		name := fmt.Sprintf("bot-%03d", i)
		walk := bot.New(bot.Config{Name: name, Behavior: bot.RandomWalk,
			AreaOriginX: x - 4, AreaOriginZ: 8, AreaSide: 8, BaseY: 11, Seed: seed + int64(i)*7919})
		c0 := time.Now()
		b, err := dialBot(addr, name, walk)
		if err != nil {
			return nil, info, err
		}
		info.connectNS = append(info.connectNS, int64(time.Since(c0)))
		r.bots = append(r.bots, b)
		r.phase = append(r.phase, rng.Intn(sz.probeEvery))
	}

	// The first move routes each gateway leg to the owning shard; wait for
	// the sessions to land where they belong before the first tick.
	scratch := newEpisodeData(0, len(r.bots), 0)
	r.input(scratch, nil, 0)
	deadline := time.Now().Add(clientTimeout)
	for i := 0; i < len(want); {
		if r.servers[i].PlayerCount() == want[i] {
			i++
		} else if time.Now().After(deadline) {
			return nil, info, fmt.Errorf("shard %d has %d players, want %d", i, r.servers[i].PlayerCount(), want[i])
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < sz.warm; i++ {
		idleRound(r, scratch)
	}
	for _, s := range r.servers {
		workload.Arm(s, spec)
	}
	info.wallNS = int64(time.Since(t0))
	return r, info, nil
}

func (r *netRig) input(ep *episodeData, tr *tracer, root int) {
	write := func() {
		now := epoch // bot.Actions needs a time only for probes, which the rig sends itself
		for i, b := range r.bots {
			b.conn.BeginBatch()
			for _, pkt := range b.walk.Actions(now) {
				b.conn.WritePacket(pkt) // a dead connection shows as lost probes and ticks
				ep.pktsIn++
			}
			if (r.round+r.phase[i])%r.sz.probeEvery == 0 {
				b.seq++
				b.mu.Lock()
				b.sentNS[b.seq] = int64(time.Since(b.start))
				b.mu.Unlock()
				b.conn.WritePacket(&protocol.Chat{Sender: b.name, Text: "probe", SentUnixNano: b.seq})
				ep.pktsIn++
				ep.probes++
			}
			b.conn.FlushBatch()
		}
	}
	layer(tr, "bot.write", root, write)
	r.round++
}

func (r *netRig) tick(ep *episodeData, tr *tracer, root int) server.TickRecord {
	var rec server.TickRecord
	var failed bool
	t0 := time.Now()
	switch {
	case r.topo == single:
		rec = r.servers[0].Tick()
	case !r.composed:
		rec = r.cluster.Tick()
		failed = r.cluster.Err() != nil
	default:
		// Cluster.Tick's body, one span per call: every shard ticks, then
		// every endpoint sends, then every endpoint applies.
		for i, s := range r.servers {
			layer(tr, "shard.Tick", root, func() {
				one := s.Tick()
				if i == 0 {
					rec = one
				} else {
					rec.Sim, rec.Ent = rec.Sim.Add(one.Sim), rec.Ent.Add(one.Ent)
					rec.Entities += one.Entities
					rec.SimRegions += one.SimRegions
					rec.EntRegions += one.EntRegions
					rec.SimParallel = rec.SimParallel || one.SimParallel
					rec.EntParallel = rec.EntParallel || one.EntParallel
					rec.Crashed = rec.Crashed || one.Crashed
				}
			})
		}
		for i := range r.servers {
			layer(tr, "shard.SendTick", root, func() {
				failed = r.cluster.Endpoint(i).SendTick(rec.Tick) != nil || failed
			})
		}
		for i := range r.servers {
			layer(tr, "shard.ApplyTick", root, func() {
				failed = r.cluster.Endpoint(i).ApplyTick(rec.Tick) != nil || failed
			})
		}
	}
	ep.tickNS = append(ep.tickNS, int64(time.Since(t0)))
	rec.Crashed = rec.Crashed || failed
	r.lastTick = rec.Tick
	return rec
}

// output waits until every bot has read the tick's TimeUpdate — the traced
// run's bot.deliver span. Each client thus sends its next input only after
// the server's last output reached it, which is what makes the loop closed
// on the client side too, and is how a paced 20 Hz loop would find the
// connections: drained, not still carrying the previous tick.
func (r *netRig) output(ep *episodeData, tr *tracer, root int) {
	layer(tr, "bot.deliver", root, func() { r.awaitTick(ep) })
}

// awaitTick waits until every bot has read the last tick's TimeUpdate.
func (r *netRig) awaitTick(ep *episodeData) {
	for _, b := range r.bots {
		if !b.wait(func() bool { return b.seenTick >= r.lastTick }) {
			ep.lost++
		}
	}
}

// begin forgets the probes still in flight from the warm-up, so the window
// counts only its own.
func (r *netRig) begin() {
	for _, b := range r.bots {
		b.mu.Lock()
		clear(b.sentNS)
		b.rttNS = b.rttNS[:0]
		b.mu.Unlock()
	}
}

// settle waits for every bot to have read the final tick's TimeUpdate and
// its own probes' echoes. A probe written just before the last tick can still
// sit in a shard's inbox — the tick did not wait for it — so up to three more
// ticks, outside the window, flush it; what is still missing then is lost.
func (r *netRig) settle(ep *episodeData) {
	r.awaitTick(ep)
	var scratch episodeData
	for flush := 0; flush < 3 && r.inFlight() > 0; flush++ {
		r.tick(&scratch, nil, 0)
		r.awaitTick(&scratch) // the echo precedes the TimeUpdate on the wire
	}
	for i, b := range r.bots {
		b.mu.Lock()
		ep.lost += len(b.sentNS)
		clear(b.sentNS)
		ep.rttNS[i] = append(ep.rttNS[i], b.rttNS...)
		b.rttNS = b.rttNS[:0]
		b.mu.Unlock()
	}
}

// inFlight counts probes written but not yet echoed.
func (r *netRig) inFlight() int {
	n := 0
	for _, b := range r.bots {
		b.mu.Lock()
		n += len(b.sentNS)
		b.mu.Unlock()
	}
	return n
}

func (r *netRig) totals() totals {
	var t totals
	for _, s := range r.servers {
		n, o := s.NetTotals(), s.Outbound()
		t.net.Msgs += n.Msgs
		t.net.Bytes += n.Bytes
		t.net.EntityMsgs += n.EntityMsgs
		t.net.EntityBytes += n.EntityBytes
		t.simFallback += s.Engine().ParallelStats().FallbackTicks
		t.entRetick += s.EntityWorld().ParallelStats().FallbackTicks
		t.dropped += o.DroppedBatches
		t.keyframes += o.Keyframes
	}
	for _, b := range r.bots {
		st := b.conn.Stats()
		t.msgsIn += st.MsgsIn
		t.bytesIn += st.BytesIn
	}
	return t
}

func (r *netRig) state() (uint64, []world.ChunkState) {
	if r.cluster != nil {
		snap := r.cluster.Snapshot()
		return snap.EntitySum, snap.Chunks
	}
	return r.servers[0].EntityWorld().StateSum(), r.servers[0].World().ChunkStates()
}

// close stops clients first (their gateway legs follow), then the servers
// (which closes every remaining session), then the listeners and the mesh.
func (r *netRig) close() {
	for _, b := range r.bots {
		b.close()
	}
	for _, s := range r.servers {
		s.Stop()
	}
	for _, ln := range r.lns {
		ln.Close()
	}
	r.serving.Wait()
	if r.cluster != nil {
		for i := range r.servers {
			ep := r.cluster.Endpoint(i)
			for _, p := range ep.Peers() {
				ep.DropSession(p)
			}
		}
	}
}
