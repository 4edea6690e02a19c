package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/sim"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// autosaveEvery is the players workload's snapshot cadence in ticks; every
// second snapshot is full, so 2 % of ticks pay a whole-world capture.
const autosaveEvery = 25

// epoch is where every virtual clock starts; modelled output depends on it
// only through tick start times, so any fixed instant does.
var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// inprocRig is an episode of tnt, lag or players: one server on a virtual
// clock and the DAS5 16-core machine model, virtual players whose packets go
// in through Server.Enqueue and whose chat echoes come back through
// DrainChatEchoes.
//
// With twin set it is the traced run's twin rig. Server.Tick is opaque from
// outside, so a second, identical server B is never ticked whole: each round
// it receives A's post-inbox player positions and is driven through the
// layers' own public calls in Server.Tick's order, one span per call. A's
// span minus the sum of B's is what the server layer itself costs (inbox,
// dissemination, accounting, snapshot capture).
type inprocRig struct {
	wl   string
	sz   size
	s    *server.Server
	twin *server.Server

	clock   *env.VirtualClock
	players []*server.Player
	walkers []*bot.Bot // nil entries are idle players
	phase   []int      // per player: which round of probeEvery carries its probe
	round   int        // closed-loop rounds so far, warm-up included

	start  time.Time
	sentNS []int64 // probe i's send time since start; -1 once echoed
	sentBy []int   // probe i's client
	pos    []entity.Vec3

	dir string // autosave store (players), removed by close
}

// newInprocServer builds one bare server for the workload: the default
// configuration — Sim.Seed included, see README.md on why -seed drives the
// clients only — apart from the worker count the Workers=1 comparison
// episodes set and the players workload's autosave store.
func newInprocServer(wl string, workers int, store *persist.Store) (*server.Server, *env.VirtualClock) {
	kind, flavor := workload.TNT, server.Vanilla
	switch wl {
	case "lag":
		kind = workload.Lag
	case "players":
		kind, flavor = workload.Players, server.Paper
	}
	cfg := server.DefaultConfig(flavor)
	cfg.Sim.Workers = workers
	if store != nil {
		cfg.Persist = server.PersistConfig{Store: store, Every: autosaveEvery, FullEvery: 2}
	}
	clock := env.NewVirtualClock(epoch)
	w := workload.NewWorld(kind, world.PaperControlSeed)
	return server.New(w, cfg, env.NewMachine(env.DAS5SixteenCore, 1), clock), clock
}

// populate installs the workload on s and connects its players, identically
// for A and B (B needs the same loaded chunks and entities, not the clients).
func populate(s *server.Server, wl string, sz size, info *setupInfo) ([]*server.Player, workload.Spec, error) {
	w := s.World()
	timedEnsure := func(center world.Pos, radius int) {
		t0 := time.Now()
		n := w.EnsureArea(center, radius)
		info.genNS += int64(time.Since(t0))
		info.genChunks += n
	}
	// The spawn view area, which the first Connect would otherwise generate
	// inside its own call.
	timedEnsure(world.Pos{X: 8, Y: 0, Z: 8}, s.Config().Net.ViewDistance)

	var spec workload.Spec
	switch wl {
	case "tnt":
		spec = workload.TNT.DefaultSpec()
		spec.IgniteAfterTicks = 20
	case "lag":
		spec = workload.Lag.DefaultSpec()
	case "players":
		spec = workload.Players.DefaultSpec()
		timedEnsure(world.Pos{X: 320, Y: 0, Z: 320}, sz.area)
	}
	spec.Scale = sz.scale
	if err := workload.Install(s, spec); err != nil {
		return nil, spec, err
	}

	players := make([]*server.Player, sz.players)
	for i := range players {
		t0 := time.Now()
		players[i] = s.Connect(fmt.Sprintf("bot-%03d", i))
		info.connectNS = append(info.connectNS, int64(time.Since(t0)))
	}
	if wl == "players" {
		// A 15-column grid, 21 blocks apart, and items on a 7-block grid
		// across the whole map: most entities sit outside every player's
		// activation range, as natural spawning leaves them.
		for i, p := range players {
			px, pz := float64(160+(i%15)*21), float64(160+(i/15)*21)
			p.Pos = entity.Vec3{X: px, Y: float64(w.HighestSolidY(int(px), int(pz)) + 1), Z: pz}
		}
		ents := s.EntityWorld()
		for i := 0; i < sz.items; i++ {
			x, z := 4+(i%90)*7, 4+(i/90)*7
			ents.SpawnItem(world.Pos{X: x, Y: w.HighestSolidY(x, z) + 1, Z: z}, world.Gravel)
		}
	}
	return players, spec, nil
}

// buildInproc builds and warms one episode. traced adds the twin server B;
// the players workload's autosave store goes under tmp.
func buildInproc(wl string, sz size, seed int64, workers int, traced bool, tmp string) (_ rig, info setupInfo, err error) {
	t0 := time.Now()
	r := &inprocRig{wl: wl, sz: sz, start: t0}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	var store *persist.Store
	if wl == "players" {
		if r.dir, err = os.MkdirTemp(tmp, "mlg-bench-autosave-"); err != nil {
			return nil, info, err
		}
		if store, err = persist.NewStore(r.dir); err != nil {
			return nil, info, err
		}
	}
	r.s, r.clock = newInprocServer(wl, workers, store)
	players, spec, err := populate(r.s, wl, sz, &info)
	if err != nil {
		return nil, info, err
	}
	r.players = players
	if traced {
		var twinInfo setupInfo
		r.twin, _ = newInprocServer(wl, workers, nil)
		if _, _, err = populate(r.twin, wl, sz, &twinInfo); err != nil {
			return nil, info, err
		}
	}

	rng := rand.New(rand.NewSource(seed))
	r.walkers = make([]*bot.Bot, len(players))
	r.phase = make([]int, len(players))
	for i, p := range players {
		r.phase[i] = rng.Intn(sz.probeEvery)
		if wl == "players" {
			r.walkers[i] = bot.New(bot.Config{
				Name: p.Name, Behavior: bot.RandomWalk,
				AreaOriginX: p.Pos.X - 16, AreaOriginZ: p.Pos.Z - 16, AreaSide: 32,
				BaseY: p.Pos.Y, Seed: seed + int64(i)*7919,
			})
		}
	}
	rounds := sz.ticks + sz.warm
	r.sentNS = make([]int64, 0, (rounds/sz.probeEvery+1)*len(players))
	r.sentBy = make([]int, 0, cap(r.sentNS))
	r.pos = make([]entity.Vec3, 0, len(players))

	scratch := newEpisodeData(0, len(players), 0)
	if wl == "lag" {
		// The freshly placed machine floods the update queue past the
		// per-tick cap; steady state starts once that backlog is gone.
		const limit = 5000
		n := 0
		for ; idleRound(r, scratch).Backlog > 0; n++ {
			if n == limit {
				return nil, info, fmt.Errorf("lag: update backlog still not clear after %d warm ticks", limit)
			}
		}
	}
	for i := 0; i < sz.warm; i++ {
		idleRound(r, scratch)
	}
	workload.Arm(r.s, spec)
	if r.twin != nil {
		workload.Arm(r.twin, spec)
	}
	info.wallNS = int64(time.Since(t0))
	return r, info, nil
}

func (r *inprocRig) input(ep *episodeData, _ *tracer, _ int) {
	now := r.clock.Now()
	for i, p := range r.players {
		if b := r.walkers[i]; b != nil {
			for _, pkt := range b.Actions(now) {
				r.s.Enqueue(p.ID, pkt, now)
				ep.pktsIn++
			}
		}
		if (r.round+r.phase[i])%r.sz.probeEvery == 0 {
			id := int64(len(r.sentNS))
			r.sentNS = append(r.sentNS, int64(time.Since(r.start)))
			r.sentBy = append(r.sentBy, i)
			r.s.Enqueue(p.ID, &protocol.Chat{Sender: p.Name, Text: "probe", SentUnixNano: id}, now)
			ep.pktsIn++
			ep.probes++
		}
	}
	r.round++
}

func (r *inprocRig) tick(ep *episodeData, tr *tracer, root int) server.TickRecord {
	var rec server.TickRecord
	layer(tr, "server.Tick", root, func() {
		t0 := time.Now()
		rec = r.s.Tick()
		ep.tickNS = append(ep.tickNS, int64(time.Since(t0)))
	})
	if r.s.Snapshotter() != nil && rec.Tick%autosaveEvery == 0 {
		ep.snapshots++
	}
	if r.twin == nil {
		return rec
	}

	// B: the body of Server.Tick between the inbox and dissemination, with
	// the positions A's inbox just produced.
	r.pos = r.pos[:0]
	for _, p := range r.players {
		r.pos = append(r.pos, p.Pos)
	}
	eng, ents := r.twin.Engine(), r.twin.EntityWorld()
	var cs sim.Counters
	var ce entity.Counters
	layer(tr, "sim.Tick", root, func() { cs = eng.Tick() })
	layer(tr, "entity.Tick", root, func() { ce = ents.Tick(r.pos) })
	if centers := ents.DrainExplosions(); len(centers) > 0 {
		layer(tr, "sim.MergedExplosions", root, func() {
			_, delta := eng.MergedExplosions(centers, sim.ExplosionRadius)
			cs = cs.Add(delta)
		})
		layer(tr, "entity.ApplyExplosionImpulses", root, func() {
			ents.ApplyExplosionImpulses(centers, sim.ExplosionRadius)
		})
	}
	layer(tr, "entity.DrainChunkUpdates", root, func() { ents.DrainChunkUpdates() })
	if cs != rec.Sim || ce != rec.Ent {
		ep.diverged = true
	}
	return rec
}

func (r *inprocRig) output(ep *episodeData, _ *tracer, _ int) {
	echoes := r.s.DrainChatEchoes()
	now := int64(time.Since(r.start))
	for _, e := range echoes {
		if id := e.SentUnixNano; id >= 0 && id < int64(len(r.sentNS)) && r.sentNS[id] >= 0 {
			ep.rttNS[r.sentBy[id]] = append(ep.rttNS[r.sentBy[id]], now-r.sentNS[id])
			r.sentNS[id] = -1
		}
	}
}

func (r *inprocRig) begin() {}

// settle has nothing in flight to wait for: an in-process echo is readable
// when the tick that handled the probe returns, so a probe without one is
// lost. It also compares the twin's end state with A's.
func (r *inprocRig) settle(ep *episodeData) {
	ep.lost += ep.probes - ep.echoed()
	if r.twin != nil && r.twin.EntityWorld().StateSum() != r.s.EntityWorld().StateSum() {
		ep.diverged = true
	}
}

func (r *inprocRig) totals() totals {
	t := totals{
		net:         r.s.NetTotals(),
		simFallback: r.s.Engine().ParallelStats().FallbackTicks,
		entRetick:   r.s.EntityWorld().ParallelStats().FallbackTicks,
	}
	if sn := r.s.Snapshotter(); sn != nil {
		_, t.snapSkipped = sn.Stats()
		if sn.Err() != nil {
			t.snapErr = 1
		}
	}
	return t
}

func (r *inprocRig) state() (uint64, []world.ChunkState) {
	return r.s.EntityWorld().StateSum(), r.s.World().ChunkStates()
}

func (r *inprocRig) close() {
	if r.s != nil {
		if sn := r.s.Snapshotter(); sn != nil {
			sn.Close()
		}
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
