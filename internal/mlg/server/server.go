package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/sim"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// TickBudget is the intended tick period: 50 ms, 20 Hz (§2.1).
const TickBudget = 50 * time.Millisecond

// NetConfig groups the client-facing networking knobs: interest radius,
// keep-alive cadence, and the peer-fault bounds of the async outbound path.
type NetConfig struct {
	// ViewDistance is the radius, in chunks, loaded and streamed around each
	// player.
	ViewDistance int
	// ClientTimeout, when > 0, crashes the server if a single tick starves
	// client connections longer than this (the Lag-on-AWS failure mode,
	// §5.3). It is normally taken from the environment profile.
	ClientTimeout time.Duration
	// KeepAliveEvery is the keep-alive broadcast period (default 5 s).
	KeepAliveEvery time.Duration
	// WriteTimeout bounds each outbound socket write on a real connection's
	// async writer; a peer that keeps a write stalled past it is
	// disconnected on the next tick with its queued frames reclaimed. Zero
	// disables the deadline (DefaultNetConfig: 5 s).
	WriteTimeout time.Duration
	// WriteQueueBatches and WriteQueueBytes bound a real connection's
	// outbound writer queue (per-tick batches / total queued bytes). When
	// the peer falls behind both bounds, the tick's batch is dropped and
	// the player falls back to a keyframe. Zero picks the protocol-layer
	// defaults (64 batches / 1 MiB).
	WriteQueueBatches int
	WriteQueueBytes   int
	// ReadIdleTimeout disconnects a real connection that sends nothing at
	// all for this long — a silent peer otherwise leaks its read goroutine
	// and player session forever. Zero disables (DefaultNetConfig: 90 s;
	// bots answer keep-alives, so live clients always have traffic).
	ReadIdleTimeout time.Duration
	// SocketWriteBuffer, when > 0, shrinks accepted TCP connections' kernel
	// send buffers (SO_SNDBUF) so a stalled reader exerts backpressure
	// after kilobytes instead of megabytes. Load tests use it to provoke
	// the overflow→keyframe→disconnect ladder quickly; production leaves 0.
	SocketWriteBuffer int
}

// DefaultNetConfig returns the production networking defaults.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		ViewDistance:    5,
		KeepAliveEvery:  5 * time.Second,
		WriteTimeout:    5 * time.Second,
		ReadIdleTimeout: 90 * time.Second,
	}
}

// SimConfig groups the simulation knobs: seeding, parallelism, and the
// virtual-time cost model.
type SimConfig struct {
	// Seed seeds the simulation RNGs.
	Seed int64
	// Workers is the parallelism of the terrain drain
	// (sim.Config.SimWorkers): 0 means GOMAXPROCS, 1 forces the serial drain
	// (the differential-testing baseline). Simulation output is worker-count
	// independent — any value produces identical results. The entity tick is
	// always serial.
	Workers int
	// Costs is the operation cost model used for virtual-time accounting.
	Costs CostModel
}

// DefaultSimConfig returns the default simulation configuration.
func DefaultSimConfig() SimConfig {
	return SimConfig{Seed: 1, Costs: DefaultCosts()}
}

// PersistConfig wires crash-safe persistence into the server. With a
// non-nil Store the server owns a Snapshotter (reachable via
// Server.Snapshotter()) and calls MaybeSnapshot at the tail of every Tick,
// so all tick drivers — Run, the benchmark runners, the scenario harness —
// get the same cadence without registering anything.
type PersistConfig struct {
	// Store receives the snapshots; nil disables persistence entirely.
	Store *persist.Store
	// Every is the snapshot cadence in ticks (<= 0 disables the periodic
	// snapshots; Server.Snapshotter().Snapshot() still works).
	Every int
	// FullEvery makes every Nth snapshot full, the rest incremental
	// (<= 1: every snapshot is full).
	FullEvery int
	// Sync writes snapshots on the tick goroutine instead of the
	// background writer — deterministic tests and final-flush paths.
	Sync bool
}

// ShardConfig places this server inside a sharded world deployment: a
// cluster of servers each owning a static range of chunk columns (see
// internal/shard). The zero value means unsharded — the server owns the
// whole world.
type ShardConfig struct {
	// Count is the total number of shards in the cluster (0 or 1 =
	// unsharded).
	Count int
	// Index is this server's shard index in [0, Count).
	Index int
	// Owns reports whether a chunk column belongs to this shard. When
	// non-nil the terrain engine mutates only owned chunks (unowned state
	// arrives as halo mirrors from the owning shard) and natural entity
	// spawning is disabled (spawn decisions would otherwise depend on
	// store-local RNG state, breaking shard-layout determinism).
	Owns func(world.ChunkPos) bool
}

// Sharded reports whether the config describes a shard of a larger world.
func (c ShardConfig) Sharded() bool { return c.Owns != nil }

// Hooks are the server's observation points, set at construction. They
// run on the tick goroutine.
type Hooks struct {
	// AfterTick runs after every completed Tick, between ticks — where
	// periodic work that must see a quiescent server belongs.
	AfterTick func(rec TickRecord)
	// EntityDelivery observes every virtual entity state-update delivery
	// decision: called once per (chunk update, interested player) pair the
	// dissemination phase fans out, with the receiving player and the
	// chunk the update batch belongs to. The scenario harness uses it to
	// check interest-set correctness independently of the fan-out code.
	EntityDelivery func(playerID int64, chunk world.ChunkPos)
}

// Config configures a game server instance.
type Config struct {
	// Flavor selects the system under test (Vanilla, Forge, Paper).
	Flavor Flavor
	// Net holds the client-facing networking knobs.
	Net NetConfig
	// Sim holds the simulation knobs.
	Sim SimConfig
	// Persist wires crash-safe persistence (zero value: disabled).
	Persist PersistConfig
	// Shard places the server in a sharded deployment (zero value:
	// unsharded).
	Shard ShardConfig
	// Hooks are the construction-time observation points.
	Hooks Hooks
}

// DefaultConfig returns a server configuration for the given flavor.
func DefaultConfig(f Flavor) Config {
	return Config{
		Flavor: f,
		Net:    DefaultNetConfig(),
		Sim:    DefaultSimConfig(),
	}
}

// Player is one connected player session.
type Player struct {
	ID   int64
	Name string
	Pos  entity.Vec3
	// conn is non-nil for real TCP sessions; virtual players (driven
	// in-process by the benchmark runner) have none.
	conn *protocol.Conn
	// sendQueue counts chunks owed to this player from its join burst.
	pendingChunks []world.ChunkPos
	// lastSent maps entity ID → the last position streamed to this real
	// connection, quantized to 1/32 block. Its key set is the tracked set:
	// entities leaving the player's interest area get a destroy packet
	// instead of freezing at their last in-view position, and in-view
	// entities stream compact EntityMoveRel deltas against these positions
	// (stationary entities send nothing; overflowing deltas fall back to a
	// full EntityMove).
	lastSent map[int64]qpos
	// seen and gone are per-tick scratch reused across ticks by sendReal.
	seen map[int64]struct{}
	gone []int64
	// needKeyframe is set when this player's outbound batch was dropped on
	// writer-queue overflow: the client missed that tick's deltas, so the
	// next batch that fits re-baselines every in-view entity with full
	// EntityMove packets (lastSent is cleared) instead of streaming deltas
	// against positions the client never saw. Tick goroutine only.
	needKeyframe bool
}

// qpos is an entity position quantized to 1/32 block, the EntityMoveRel
// delta unit.
type qpos struct{ x, y, z int32 }

// inbound is one queued client message (the paper's incoming networking
// queue, Figure 4 component 1).
type inbound struct {
	playerID int64
	pkt      protocol.Packet
	arrival  time.Time
}

// ChatEcho records the server-side completion of one chat round trip: the
// probe message became visible to its sender's output queue at ReadyAt. The
// benchmark runner adds downlink latency to compute response time.
type ChatEcho struct {
	PlayerID     int64
	SentUnixNano int64
	ReadyAt      time.Time
}

// TickRecord describes one completed game tick.
type TickRecord struct {
	Tick  int64
	Start time.Time
	// Dur is the tick's busy (compute) duration; the effective tick period
	// is max(Dur+WaitBefore, TickBudget).
	Dur        time.Duration
	WaitBefore time.Duration
	WaitAfter  time.Duration
	Work       env.Work
	Players    int
	Entities   int
	Backlog    int
	Crashed    bool
	// Sim is the tick's raw terrain-simulation counters (including any
	// explosion work routed back after the entity phase) — the quantity the
	// serial-vs-parallel equivalence matrix compares tick by tick.
	Sim sim.Counters
	// Ent is the tick's raw entity-phase counters, compared tick by tick by
	// the same matrix.
	Ent entity.Counters
	// SimRegions and SimParallel attribute the tick's terrain-drain
	// schedule: how many independent regions the update queues partitioned
	// into, and whether the drains actually ran on the worker pool (false =
	// serial path or rolled-back parallel attempt).
	SimRegions  int
	SimParallel bool
	// EntRegions and EntParallel are always 0 since the entity tick is
	// serial; read only by benchmark/.
	EntRegions  int
	EntParallel bool
	// NetDrops, NetKeyframes and NetQueuedBytes instrument the async
	// outbound path this tick: batches dropped on writer-queue overflow,
	// keyframe fallbacks delivered after drops, and the total bytes still
	// queued across all connection writers when dissemination finished.
	// Always zero for virtual-only servers.
	NetDrops       int
	NetKeyframes   int
	NetQueuedBytes int
}

// OutboundStats aggregates the peer-fault counters of the async outbound
// path over the server's lifetime.
type OutboundStats struct {
	// DroppedBatches counts per-player tick batches dropped because the
	// connection's bounded writer queue was full (chunk-burst batches that
	// stayed owed included).
	DroppedBatches int64
	// Keyframes counts keyframe fallbacks: after a drop, the next batch
	// that fit re-baselined the client with full EntityMove packets.
	Keyframes int64
	// WriteDisconnects counts players reaped because their connection's
	// writer faulted (write error or a peer stalled past WriteTimeout).
	WriteDisconnects int64
	// IdleDisconnects counts players reaped by the read idle timeout.
	IdleDisconnects int64
}

// NetTotals aggregates outbound traffic for Table 8.
type NetTotals struct {
	Msgs, Bytes             int64
	EntityMsgs, EntityBytes int64
}

// Fig11Totals accumulates busy time per operation category plus waits, the
// data behind the paper's tick-distribution plot.
type Fig11Totals struct {
	PlayerUS         float64
	BlockUpdateUS    float64
	BlockAddRemoveUS float64
	EntityUS         float64
	OtherUS          float64
	WaitBeforeUS     float64
	WaitAfterUS      float64
}

// Add folds one tick into the totals. Category microseconds are scaled to
// the realized busy duration so shares are consistent with the recorded
// tick times.
func (f *Fig11Totals) Add(rec TickRecord) {
	if total := rec.Work.TotalUS(); total > 0 {
		scale := float64(rec.Dur) / float64(time.Microsecond) / total
		f.PlayerUS += rec.Work.PlayerUS * scale
		f.BlockUpdateUS += rec.Work.BlockUpdateUS * scale
		f.BlockAddRemoveUS += rec.Work.BlockAddRemoveUS * scale
		f.EntityUS += rec.Work.EntityUS * scale
		f.OtherUS += rec.Work.OtherUS() * scale
	}
	f.WaitBeforeUS += float64(rec.WaitBefore) / float64(time.Microsecond)
	f.WaitAfterUS += float64(rec.WaitAfter) / float64(time.Microsecond)
}

// Server is one MLG instance.
type Server struct {
	cfg     Config
	w       *world.World
	engine  *sim.Engine
	ents    *entity.World
	clock   env.Clock
	machine *env.Machine

	mu       sync.Mutex
	inbox    []inbound
	inboxDue []inbound // processInbox's due-partition scratch, reused per tick
	players  map[int64]*Player
	order    []int64 // deterministic player iteration order
	nextPID  int64

	// sendScratch holds sendReal's per-tick buffers, reused across ticks.
	sendScratch sendBuffers

	// deliverHook, when non-nil, observes per-player entity-update delivery
	// decisions (Hooks.EntityDelivery). Tick goroutine only.
	deliverHook func(playerID int64, chunk world.ChunkPos)

	// afterTick, when non-nil, runs on the tick goroutine at the tail of
	// every Tick (Hooks.AfterTick).
	afterTick func(rec TickRecord)

	// snap is the server-owned snapshotter, created when Config.Persist
	// names a store; MaybeSnapshot runs at every Tick's tail, after the
	// after-tick hook's cadence point. Nil when persistence is off.
	snap *Snapshotter

	// blockChanges collects this tick's terrain state updates for
	// dissemination. The count (blockChangeCount) is always maintained for
	// the accounting path; the materialized packets are buffered only while
	// at least one real TCP connection exists (realConns) — virtual players
	// never read them, and skipping the per-block append removes the
	// dominant buffering overhead of TNT crater ticks on virtual-only runs.
	blockChanges     []protocol.BlockChange
	blockChangeCount int
	// realConns counts socket-backed sessions. It is read by the world's
	// change listener (tick goroutine, under the world lock) and written by
	// connect/remove (any goroutine), hence atomic.
	realConns atomic.Int32

	tick        int64
	chatEchoes  []ChatEcho
	pendingChat []ChatEcho // sync-path chats awaiting tick completion
	crashed     bool
	crashReason string

	net      NetTotals
	out      OutboundStats // async outbound peer-fault counters (under mu)
	lastGen  int           // world chunks generated at last tick
	sizes    frameSizes
	stopOnce sync.Once
	stopped  chan struct{}
}

// frameSizes caches wire frame sizes of the fixed-layout update packets.
type frameSizes struct {
	blockChange   int
	entityMove    int
	entityMoveRel int
	spawn         int
	destroy       int
	chat          int
	keepAlive     int
	timeUpdate    int
	chunkData     int // typical chunk payload
	worldStream   int // background terrain/light refresh payload
}

func measuredSizes() frameSizes {
	size := func(p protocol.Packet) int {
		body := p.MarshalBody(nil)
		n := len(body) + protocol.VarintLen(int32(p.ID()))
		return protocol.VarintLen(int32(n)) + n
	}
	return frameSizes{
		blockChange:   size(&protocol.BlockChange{X: 100, Y: 30, Z: 100}),
		entityMove:    size(&protocol.EntityMove{EntityID: 1 << 13, X: 1, Y: 1, Z: 1}),
		entityMoveRel: size(&protocol.EntityMoveRel{EntityID: 1 << 13, DX: 1, DY: 1, DZ: 1}),
		spawn:         size(&protocol.SpawnEntity{EntityID: 1 << 13, X: 1, Y: 1, Z: 1}),
		destroy:       size(&protocol.DestroyEntity{EntityID: 1 << 13}),
		chat:          size(&protocol.Chat{Sender: "player-00", Text: "probe-000000", SentUnixNano: 1 << 40}),
		keepAlive:     size(&protocol.KeepAlive{Nonce: 1 << 40}),
		timeUpdate:    size(&protocol.TimeUpdate{Tick: 1 << 30}),
		chunkData:     2600, // typical RLE chunk payload
		worldStream:   1500, // per-tick terrain/light refresh blob
	}
}

// New creates a server over the world, running under the given environment
// machine and clock. machine may be nil, in which case tick durations are
// measured wall-clock time (real deployments); clock must not be nil.
func New(w *world.World, cfg Config, machine *env.Machine, clock env.Clock) *Server {
	if cfg.Net.ViewDistance <= 0 {
		cfg.Net.ViewDistance = 5
	}
	if cfg.Net.KeepAliveEvery <= 0 {
		cfg.Net.KeepAliveEvery = 5 * time.Second
	}
	if cfg.Sim.Costs == (CostModel{}) {
		cfg.Sim.Costs = DefaultCosts()
	}
	s := &Server{
		cfg:         cfg,
		w:           w,
		clock:       clock,
		machine:     machine,
		players:     make(map[int64]*Player),
		sizes:       measuredSizes(),
		stopped:     make(chan struct{}),
		afterTick:   cfg.Hooks.AfterTick,
		deliverHook: cfg.Hooks.EntityDelivery,
	}
	entCfg := cfg.Flavor.EntityConfig()
	simCfg := cfg.Flavor.SimConfig()
	simCfg.SimWorkers = cfg.Sim.Workers
	if cfg.Shard.Sharded() {
		// A shard simulates only its owned chunk columns; unowned terrain
		// arrives as halo mirrors from the owning shard. Natural spawning
		// draws from store-local RNG state, which would differ per shard
		// layout, so it is off — shard workloads place entities explicitly.
		simCfg.Owns = cfg.Shard.Owns
		entCfg.NaturalSpawning = false
	}
	s.ents = entity.NewWorld(w, entCfg, cfg.Sim.Seed+1)
	s.engine = sim.New(w, s.ents, simCfg, cfg.Sim.Seed+2)
	if cfg.Persist.Store != nil {
		s.snap = NewSnapshotter(s, cfg.Persist.Store, SnapshotterConfig{
			Every:     cfg.Persist.Every,
			FullEvery: cfg.Persist.FullEvery,
			Sync:      cfg.Persist.Sync,
		})
	}
	// A real conn that appears mid-tick (realConns flips to >0 after some
	// changes were already elided) receives only the rest of that tick's
	// BlockChange packets. That loses nothing: a joining player's world
	// state comes from its chunk-send burst, and chunk payloads are
	// serialized at dissemination time — after this tick's mutations — so
	// the elided packets would have been strictly redundant for it.
	w.OnChange(func(p world.Pos, old, new world.Block) {
		if s.blockChangeCount >= 20000 {
			// Overflow: count resets, burst capped (this change is dropped).
			s.blockChangeCount = 0
			s.blockChanges = s.blockChanges[:0]
			return
		}
		s.blockChangeCount++
		if s.realConns.Load() > 0 {
			s.blockChanges = append(s.blockChanges, protocol.BlockChange{
				X: int32(p.X), Y: int32(p.Y), Z: int32(p.Z),
				BlockID: uint8(new.ID), Meta: new.Meta,
			})
		}
	})
	gen, _, _ := w.Stats()
	s.lastGen = gen
	return s
}

// World returns the server's terrain world.
func (s *Server) World() *world.World { return s.w }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// Snapshotter returns the server-owned snapshotter, or nil when the config
// named no persistence store.
func (s *Server) Snapshotter() *Snapshotter { return s.snap }

// Engine returns the terrain-simulation engine (for workload installers).
func (s *Server) Engine() *sim.Engine { return s.engine }

// EntityWorld returns the entity store.
func (s *Server) EntityWorld() *entity.World { return s.ents }

// Flavor returns the server's flavor.
func (s *Server) Flavor() Flavor { return s.cfg.Flavor }

// Connect adds a player at the world spawn and returns the session. The
// join triggers the chunk-load and chunk-send burst responsible for the
// post-connect response-time outliers of MF1.
func (s *Server) Connect(name string) *Player {
	return s.connect(name, nil)
}

func (s *Server) connect(name string, conn *protocol.Conn) *Player {
	// World-generation work (spawn probe, view-area load) runs before the
	// server mutex is taken: a join burst must not stall Enqueue or stats
	// readers on s.mu while terrain generates behind the world's own lock.
	spawnY := s.w.HighestSolidY(8, 8) + 1
	p := &Player{
		Name: name,
		Pos:  entity.Vec3{X: 8.5, Y: float64(spawnY), Z: 8.5},
		conn: conn,
	}
	// Load the view area (lazy generation work) and owe the player its
	// chunks (serialization + send burst on the next tick).
	vd := s.cfg.Net.ViewDistance
	s.w.EnsureArea(p.Pos.BlockPos(), vd)
	cc := world.ChunkPosAt(p.Pos.BlockPos())
	side := 2*vd + 1
	p.pendingChunks = make([]world.ChunkPos, 0, side*side)
	for dz := -vd; dz <= vd; dz++ {
		for dx := -vd; dx <= vd; dx++ {
			p.pendingChunks = append(p.pendingChunks,
				world.ChunkPos{X: cc.X + int32(dx), Z: cc.Z + int32(dz)})
		}
	}

	s.mu.Lock()
	s.nextPID++
	p.ID = s.nextPID
	s.players[p.ID] = p
	s.order = append(s.order, p.ID)
	if conn != nil {
		s.realConns.Add(1)
	}
	s.mu.Unlock()
	return p
}

// Disconnect removes a player session.
func (s *Server) Disconnect(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
}

func (s *Server) removeLocked(id int64) {
	if p, ok := s.players[id]; ok {
		if p.conn != nil {
			p.conn.Close()
			s.realConns.Add(-1)
		}
		delete(s.players, id)
		for i, pid := range s.order {
			if pid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// PlayerCount returns the number of connected players.
func (s *Server) PlayerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.players)
}

// PlayerByID returns a player session.
func (s *Server) PlayerByID(id int64) *Player {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.players[id]
}

// Enqueue queues a client packet into the incoming networking queue with
// the given arrival time (benchmark runners add uplink latency themselves).
func (s *Server) Enqueue(playerID int64, pkt protocol.Packet, arrival time.Time) {
	s.mu.Lock()
	s.inbox = append(s.inbox, inbound{playerID: playerID, pkt: pkt, arrival: arrival})
	s.mu.Unlock()
}

// Crashed reports whether the server stopped due to a fault, with the
// reason.
func (s *Server) Crashed() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed, s.crashReason
}

// DrainChatEchoes returns and clears completed chat round trips.
func (s *Server) DrainChatEchoes() []ChatEcho {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.chatEchoes
	s.chatEchoes = nil
	return out
}

// NetTotals returns cumulative outbound traffic counters.
func (s *Server) NetTotals() NetTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// Outbound returns the cumulative peer-fault counters of the async
// outbound path (drops, keyframe fallbacks, write/idle disconnects).
func (s *Server) Outbound() OutboundStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out
}

// noteIdleDisconnect records a read-idle-timeout reap; called from the
// connection's read goroutine.
func (s *Server) noteIdleDisconnect() {
	s.mu.Lock()
	s.out.IdleDisconnects++
	s.mu.Unlock()
}

// TickNumber returns the number of completed ticks.
func (s *Server) TickNumber() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tick
}

// Tick runs one full game-loop iteration: drain input queue, player
// handler, terrain simulation, entities, explosion routing, dissemination,
// accounting, and the wait for the next scheduled tick start. It returns
// the tick's record, which Hooks.AfterTick also sees; the server keeps no
// history of them, so a driver that needs a trace folds the records itself.
func (s *Server) Tick() TickRecord {
	start := s.clock.Now()
	// The increment is fenced by s.mu: concurrent TickNumber readers take
	// the mutex, and an unfenced write here is a data race with them. Later
	// reads of s.tick in this method stay unfenced — only this goroutine
	// writes it.
	s.mu.Lock()
	s.tick++
	s.mu.Unlock()
	var counts tickCounts
	var wallStart time.Time
	if s.machine == nil {
		wallStart = time.Now()
	}

	// Phase 1: player handler (Figure 4, component 4).
	s.processInbox(&counts, start)

	// Phase 2: terrain simulation (component 5).
	counts.sim = s.engine.Tick()

	// Phase 3: entities (component 6).
	positions := s.playerPositions()
	counts.ent = s.ents.Tick(positions)

	// Phase 3b: route TNT detonations back into the terrain engine and
	// apply blast impulses to nearby entities, center by center in batch
	// order. Their collision counts accumulate into the store's counters and
	// are attributed to the next tick.
	if centers := s.ents.DrainExplosions(); len(centers) > 0 {
		_, delta := s.engine.MergedExplosions(centers, sim.ExplosionRadius)
		counts.sim = counts.sim.Add(delta)
		s.ents.ApplyExplosionImpulses(centers, sim.ExplosionRadius)
	}

	// Phase 4: dissemination through the outgoing networking queues.
	s.disseminate(&counts)

	// Upkeep accounting.
	gen, _, _ := s.w.Stats()
	counts.chunksGenerated = gen - s.lastGen
	s.lastGen = gen
	counts.chunksLoaded = s.w.ChunkCount()

	// Convert work to tick duration.
	work := s.cfg.Sim.Costs.Work(counts, s.cfg.Flavor)
	var dur time.Duration
	if s.machine != nil {
		dur = s.machine.TickComputeTime(work)
	} else {
		dur = time.Since(wallStart)
	}
	waitBefore := dur/100 + 100*time.Microsecond

	// One sleep to the next tick start: the busy time, or the whole budget
	// if the tick finished early. Measured from start on the server's
	// clock, so a wall clock does not sleep the work it already spent.
	period := max(waitBefore+dur, TickBudget)
	waitAfter := period - (waitBefore + dur)
	s.clock.Sleep(start.Add(period).Sub(s.clock.Now()))

	// Chat round trips processed on the tick path become visible when the
	// tick's output flush happens.
	readyAt := start.Add(waitBefore + dur)

	s.mu.Lock()
	for i := range s.pendingChat {
		s.pendingChat[i].ReadyAt = readyAt
	}
	s.chatEchoes = append(s.chatEchoes, s.pendingChat...)
	s.pendingChat = nil

	// Client starvation: a tick longer than the client timeout drops every
	// connection; the MLG cannot recover and stops (Lag-on-AWS, §5.3).
	crashed := false
	if s.cfg.Net.ClientTimeout > 0 && waitBefore+dur > s.cfg.Net.ClientTimeout && len(s.players) > 0 {
		s.crashed = true
		s.crashReason = fmt.Sprintf("tick %d lasted %v > client timeout %v: all player connections timed out",
			s.tick, waitBefore+dur, s.cfg.Net.ClientTimeout)
		crashed = true
		for _, pid := range append([]int64(nil), s.order...) {
			s.removeLocked(pid)
		}
	}

	ps := s.engine.ParallelStats()
	rec := TickRecord{
		Tick:        s.tick,
		Start:       start,
		Dur:         dur,
		WaitBefore:  waitBefore,
		WaitAfter:   waitAfter,
		Work:        work,
		Players:     len(s.players),
		Entities:    s.ents.Count(),
		Backlog:     counts.sim.Backlog,
		Crashed:     crashed,
		Sim:         counts.sim,
		Ent:         counts.ent,
		SimRegions:  ps.LastRegions,
		SimParallel: ps.LastParallel,

		NetDrops:       counts.netDrops,
		NetKeyframes:   counts.netKeyframes,
		NetQueuedBytes: counts.netQueuedBytes,
	}
	s.mu.Unlock()

	// Tick tail: the after-tick hook and the snapshot cadence point run here
	// — between ticks from every driver's perspective (Run, the benchmark
	// runners, and the scenario harness all call Tick in a loop), so
	// periodic work needing a quiescent server no longer depends on which
	// loop drives the server.
	if s.afterTick != nil {
		s.afterTick(rec)
	}
	if s.snap != nil {
		s.snap.MaybeSnapshot(rec.Tick)
	}
	return rec
}

// chunkWithinView reports whether chunk c lies inside the square view area
// of radius vd (in chunks) around a player standing in chunk pc — the
// interest predicate shared by dissemination accounting and real sends.
func chunkWithinView(c, pc world.ChunkPos, vd int32) bool {
	dx, dz := c.X-pc.X, c.Z-pc.Z
	if dx < 0 {
		dx = -dx
	}
	if dz < 0 {
		dz = -dz
	}
	return dx <= vd && dz <= vd
}

// playerPositions snapshots player positions for the entity phase.
func (s *Server) playerPositions() []entity.Vec3 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]entity.Vec3, 0, len(s.order))
	for _, pid := range s.order {
		out = append(out, s.players[pid].Pos)
	}
	return out
}

// processInbox drains the incoming queue entries that arrived before the
// tick start and applies them via the player handler. The inbox is
// partitioned stably and allocation-free: not-yet-due entries compact in
// place into the inbox's own backing array (the write cursor never passes
// the read cursor), due entries land in a scratch slice reused across
// ticks.
func (s *Server) processInbox(counts *tickCounts, tickStart time.Time) {
	s.mu.Lock()
	due := s.inboxDue[:0]
	later := s.inbox[:0]
	for _, in := range s.inbox {
		if in.arrival.After(tickStart) {
			later = append(later, in)
		} else {
			due = append(due, in)
		}
	}
	s.inbox = later
	s.inboxDue = due
	s.mu.Unlock()

	for _, in := range due {
		s.handlePacket(in, counts)
	}
}

// handlePacket applies one client message.
func (s *Server) handlePacket(in inbound, counts *tickCounts) {
	s.mu.Lock()
	p := s.players[in.playerID]
	s.mu.Unlock()
	if p == nil {
		return
	}
	switch pkt := in.pkt.(type) {
	case *protocol.PlayerMove:
		counts.playerMoves++
		target := entity.Vec3{X: pkt.X, Y: pkt.Y, Z: pkt.Z}
		// Validate against terrain: reject moves into solid blocks.
		bp := target.BlockPos()
		feet, _ := s.w.BlockIfLoaded(bp)
		head, _ := s.w.BlockIfLoaded(bp.Up())
		if !feet.IsSolid() && !head.IsSolid() {
			p.Pos = target
		}
	case *protocol.PlayerAction:
		counts.playerActions++
		pos := world.Pos{X: int(pkt.X), Y: int(pkt.Y), Z: int(pkt.Z)}
		switch pkt.Action {
		case protocol.ActionDig:
			s.w.SetBlock(pos, world.B(world.Air))
		case protocol.ActionPlace:
			s.w.SetBlock(pos, world.B(world.BlockID(pkt.BlockID)))
		}
	case *protocol.Chat:
		// Socket-backed players receive the chat fan-out immediately after
		// handling (the virtual path accounts it without materializing), so
		// only virtual players get a ChatEcho: nobody drains a socket
		// player's.
		defer s.BroadcastChat(pkt)
		if !s.cfg.Flavor.AsyncChat {
			counts.chats++
		}
		if p.conn != nil {
			break
		}
		echo := ChatEcho{PlayerID: in.playerID, SentUnixNano: pkt.SentUnixNano}
		s.mu.Lock()
		if s.cfg.Flavor.AsyncChat {
			// Paper: chat never touches the game tick; the echo is ready a
			// fixed async-processing delay after arrival.
			echo.ReadyAt = in.arrival.Add(time.Duration(s.cfg.Sim.Costs.AsyncChatUS) * time.Microsecond)
			s.chatEchoes = append(s.chatEchoes, echo)
		} else {
			s.pendingChat = append(s.pendingChat, echo)
		}
		s.mu.Unlock()
	case *protocol.KeepAlive:
		// Client keep-alive echo; nothing to do.
	}
}

// disseminate accounts (and, for real connections, sends) this tick's state
// updates: terrain changes, entity updates, chats, chunk-join bursts,
// keep-alives.
func (s *Server) disseminate(counts *tickCounts) {
	s.mu.Lock()
	bc := s.blockChanges
	nBC := s.blockChangeCount
	s.blockChanges = nil
	s.blockChangeCount = 0
	nPlayers := len(s.order)
	players := make([]*Player, 0, nPlayers)
	for _, pid := range s.order {
		players = append(players, s.players[pid])
	}
	s.mu.Unlock()

	addMsgs := func(n int, size int, entityRelated bool) {
		if n <= 0 {
			return
		}
		counts.msgsOut += n
		counts.bytesOut += int64(n) * int64(size)
		s.mu.Lock()
		s.net.Msgs += int64(n)
		s.net.Bytes += int64(n) * int64(size)
		if entityRelated {
			s.net.EntityMsgs += int64(n)
			s.net.EntityBytes += int64(n) * int64(size)
		}
		s.mu.Unlock()
	}

	// Terrain updates go to every player (workload areas sit inside view
	// distance in all benchmark worlds). The count is maintained even when
	// the per-block packet buffering is elided (virtual-only servers), so
	// accounting is identical either way.
	addMsgs(nBC*nPlayers, s.sizes.blockChange, false)

	// Entity updates: delta-encoded movements, spawns, removals, fanned out
	// through per-player interest sets derived from the chunk grid — a
	// chunk's updates reach only the players whose view distance covers it,
	// not every connected player.
	if updates := s.ents.DrainChunkUpdates(); len(updates) > 0 {
		playerChunks := make([]world.ChunkPos, nPlayers)
		for i, p := range players {
			playerChunks[i] = world.ChunkPosAt(p.Pos.BlockPos())
		}
		vd := int32(s.cfg.Net.ViewDistance)
		var moved, spawned, despawned int
		for _, u := range updates {
			interested := 0
			for i, pc := range playerChunks {
				if chunkWithinView(u.Pos, pc, vd) {
					interested++
					if s.deliverHook != nil {
						s.deliverHook(players[i].ID, u.Pos)
					}
				}
			}
			moved += u.Moved * interested
			spawned += u.Spawned * interested
			despawned += u.Despawned * interested
		}
		addMsgs(moved, s.sizes.entityMoveRel, true)
		addMsgs(spawned, s.sizes.spawn, true)
		addMsgs(despawned, s.sizes.destroy, true)
	}

	// Chat fan-out.
	addMsgs(counts.chats*nPlayers, s.sizes.chat, false)

	// Tick time update plus the background world stream (terrain/light
	// refreshes) every player continuously receives — few messages, many
	// bytes, the Table 8 "communication" counterweight.
	addMsgs(nPlayers, s.sizes.timeUpdate, false)
	addMsgs(nPlayers, s.sizes.worldStream, false)

	// Keep-alives.
	if s.cfg.Net.KeepAliveEvery > 0 {
		every := int64(s.cfg.Net.KeepAliveEvery / TickBudget)
		if every < 1 {
			every = 1
		}
		if s.tick%every == 0 {
			addMsgs(nPlayers, s.sizes.keepAlive, false)
		}
	}

	// Join bursts: chunk data owed to newly connected players, throttled to
	// a per-tick budget per player (real servers pace chunk streaming). On a
	// real connection the chunks only stop being owed once the batch is
	// accepted by the writer queue: a backlogged peer keeps its chunks
	// pending (owed-chunk resend next tick), a faulted peer is reaped below.
	const chunkSendBudget = 40
	var dead []int64
	for _, p := range players {
		n := len(p.pendingChunks)
		if n == 0 {
			continue
		}
		if n > chunkSendBudget {
			n = chunkSendBudget
		}
		batch := p.pendingChunks[:n]
		if p.conn != nil {
			switch err := s.sendChunkBatch(p, batch); {
			case err == nil:
			case errors.Is(err, protocol.ErrBacklog):
				counts.netDrops++
				continue // chunks stay owed; retry next tick
			default:
				dead = append(dead, p.ID)
				continue
			}
		}
		counts.chunksSent += n
		addMsgs(n, s.sizes.chunkData, false)
		p.pendingChunks = p.pendingChunks[n:]
	}

	// Real connections additionally receive materialized packets.
	dead = append(dead, s.sendReal(players, bc, counts)...)

	// Sample the queue-depth gauge and reap faulted peers. Disconnect closes
	// the connection, which reclaims every batch its writer still holds.
	reaped := make(map[int64]bool, len(dead))
	for _, p := range players {
		if p.conn != nil {
			_, qb := p.conn.WriterQueueDepth()
			counts.netQueuedBytes += qb
		}
	}
	for _, id := range dead {
		if reaped[id] {
			continue
		}
		reaped[id] = true
		s.Disconnect(id)
	}

	s.mu.Lock()
	s.out.DroppedBatches += int64(counts.netDrops)
	s.out.Keyframes += int64(counts.netKeyframes)
	s.out.WriteDisconnects += int64(len(reaped))
	s.mu.Unlock()
}
