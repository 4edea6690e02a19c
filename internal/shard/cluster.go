package shard

import (
	"fmt"
	"net"
	"slices"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
)

// Cluster drives N shard servers in lockstep inside one process: every
// shard ticks the same tick number, concurrently, then all exchange
// traffic flows, then the next tick begins. The inter-shard sessions run
// over in-process pipes but through the full packet codec and async writer
// queues, so the lockstep cluster exercises the identical wire path a
// multi-process deployment uses — it is the reference implementation the
// equivalence and failover suites pin.
type Cluster struct {
	cfg    ClusterConfig
	shards []*server.Server
	eps    []*Endpoint
	dead   []bool
	tick   int64
	err    error
	live   []int               // Tick's live shard indices, reused across ticks
	recs   []server.TickRecord // Tick's per-shard records, reused across ticks
}

// ClusterConfig assembles a cluster.
type ClusterConfig struct {
	// Map is the chunk-range shard assignment; Map.Count() shards are
	// built.
	Map Map
	// Build constructs one bare shard server with the given ownership
	// predicate wired into its ShardConfig. Called again during failover,
	// so it must not install workload state — Install does that. The
	// shards tick at the same time on different goroutines, so the servers
	// it returns must not share unsynchronized mutable state: each needs
	// its own clock, machine model, hooks and random source.
	Build func(i int, owns func(world.ChunkPos) bool) (*server.Server, error)
	// Install populates a freshly built shard with the workload. Skipped
	// on failover restores, which recover state from the snapshot instead.
	Install func(s *server.Server, i int) error
	// Stores, when non-nil, holds the per-shard snapshot stores failover
	// restores from (Stores[i] belongs to shard i). The shards themselves
	// snapshot through their own PersistConfig — Build wires that.
	Stores []*persist.Store
}

// NewCluster builds the shards, installs the workload on each, and links
// every pair with an in-process session.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Map.Count()
	c := &Cluster{
		cfg:    cfg,
		shards: make([]*server.Server, n),
		eps:    make([]*Endpoint, n),
		dead:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		s, err := cfg.Build(i, cfg.Map.Owns(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if cfg.Install != nil {
			if err := cfg.Install(s, i); err != nil {
				return nil, fmt.Errorf("shard %d install: %w", i, err)
			}
		}
		c.shards[i] = s
		c.eps[i] = NewEndpoint(s, cfg.Map, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.link(i, j)
		}
	}
	return c, nil
}

// link joins shards i and j with a fresh in-process session pair.
func (c *Cluster) link(i, j int) {
	n := c.cfg.Map.Count()
	a, b := net.Pipe()
	c.eps[i].SetSession(j, NewSession(a, i, j, n))
	c.eps[j].SetSession(i, NewSession(b, j, i, n))
}

// Shard returns shard i's server (nil while the shard is dead).
func (c *Cluster) Shard(i int) *server.Server {
	if c.dead[i] {
		return nil
	}
	return c.shards[i]
}

// Endpoint returns shard i's exchange endpoint (nil while dead), for
// drivers that run the exchange phases themselves and for tests.
func (c *Cluster) Endpoint(i int) *Endpoint {
	if c.dead[i] {
		return nil
	}
	return c.eps[i]
}

// Map returns the cluster's shard map.
func (c *Cluster) Map() Map { return c.cfg.Map }

// Err returns the first exchange error the cluster hit, if any.
func (c *Cluster) Err() error { return c.err }

// setErr records the first error.
func (c *Cluster) setErr(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Tick advances every live shard one tick in lockstep and returns the
// merged record: counters summed across shards (the quantities a
// single-server run must match), durations the per-shard maximum.
//
// The live shards tick at the same time, each Server.Tick on its own
// goroutine (world.Parallel), so a tick costs the slowest shard's tick
// rather than the sum. Then every live endpoint sends and then every one
// applies, both serially in shard order, so the exchange, the merged
// record and Err's first error do not depend on which shard finished
// first.
func (c *Cluster) Tick() server.TickRecord {
	live := c.live[:0]
	for i := range c.shards {
		if !c.dead[i] {
			live = append(live, i)
		}
	}
	c.live = live
	if len(live) == 0 {
		return server.TickRecord{}
	}
	recs := slices.Grow(c.recs[:0], len(live))[:len(live)]
	c.recs = recs
	world.Parallel(len(live), len(live), func(k int) { recs[k] = c.shards[live[k]].Tick() })
	tick := recs[0].Tick
	c.tick = tick
	for _, i := range live {
		c.setErr(c.eps[i].SendTick(tick))
	}
	for _, i := range live {
		c.setErr(c.eps[i].ApplyTick(tick))
	}
	return mergeRecords(recs)
}

func mergeRecords(recs []server.TickRecord) server.TickRecord {
	m := recs[0]
	for _, r := range recs[1:] {
		if r.Dur > m.Dur {
			m.Dur = r.Dur
		}
		if r.WaitBefore > m.WaitBefore {
			m.WaitBefore = r.WaitBefore
		}
		if r.WaitAfter > m.WaitAfter {
			m.WaitAfter = r.WaitAfter
		}
		m.Players += r.Players
		m.Entities += r.Entities
		m.Backlog += r.Backlog
		m.Crashed = m.Crashed || r.Crashed
		m.Sim = m.Sim.Add(r.Sim)
		m.Ent = m.Ent.Add(r.Ent)
		m.SimRegions += r.SimRegions
		m.SimParallel = m.SimParallel || r.SimParallel
		m.NetDrops += r.NetDrops
		m.NetKeyframes += r.NetKeyframes
		m.NetQueuedBytes += r.NetQueuedBytes
	}
	return m
}

// Connect joins a player on the shard owning their spawn position. The
// spawn point is computed by the first live shard (spawn logic is
// identical everywhere), and the connection moves to the owner when that
// is a different shard — the same probe-then-route dance the TCP gateway
// performs with LoginSuccess.
func (c *Cluster) Connect(name string) *server.Player {
	first := -1
	for i := range c.shards {
		if !c.dead[i] {
			first = i
			break
		}
	}
	if first < 0 {
		return nil
	}
	p := c.shards[first].Connect(name)
	owner := c.cfg.Map.ShardOfBlock(p.Pos.BlockPos())
	if owner == first || c.dead[owner] {
		return p
	}
	c.shards[first].Disconnect(p.ID)
	return c.shards[owner].Connect(name)
}

// Snapshot returns the cluster's merged state fingerprint. Population and
// counters are summed; EntitySum is the sum of the shards' order-agnostic
// entity state sums (a different basis than a single server's ID-ordered
// hash — cluster snapshots compare against cluster snapshots); Chunks
// holds every shard's owned chunks in world iteration order, so the merged
// set matches a single server's ChunkStates over the same loaded area.
func (c *Cluster) Snapshot() server.Snapshot {
	var snap server.Snapshot
	snap.Tick = c.tick
	for i, s := range c.shards {
		if c.dead[i] {
			continue
		}
		ss := s.Snapshot()
		snap.Players += ss.Players
		snap.Entities += ss.Entities
		snap.Mobs += ss.Mobs
		snap.Items += ss.Items
		snap.TNT += ss.TNT
		snap.ItemsCollected += ss.ItemsCollected
		snap.EntitySum += s.EntityWorld().StateSum()
		for _, cs := range ss.Chunks {
			if c.cfg.Map.ShardOf(cs.Pos) == i {
				snap.Chunks = append(snap.Chunks, cs)
			}
		}
	}
	slices.SortFunc(snap.Chunks, func(a, b world.ChunkState) int { return a.Pos.Compare(b.Pos) })
	return snap
}

// KillShard simulates a shard process dying mid-run: the server object is
// abandoned unflushed and every peer drops its link. Entities that try to
// hand off toward the dead range freeze at the boundary (their current
// owner keeps simulating them) until RestoreShard brings a standby back.
func (c *Cluster) KillShard(i int) {
	if c.dead[i] {
		return
	}
	c.dead[i] = true
	for j := range c.shards {
		if j != i && !c.dead[j] {
			c.eps[j].DropSession(i)
		}
	}
	for _, p := range c.eps[i].Peers() {
		c.eps[i].DropSession(p)
	}
}

// RestoreShard brings a standby up for a dead shard: build a bare server,
// restore the newest good snapshot from the shard's store, replay the gap
// to the cluster's current tick input-free (the Crash scenario contract:
// gap ticks must not have depended on client inputs or cross-boundary
// traffic), then relink every live peer — which resets their mirror
// memory, so the next tick carries a full boundary resync.
func (c *Cluster) RestoreShard(i int) error {
	if !c.dead[i] {
		return fmt.Errorf("shard %d is not dead", i)
	}
	if c.cfg.Stores == nil || c.cfg.Stores[i] == nil {
		return fmt.Errorf("shard %d has no snapshot store", i)
	}
	s, err := c.cfg.Build(i, c.cfg.Map.Owns(i))
	if err != nil {
		return err
	}
	res, err := c.cfg.Stores[i].LoadLatest()
	if err != nil {
		return err
	}
	if err := s.RestoreSnapshot(res); err != nil {
		return err
	}
	for t := res.Tick; t < c.tick; t++ {
		s.Tick()
	}
	c.shards[i] = s
	c.eps[i] = NewEndpoint(s, c.cfg.Map, i)
	c.dead[i] = false
	for j := range c.shards {
		if j != i && !c.dead[j] {
			c.link(min(i, j), max(i, j))
		}
	}
	return nil
}
