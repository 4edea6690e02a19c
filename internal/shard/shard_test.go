package shard_test

// The sharding suite pins the contract the shard package makes: a cluster
// of N chunk-range shards is observationally equivalent to one server
// owning the whole world, for every entity that never crosses a boundary —
// and entities that do cross arrive on the new owner with their state
// intact. The equivalence matrix runs the Farm workload at Scale 2, whose
// two construct districts sit ~500 blocks apart, so a split at chunk X=16
// gives each shard one fully active district: both shards spawn, path,
// collect and despawn real traffic while the per-tick counters (summed
// across shards) must stay bit-identical to the single-shard run.

import (
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// equivSplit puts Farm Scale 2's district 0 (chunks ~-2..3) on shard 0 and
// district 1 (chunks ~30..35) on shard 1.
const equivSplit = 16

// buildFn returns a ClusterConfig.Build closure for the given flavor and
// workload; every shard gets its own world instance with the same seed.
// tune, when non-nil, adjusts shard i's config before its server is built.
func buildFn(f server.Flavor, k workload.Kind, m shard.Map, stores []*persist.Store, tune func(i int, cfg *server.Config)) func(int, func(world.ChunkPos) bool) (*server.Server, error) {
	return func(i int, owns func(world.ChunkPos) bool) (*server.Server, error) {
		w := workload.NewWorld(k, world.PaperControlSeed)
		cfg := server.DefaultConfig(f)
		cfg.Sim.Seed = 1234
		cfg.Shard = server.ShardConfig{Count: m.Count(), Index: i, Owns: owns}
		if stores != nil {
			cfg.Persist = server.PersistConfig{Store: stores[i], Every: 10, Sync: true}
		}
		if tune != nil {
			tune(i, &cfg)
		}
		return server.New(w, cfg, env.NewMachine(env.DAS5SixteenCore, 1), env.NewVirtualClock(epoch)), nil
	}
}

// refServer builds the single-shard reference: one server owning every
// chunk, but under the same ShardConfig regime as the cluster's members
// (ownership predicate installed, natural spawning off), so the comparison
// isolates the partition itself rather than config differences.
func refServer(t testing.TB, f server.Flavor, k workload.Kind, spec *workload.Spec) *server.Server {
	one := shard.Map{}
	s, err := buildFn(f, k, one, nil, nil)(0, one.Owns(0))
	if err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		if err := workload.Install(s, *spec); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func newFarmCluster(t testing.TB, f server.Flavor, spec workload.Spec, stores []*persist.Store, tune func(int, *server.Config)) *shard.Cluster {
	m := shard.Map{Splits: []int32{equivSplit}}
	c, err := shard.NewCluster(shard.ClusterConfig{
		Map:   m,
		Build: buildFn(f, workload.Farm, m, stores, tune),
		Install: func(s *server.Server, i int) error {
			return workload.Install(s, spec)
		},
		Stores: stores,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameChunks compares chunk fingerprints on (Pos, NonAir, Sum). Revision is
// a cache key, not content (see world.ChunkState), and a restored shard's
// revisions legitimately differ from a never-killed twin's.
func sameChunks(t *testing.T, what string, a, b []world.ChunkState) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d chunks vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || a[i].NonAir != b[i].NonAir || a[i].Sum != b[i].Sum {
			t.Fatalf("%s: chunk %d diverged: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

func TestMapRouting(t *testing.T) {
	m := shard.Map{Splits: []int32{0, 10}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", m.Count())
	}
	for _, tc := range []struct {
		x    int32
		want int
	}{{-100, 0}, {-1, 0}, {0, 1}, {9, 1}, {10, 2}, {100, 2}} {
		if got := m.ShardOf(world.ChunkPos{X: tc.x}); got != tc.want {
			t.Errorf("ShardOf(chunk %d) = %d, want %d", tc.x, got, tc.want)
		}
	}
	// Block-level routing: chunk 0 starts at block 0, chunk -1 at block -16.
	if got := m.ShardOfBlock(world.Pos{X: -1}); got != 0 {
		t.Errorf("ShardOfBlock(-1) = %d, want 0", got)
	}
	if got := m.ShardOfBlock(world.Pos{X: 0}); got != 1 {
		t.Errorf("ShardOfBlock(0) = %d, want 1", got)
	}
	// Halo membership: shard 1 owns chunks 0..9; chunk 0 borders shard 0,
	// chunk 9 borders shard 2, chunk 5 borders nobody.
	if got := m.AppendHaloPeers(nil, 1, world.ChunkPos{X: 0}); len(got) != 1 || got[0] != 0 {
		t.Errorf("AppendHaloPeers(1, chunk 0) = %v, want [0]", got)
	}
	if got := m.AppendHaloPeers(nil, 1, world.ChunkPos{X: 9}); len(got) != 1 || got[0] != 2 {
		t.Errorf("AppendHaloPeers(1, chunk 9) = %v, want [2]", got)
	}
	if got := m.AppendHaloPeers(nil, 1, world.ChunkPos{X: 5}); len(got) != 0 {
		t.Errorf("AppendHaloPeers(1, chunk 5) = %v, want none", got)
	}
	// A one-chunk-wide shard borders both neighbours; the buffer is
	// appended to, not replaced.
	narrow := shard.Map{Splits: []int32{0, 1}}
	if got := narrow.AppendHaloPeers([]int{7}, 1, world.ChunkPos{X: 0}); len(got) != 3 || got[0] != 7 || got[1] != 0 || got[2] != 2 {
		t.Errorf("AppendHaloPeers([7], 1, chunk 0) = %v, want [7 0 2]", got)
	}
	if err := (shard.Map{Splits: []int32{5, 5}}).Validate(); err == nil {
		t.Error("Validate accepted non-ascending splits")
	}
}

func TestSessionBarrier(t *testing.T) {
	a, b := net.Pipe()
	sa := shard.NewSession(a, 0, 1, 2)
	sb := shard.NewSession(b, 1, 0, 2)
	defer sa.Close()
	defer sb.Close()

	out := []protocol.Packet{
		&protocol.EntityHandoff{Kind: 2, X: 1, SeedKey: 42},
		&protocol.ChunkMirror{ChunkX: 16, ChunkZ: -1, Data: []byte{1, 2, 3}},
	}
	if err := sa.Send(7, out); err != nil {
		t.Fatal(err)
	}
	if err := sb.Send(7, nil); err != nil {
		t.Fatal(err)
	}
	got, err := sb.WaitBarrier(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d packets, want 2", len(got))
	}
	h, ok := got[0].(*protocol.EntityHandoff)
	if !ok || h.SeedKey != 42 {
		t.Fatalf("packet 0 = %#v, want the handoff first (send order)", got[0])
	}
	empty, err := sa.WaitBarrier(7)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty barrier: %v packets, err %v", len(empty), err)
	}

	// Ticks are independent buckets: a later tick's barrier does not
	// satisfy a wait for an earlier one that never arrives. The session's
	// one wait timer, re-armed from the tick-7 wait, faults naming tick 8.
	if err := sa.Send(9, nil); err != nil {
		t.Fatal(err)
	}
	sb.WaitTimeout = 50 * time.Millisecond
	_, err = sb.WaitBarrier(8)
	if err == nil {
		t.Fatal("WaitBarrier(8) succeeded without a barrier for tick 8")
	}
	if want := "missed barrier for tick 8"; !strings.Contains(err.Error(), want) {
		t.Fatalf("WaitBarrier(8) error %q, want it to say %q", err, want)
	}
}

// TestSessionBarrierHandoffCount: a barrier whose handoff count disagrees
// with the handoffs that preceded it faults the session instead of
// delivering a torn tick.
func TestSessionBarrierHandoffCount(t *testing.T) {
	a, b := net.Pipe()
	sa := shard.NewSession(a, 0, 1, 2)
	defer sa.Close()
	raw := protocol.NewConn(b)
	defer raw.Close()
	go io.Copy(io.Discard, b) // drain sa's hello
	for _, p := range []protocol.Packet{
		&protocol.ShardHello{Shard: 1, Shards: 2},
		&protocol.EntityHandoff{Kind: 2, SeedKey: 42},
		&protocol.ShardBarrier{Tick: 3, Handoffs: 2},
	} {
		if _, err := raw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	sa.WaitTimeout = 5 * time.Second
	if pkts, err := sa.WaitBarrier(3); err == nil {
		t.Fatalf("WaitBarrier returned %d packets for a barrier claiming 2 handoffs over 1", len(pkts))
	}
}

func TestSessionHelloMismatch(t *testing.T) {
	a, b := net.Pipe()
	sa := shard.NewSession(a, 0, 1, 2)
	sb := shard.NewSession(b, 1, 0, 3) // wrong cluster size
	defer sa.Close()
	defer sb.Close()
	sa.WaitTimeout = time.Second
	if _, err := sa.WaitBarrier(1); err == nil {
		t.Fatal("session accepted a peer from a different cluster size")
	}
}

// TestClusterEquivalence is the tentpole differential: a 2-shard cluster
// must produce, tick for tick, the same summed simulation and entity
// counters as the single-shard reference, the same entity state sum, and
// the same terrain fingerprints — for a workload whose entities never cross
// the shard boundary. Both shards host a live construct district, so the
// equality is between two genuinely active partitions, not one busy shard
// plus a spectator.
func TestClusterEquivalence(t *testing.T) {
	spec := workload.Farm.DefaultSpec()
	spec.Scale = 2
	for _, f := range server.Flavors() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			single := refServer(t, f, workload.Farm, &spec)
			cluster := newFarmCluster(t, f, spec, nil, nil)
			single.Connect("eq")
			cluster.Connect("eq")

			for i := 0; i < 90; i++ {
				rs := single.Tick()
				rc := cluster.Tick()
				if err := cluster.Err(); err != nil {
					t.Fatalf("tick %d: exchange fault: %v", i+1, err)
				}
				if rs.Sim != rc.Sim {
					t.Fatalf("tick %d: sim counters diverged\nsingle:  %+v\ncluster: %+v", i+1, rs.Sim, rc.Sim)
				}
				if rs.Ent != rc.Ent {
					t.Fatalf("tick %d: entity counters diverged\nsingle:  %+v\ncluster: %+v", i+1, rs.Ent, rc.Ent)
				}
				if rs.Entities != rc.Entities {
					t.Fatalf("tick %d: entity count %d vs %d", i+1, rs.Entities, rc.Entities)
				}
				sum := cluster.Shard(0).EntityWorld().StateSum() + cluster.Shard(1).EntityWorld().StateSum()
				if ss := single.EntityWorld().StateSum(); ss != sum {
					t.Fatalf("tick %d: entity state sum %#x vs cluster %#x", i+1, ss, sum)
				}
			}

			// Both shards must have hosted real entity traffic: a vacuous
			// equality (one empty shard) would not pin the partition.
			for i := 0; i < 2; i++ {
				if n := cluster.Shard(i).EntityWorld().Count(); n == 0 {
					t.Fatalf("shard %d hosted no entities; the differential is vacuous", i)
				}
			}

			ss, cs := single.Snapshot(), cluster.Snapshot()
			if ss.Players != cs.Players || ss.Entities != cs.Entities || ss.Mobs != cs.Mobs ||
				ss.Items != cs.Items || ss.TNT != cs.TNT || ss.ItemsCollected != cs.ItemsCollected {
				t.Fatalf("final populations diverged\nsingle:  %+v\ncluster: %+v", ss, cs)
			}
			sameChunks(t, "final terrain", ss.Chunks, cs.Chunks)
		})
	}
}

// TestClusterHandoff pushes an entity across the shard boundary and pins
// the state-intact contract: a twin single-shard server runs the identical
// scenario, and the cluster's summed entity state fingerprint — which
// covers position, velocity, age, spawn identity and AI timers — must
// match the twin's on every tick before, during and after the migration.
func TestClusterHandoff(t *testing.T) {
	m := shard.Map{Splits: []int32{equivSplit}}
	cluster, err := shard.NewCluster(shard.ClusterConfig{
		Map:   m,
		Build: buildFn(server.Vanilla, workload.Control, m, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	single := refServer(t, server.Vanilla, workload.Control, nil)

	// One item just inside shard 0, flung toward shard 1's range.
	boundaryX := equivSplit * world.ChunkSize
	spawn := world.Pos{X: boundaryX - 2, Y: 40, Z: 8}
	kick := func(ents *entity.World) {
		ents.SpawnItem(spawn, world.Stone)
		ents.Entities(func(e *entity.Entity) { e.Vel = entity.Vec3{X: 6} })
	}
	kick(single.EntityWorld())
	kick(cluster.Shard(0).EntityWorld())

	crossedAt := -1
	for i := 0; i < 12; i++ {
		single.Tick()
		cluster.Tick()
		if err := cluster.Err(); err != nil {
			t.Fatalf("tick %d: exchange fault: %v", i+1, err)
		}
		n0 := cluster.Shard(0).EntityWorld().Count()
		n1 := cluster.Shard(1).EntityWorld().Count()
		if n0+n1 != 1 {
			t.Fatalf("tick %d: item lost in transit: %d on shard 0, %d on shard 1", i+1, n0, n1)
		}
		if crossedAt < 0 && n1 == 1 {
			crossedAt = i + 1
		}
		sum := cluster.Shard(0).EntityWorld().StateSum() + cluster.Shard(1).EntityWorld().StateSum()
		if ss := single.EntityWorld().StateSum(); ss != sum {
			t.Fatalf("tick %d: entity state diverged across the handoff: single %#x, cluster %#x", i+1, ss, sum)
		}
	}
	if crossedAt < 0 {
		t.Fatal("item never crossed the shard boundary")
	}

	// The arrival kept the item simulating as an item on the new owner.
	found := 0
	cluster.Shard(1).EntityWorld().Entities(func(e *entity.Entity) {
		found++
		if e.Kind != entity.Item || e.ItemType != world.Stone {
			t.Fatalf("arrived entity is %v/%v, want Item/Stone", e.Kind, e.ItemType)
		}
		if bx := e.Pos.BlockPos().X; bx < boundaryX {
			t.Fatalf("arrived entity at block X=%d, still left of the boundary %d", bx, boundaryX)
		}
	})
	if found != 1 {
		t.Fatalf("shard 1 holds %d entities, want 1", found)
	}
	t.Logf("handoff at tick %d", crossedAt)
}

// TestClusterMirror pins the halo protocol: a terrain change in a boundary
// chunk appears in the neighbour's halo copy after one exchange, and a
// subsequent change propagates too (the mirror dedup must not swallow it).
func TestClusterMirror(t *testing.T) {
	m := shard.Map{Splits: []int32{equivSplit}}
	cluster, err := shard.NewCluster(shard.ClusterConfig{
		Map:   m,
		Build: buildFn(server.Vanilla, workload.Control, m, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A block in shard 1's first owned chunk column (chunk X=16), which is
	// inside the halo shard 0 must see.
	p := world.Pos{X: equivSplit*world.ChunkSize + 2, Y: 10, Z: 3}
	cluster.Shard(1).World().SetBlock(p, world.B(world.Stone))
	cluster.Tick()
	if err := cluster.Err(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Shard(0).World().Block(p).ID; got != world.Stone {
		t.Fatalf("halo copy holds %v after exchange, want Stone", got)
	}
	cluster.Shard(1).World().SetBlock(p, world.B(world.Air))
	cluster.Tick()
	if got := cluster.Shard(0).World().Block(p).ID; got != world.Air {
		t.Fatalf("halo copy holds %v after second exchange, want Air", got)
	}
}

// TestClusterFailover is the recovery differential: a cluster that loses a
// shard mid-run — and brings a standby back from the shard's newest
// snapshot, replaying the gap — must re-converge to lockstep equality with
// a twin cluster that never crashed. The boundary is quiescent around the
// kill window (Farm's districts sit far from the split), which is exactly
// the input-free-replay contract RestoreShard documents.
func TestClusterFailover(t *testing.T) {
	spec := workload.Farm.DefaultSpec()
	spec.Scale = 2

	stores := make([]*persist.Store, 2)
	for i := range stores {
		st, err := persist.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	control := newFarmCluster(t, server.Vanilla, spec, nil, nil)
	subject := newFarmCluster(t, server.Vanilla, spec, stores, nil)

	compare := func(tick int, rc, rs server.TickRecord) {
		t.Helper()
		if rc.Sim != rs.Sim || rc.Ent != rs.Ent || rc.Entities != rs.Entities {
			t.Fatalf("tick %d: records diverged\ncontrol: %+v %+v\nsubject: %+v %+v",
				tick, rc.Sim, rc.Ent, rs.Sim, rs.Ent)
		}
	}

	const killAfter, deadTicks, total = 37, 2, 60
	for i := 0; i < killAfter; i++ {
		compare(i+1, control.Tick(), subject.Tick())
	}
	subject.KillShard(1)
	if subject.Shard(1) != nil || subject.Endpoint(1) != nil {
		t.Fatal("killed shard still reachable")
	}
	// The cluster keeps ticking with the survivor while the shard is down;
	// the control ticks alongside to stay tick-aligned.
	for i := 0; i < deadTicks; i++ {
		control.Tick()
		subject.Tick()
	}
	if err := subject.RestoreShard(1); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := killAfter + deadTicks; i < total; i++ {
		compare(i+1, control.Tick(), subject.Tick())
	}
	if err := subject.Err(); err != nil {
		t.Fatalf("exchange fault: %v", err)
	}

	cs, ss := control.Snapshot(), subject.Snapshot()
	if cs.Tick != ss.Tick || cs.Entities != ss.Entities || cs.Mobs != ss.Mobs ||
		cs.Items != ss.Items || cs.ItemsCollected != ss.ItemsCollected || cs.EntitySum != ss.EntitySum {
		t.Fatalf("post-failover state diverged\ncontrol: %+v\nsubject: %+v", cs, ss)
	}
	sameChunks(t, "post-failover terrain", cs.Chunks, ss.Chunks)
}

// handoffBatch is the number of entities one handoff operation migrates.
const handoffBatch = 64

// newHandoffRig builds a two-shard Control cluster and returns one
// operation over the full inter-shard migration path: handoffBatch items
// spawned on shard 0 deep inside shard 1's range, clear of the halo; the
// departure sweep on the old owner, the wire round trip through the packet
// codec and async writer, and the arrival insert on the new owner.
func newHandoffRig(tb testing.TB) (handoff func()) {
	m := shard.Map{Splits: []int32{equivSplit}}
	cluster, err := shard.NewCluster(shard.ClusterConfig{
		Map:   m,
		Build: buildFn(server.Vanilla, workload.Control, m, nil, nil),
	})
	if err != nil {
		tb.Fatal(err)
	}
	ents0 := cluster.Shard(0).EntityWorld()
	ents1 := cluster.Shard(1).EntityWorld()
	ep0, ep1 := cluster.Endpoint(0), cluster.Endpoint(1)
	dst := world.Pos{X: (equivSplit + 14) * world.ChunkSize, Y: 40, Z: 8}
	everything := func(world.ChunkPos) bool { return false }
	var tick int64
	return func() {
		for j := 0; j < handoffBatch; j++ {
			ents0.SpawnItem(dst, world.Stone)
		}
		tick++
		if err := ep0.SendTick(tick); err != nil {
			tb.Fatal(err)
		}
		if err := ep1.SendTick(tick); err != nil {
			tb.Fatal(err)
		}
		if err := ep0.ApplyTick(tick); err != nil {
			tb.Fatal(err)
		}
		if err := ep1.ApplyTick(tick); err != nil {
			tb.Fatal(err)
		}
		if n := ents1.Count(); n != handoffBatch {
			tb.Fatalf("tick %d: %d arrivals, want %d", tick, n, handoffBatch)
		}
		ents1.DrainDepartures(everything) // reset for the next op
	}
}

// BenchmarkShardHandoff measures one newHandoffRig operation.
func BenchmarkShardHandoff(b *testing.B) {
	handoff := newHandoffRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handoff()
	}
	b.ReportMetric(handoffBatch, "handoffs/op")
}

// checkAllocs fails t when the fewest allocations any of runs calls of f
// makes exceed bound, counted as the server package counts them: process
// wide, collector off. The sessions' reader and writer goroutines allocate
// inside each count too.
func checkAllocs(t *testing.T, runs int, f func(), bound uint64) {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d allocs, bound %d", fewest, bound)
	if fewest > bound {
		t.Fatal("allocations over the bound")
	}
}

// TestShardHandoffAllocs bounds the allocations of one warmed
// BenchmarkShardHandoff operation (handoffBatch entities). At GOMAXPROCS >
// 1 the first handful of operations after setup can all read a few over
// the steady count, so this takes the cheapest of twenty.
func TestShardHandoffAllocs(t *testing.T) {
	checkAllocs(t, 20, newHandoffRig(t), 239)
}

// TestClusterTickAllocs bounds the allocations of a warm 2-shard Farm
// cluster's clusterWindow ticks, both shards hosting an active district.
// The shards drain terrain serially: at the default worker count the
// drains follow GOMAXPROCS, and their allocations would spread the counts
// wider than one allocation per tick. The bound follows the server
// package's tick windows: the highest count seen at GOMAXPROCS 1, 2 and 4
// plus twice the spread plus 10, rounded up to ten, for the cheapest of
// three consecutive windows. The Farm districts' allocations differ from
// one 60-tick stretch to the next by more than 60, and the sessions'
// goroutines allocate into some stretches and not others; a window of 600
// ticks keeps that spread well below the 600 that one extra allocation per
// cluster tick adds.
func TestClusterTickAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("Farm cluster tick window; skipped in -short and under -race")
	}
	const clusterWindow = 600
	spec := workload.Farm.DefaultSpec()
	spec.Scale = 2
	cluster := newFarmCluster(t, server.Vanilla, spec, nil, func(_ int, cfg *server.Config) { cfg.Sim.Workers = 1 })
	for i := 0; i < 100; i++ {
		cluster.Tick()
	}
	checkAllocs(t, 3, func() {
		for i := 0; i < clusterWindow; i++ {
			cluster.Tick()
		}
	}, 6020)
	if err := cluster.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTicksShardsConcurrently pins that Cluster.Tick runs the live
// shards' ticks at the same time. Each shard's AfterTick hook, the tail of
// its Server.Tick, meets the other shard's hook at a two-party rendezvous,
// which completes only while both ticks are in flight together. Shards
// ticked one after another leave the first hook waiting alone until it
// gives up, so the test fails instead of hanging.
func TestClusterTicksShardsConcurrently(t *testing.T) {
	const ticks, timeout = 5, 5 * time.Second
	arrived := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var met atomic.Int64
	meet := func(i int) {
		arrived[i] <- struct{}{}
		select {
		case <-arrived[1-i]:
			met.Add(1)
		case <-time.After(timeout):
		}
	}
	m := shard.Map{Splits: []int32{equivSplit}}
	cluster, err := shard.NewCluster(shard.ClusterConfig{
		Map: m,
		Build: buildFn(server.Vanilla, workload.Control, m, nil, func(i int, cfg *server.Config) {
			cfg.Hooks.AfterTick = func(server.TickRecord) { meet(i) }
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= ticks; i++ {
		cluster.Tick()
		if err := cluster.Err(); err != nil {
			t.Fatalf("tick %d: exchange fault: %v", i, err)
		}
		if got := met.Load(); got != int64(2*i) {
			t.Fatalf("tick %d: %d of %d shard ticks met their peer mid-tick; the shards ticked one after another", i, got, 2*i)
		}
	}
}
