package entity

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mlg/world"
)

// clusterOrigins lays out n cluster anchors 256 blocks apart on the X axis
// (16 chunks), so the clusters never interact.
func clusterOrigins(n int) []world.Pos {
	out := make([]world.Pos, n)
	for i := range out {
		out[i] = world.Pos{X: 32 + i*256, Y: 12, Z: 32}
	}
	return out
}

// buildClusterWorld creates an entity world over flat terrain covering the
// clusters and populates each cluster with items, mobs and slow-fuse TNT via
// the public spawn API.
func buildClusterWorld(tb testing.TB, clusters int) *World {
	tb.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig()
	cfg.ActivationRange = 32 // exercise the throttling path too
	ew := NewWorld(w, cfg, 424242)
	for _, o := range clusterOrigins(clusters) {
		w.EnsureArea(o, 4)
		for i := 0; i < 30; i++ {
			ew.SpawnItem(world.Pos{X: o.X + i%6*2, Y: 14, Z: o.Z + i/6*2}, world.Gravel)
		}
		for i := 0; i < 6; i++ {
			ew.SpawnMob(world.Pos{X: o.X + 3 + i, Y: 11, Z: o.Z + 10})
		}
		for i := 0; i < 4; i++ {
			// Staggered fuses so detonations drain across several ticks.
			ew.SpawnPrimedTNT(world.Pos{X: o.X + 8, Y: 12, Z: o.Z + 4 + i}, 25+7*i)
		}
	}
	return ew
}

// clusterPlayers puts one player at each cluster so mobs acquire AI targets
// and activation marking has work to do.
func clusterPlayers(clusters int) []Vec3 {
	out := make([]Vec3, 0, clusters)
	for _, o := range clusterOrigins(clusters) {
		out = append(out, Vec3{X: float64(o.X) + 5.5, Y: 11, Z: float64(o.Z) + 5.5})
	}
	return out
}

func newTestWorld(t *testing.T) (*world.World, *World) {
	t.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 2)
	return w, ew
}

func TestVecHelpers(t *testing.T) {
	v := Vec3{1, 2, 3}
	if v.Add(Vec3{1, 1, 1}) != (Vec3{2, 3, 4}) {
		t.Error("Add wrong")
	}
	if v.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale wrong")
	}
	if got := (Vec3{3, 4, 0}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if (Vec3{1.9, 2.1, -0.5}).BlockPos() != (world.Pos{X: 1, Y: 2, Z: -1}) {
		t.Error("BlockPos floor wrong")
	}
	if Center(world.Pos{X: 1, Y: 2, Z: 3}) != (Vec3{1.5, 2, 3.5}) {
		t.Error("Center wrong")
	}
	if Mob.String() != "mob" || Item.String() != "item" || PrimedTNT.String() != "tnt" {
		t.Error("type names wrong")
	}
}

func TestItemFallsAndRests(t *testing.T) {
	_, ew := newTestWorld(t)
	ew.SpawnItem(world.Pos{X: 0, Y: 20, Z: 0}, world.Cobblestone)
	for i := 0; i < 100; i++ {
		ew.Tick(nil)
	}
	var item *Entity
	ew.Entities(func(e *Entity) { item = e })
	if item == nil {
		t.Fatal("item vanished")
	}
	if !item.OnGround {
		t.Fatalf("item not on ground: pos %v", item.Pos)
	}
	if math.Abs(item.Pos.Y-11) > 0.5 {
		t.Fatalf("item rest height %v, want ≈11 (on top of surface y=10)", item.Pos.Y)
	}
}

func TestItemDespawnsAfterLifetime(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	cfg.ItemLifetimeTicks = 50
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 1)
	ew.SpawnItem(world.Pos{X: 0, Y: 12, Z: 0}, world.Dirt)
	for i := 0; i < 60; i++ {
		ew.Tick(nil)
	}
	if ew.Count() != 0 {
		t.Fatalf("item survived past lifetime: %d entities", ew.Count())
	}
}

func TestTNTFuseAndExplosionQueue(t *testing.T) {
	_, ew := newTestWorld(t)
	ew.SpawnPrimedTNT(world.Pos{X: 0, Y: 11, Z: 0}, 10)
	for i := 0; i < 9; i++ {
		ew.Tick(nil)
		if len(ew.explosionsDue) != 0 {
			t.Fatalf("exploded early at tick %d", i)
		}
	}
	ew.Tick(nil)
	got := ew.DrainExplosions()
	if len(got) != 1 {
		t.Fatalf("explosions = %d, want 1", len(got))
	}
	if again := ew.DrainExplosions(); len(again) != 0 {
		t.Fatal("drain did not clear")
	}
	if ew.Count() != 0 {
		t.Fatal("exploded TNT not removed")
	}
}

// TestDetonationsDrainInIDOrder spawns TNT that detonates on one tick, in a
// spawn order unrelated to position: the drained batch must follow entity-ID
// order, the order the terrain engine and the impulse pass consume it in.
func TestDetonationsDrainInIDOrder(t *testing.T) {
	_, ew := newTestWorld(t)
	spawned := []world.Pos{{X: 9, Y: 11, Z: 3}, {X: -7, Y: 11, Z: 0}, {X: 4, Y: 11, Z: -8}, {X: 0, Y: 11, Z: 12}}
	for _, p := range spawned {
		ew.SpawnPrimedTNT(p, 5)
	}
	for i := 0; i < 5; i++ {
		ew.Tick(nil)
	}
	if got := ew.DrainExplosions(); fmt.Sprint(got) != fmt.Sprint(spawned) {
		t.Fatalf("detonations drained as %v, want ID order %v", got, spawned)
	}
}

// TestEntityTickAllocs pins the allocations of one warmed store tick over
// two and four clusters of items, pathing mobs and TNT (the
// BenchmarkEntityTick populations), with the server's per-tick drains.
func TestEntityTickAllocs(t *testing.T) {
	const pinned = 4
	for _, clusters := range []int{2, 4} {
		t.Run(fmt.Sprintf("Clusters%d", clusters), func(t *testing.T) {
			ew := buildClusterWorld(t, clusters)
			players := clusterPlayers(clusters)
			for i := 0; i < 5; i++ {
				ew.Tick(players)
				ew.DrainChunkUpdates()
			}
			got := testing.AllocsPerRun(40, func() {
				ew.Tick(players)
				ew.DrainChunkUpdates()
				ew.DrainExplosions()
			})
			if got > pinned {
				t.Fatalf("entity tick allocates %.0f times, pinned at %d", got, pinned)
			}
		})
	}
}

func TestExplosionImpulseKnockback(t *testing.T) {
	_, ew := newTestWorld(t)
	ew.SpawnMob(world.Pos{X: 3, Y: 11, Z: 0})
	ew.SpawnItem(world.Pos{X: 0, Y: 11, Z: 0}, world.Dirt) // at centre: destroyed
	ew.ApplyExplosionImpulse(world.Pos{X: 0, Y: 11, Z: 0}, 4)

	var mob *Entity
	items := 0
	ew.Entities(func(e *Entity) {
		if e.Kind == Mob {
			mob = e
		}
		if e.Kind == Item && !e.Dead {
			items++
		}
	})
	if mob == nil {
		t.Fatal("mob missing")
	}
	if mob.Vel.X <= 0 {
		t.Fatalf("mob not knocked away from blast: vel %v", mob.Vel)
	}
	if items != 0 {
		t.Fatal("item at blast centre survived")
	}
}

func TestMobCapEnforced(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	cfg.MaxMobs = 5
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 1)
	for i := 0; i < 20; i++ {
		ew.SpawnMob(world.Pos{X: i, Y: 11, Z: 0})
	}
	if got := ew.CountByKind(Mob); got != 5 {
		t.Fatalf("mobs = %d, want cap 5", got)
	}
}

func TestEntityCapEnforced(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	cfg.MaxEntities = 10
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 1)
	for i := 0; i < 50; i++ {
		ew.SpawnItem(world.Pos{X: 0, Y: 12, Z: 0}, world.Dirt)
	}
	if ew.Count() != 10 {
		t.Fatalf("entities = %d, want cap 10", ew.Count())
	}
}

func TestCollectItems(t *testing.T) {
	_, ew := newTestWorld(t)
	ew.SpawnItem(world.Pos{X: 0, Y: 11, Z: 0}, world.Kelp)
	ew.SpawnItem(world.Pos{X: 0, Y: 11, Z: 0}, world.Kelp)
	ew.SpawnItem(world.Pos{X: 10, Y: 11, Z: 10}, world.Kelp) // out of range
	n := ew.CollectItems(world.Pos{X: 0, Y: 11, Z: 0}, 2)
	if n != 2 {
		t.Fatalf("collected %d, want 2", n)
	}
	ew.Tick(nil) // compaction
	if ew.Count() != 1 {
		t.Fatalf("entities after collection = %d, want 1", ew.Count())
	}
}

func TestFindPathStraightLine(t *testing.T) {
	_, ew := newTestWorld(t)
	start := world.Pos{X: 0, Y: 11, Z: 0}
	goal := world.Pos{X: 6, Y: 11, Z: 0}
	path, nodes := ew.FindPath(start, goal, 500)
	if path == nil {
		t.Fatal("no path on flat ground")
	}
	if nodes <= 0 {
		t.Fatal("no nodes expanded")
	}
	if path[len(path)-1] != goal {
		t.Fatalf("path ends at %v, want %v", path[len(path)-1], goal)
	}
	if len(path) != 6 {
		t.Fatalf("path length %d, want 6", len(path))
	}
}

func TestFindPathAroundWall(t *testing.T) {
	w, ew := newTestWorld(t)
	// Build a wall across z at x=3, two blocks high, with a gap at z=5.
	for z := -4; z <= 4; z++ {
		if z == 4 {
			continue // gap
		}
		w.SetBlock(world.Pos{X: 3, Y: 11, Z: z}, world.B(world.Stone))
		w.SetBlock(world.Pos{X: 3, Y: 12, Z: z}, world.B(world.Stone))
	}
	start := world.Pos{X: 0, Y: 11, Z: 0}
	goal := world.Pos{X: 6, Y: 11, Z: 0}
	path, _ := ew.FindPath(start, goal, 2000)
	if path == nil || path[len(path)-1] != goal {
		t.Fatal("no path around wall")
	}
	// The path must detour: longer than the straight-line distance.
	if len(path) <= 6 {
		t.Fatalf("path length %d too short for a detour", len(path))
	}
	// No waypoint may be inside the wall.
	for _, p := range path {
		if b, _ := w.BlockIfLoaded(p); b.IsSolid() {
			t.Fatalf("path goes through solid block at %v", p)
		}
	}
}

func TestFindPathStepsUpAndDrops(t *testing.T) {
	w, ew := newTestWorld(t)
	// A one-block step up at x=2.
	for z := -8; z <= 8; z++ {
		for x := 2; x <= 8; x++ {
			w.SetBlock(world.Pos{X: x, Y: 11, Z: z}, world.B(world.Stone))
		}
	}
	start := world.Pos{X: 0, Y: 11, Z: 0}
	goal := world.Pos{X: 5, Y: 12, Z: 0}
	path, _ := ew.FindPath(start, goal, 2000)
	if path == nil || path[len(path)-1] != goal {
		t.Fatalf("no path up the step: %v", path)
	}
}

func TestFindPathBudgetExhaustion(t *testing.T) {
	_, ew := newTestWorld(t)
	start := world.Pos{X: 0, Y: 11, Z: 0}
	goal := world.Pos{X: 200, Y: 11, Z: 200} // far beyond a 10-node budget
	path, nodes := ew.FindPath(start, goal, 10)
	if nodes > 10 {
		t.Fatalf("expanded %d nodes over budget 10", nodes)
	}
	// A partial path toward the goal is acceptable; nil is too. If partial,
	// it must make progress.
	if path != nil {
		if len(path) == 0 {
			t.Fatal("empty partial path")
		}
		if path[len(path)-1].ManhattanDist(goal) >= start.ManhattanDist(goal) {
			t.Fatal("partial path made no progress")
		}
	}
}

func TestMobWandersAndPathfinds(t *testing.T) {
	_, ew := newTestWorld(t)
	ew.SpawnMob(world.Pos{X: 0, Y: 11, Z: 0})
	var totalNodes int
	start := Center(world.Pos{X: 0, Y: 11, Z: 0})
	for i := 0; i < 400; i++ {
		c := ew.Tick(nil)
		totalNodes += c.PathNodes
	}
	if totalNodes == 0 {
		t.Fatal("mob never pathfound")
	}
	var mob *Entity
	ew.Entities(func(e *Entity) { mob = e })
	if mob == nil {
		t.Fatal("mob despawned unexpectedly early")
	}
	if mob.Pos.Dist(start) < 0.5 {
		t.Fatal("mob never moved")
	}
}

func TestTerrainChangeForcesRepath(t *testing.T) {
	w, ew := newTestWorld(t)
	ew.SpawnMob(world.Pos{X: 0, Y: 11, Z: 0})
	// Let it establish a path.
	var repathsBefore int
	for i := 0; i < 100; i++ {
		repathsBefore += ew.Tick(nil).Repaths
	}
	// Mutate terrain around the mob every tick; repaths must occur. The
	// block alternates so every write is a genuine change (SetBlock skips
	// listeners — and so the chunk-version bump — on no-op writes).
	repaths := 0
	for i := 0; i < 200; i++ {
		b := world.B(world.Stone)
		if i%2 == 1 {
			b = world.B(world.Air)
		}
		w.SetBlock(world.Pos{X: 5, Y: 20, Z: i % 7}, b)
		repaths += ew.Tick(nil).Repaths
	}
	if repaths == 0 {
		t.Fatal("no repaths despite continuous terrain changes")
	}
}

func TestActivationRangeThrottlesFarEntities(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	cfg.ActivationRange = 32
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 4)
	ew.SpawnMob(world.Pos{X: 60, Y: 11, Z: 60}) // far from player at origin
	player := []Vec3{{X: 0, Y: 11, Z: 0}}
	var mobTicks, skips int
	for i := 0; i < 100; i++ {
		c := ew.Tick(player)
		mobTicks += c.MobTicks
		skips += c.InactiveSkips
	}
	if skips == 0 {
		t.Fatal("far mob never throttled")
	}
	if mobTicks == 0 {
		t.Fatal("throttled mob must still tick occasionally")
	}
	if mobTicks > skips {
		t.Fatalf("throttling too weak: %d ticks vs %d skips", mobTicks, skips)
	}
	// A nearby mob is never throttled.
	ew2 := NewWorld(w, cfg, 2)
	ew2.SpawnMob(world.Pos{X: 2, Y: 11, Z: 2})
	for i := 0; i < 50; i++ {
		if c := ew2.Tick(player); c.InactiveSkips > 0 {
			t.Fatal("near mob throttled")
		}
	}
}

func TestNaturalSpawningRespectsDistanceAndCap(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = true
	cfg.SpawnAttemptsPerTick = 10
	cfg.MaxMobs = 30
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 4)
	player := []Vec3{{X: 0, Y: 11, Z: 0}}
	for i := 0; i < 300; i++ {
		ew.Tick(player)
	}
	mobs := ew.CountByKind(Mob)
	if mobs == 0 {
		t.Fatal("natural spawning produced no mobs")
	}
	if mobs > 30 {
		t.Fatalf("mob cap exceeded: %d", mobs)
	}
	ew.Entities(func(e *Entity) {
		if e.Kind == Mob && e.Age < 2 {
			if e.Pos.Dist(player[0]) < 24 {
				t.Fatalf("mob spawned %v blocks from player", e.Pos.Dist(player[0]))
			}
		}
	})
}

func TestDeterministicSimulation(t *testing.T) {
	runSim := func() []Vec3 {
		w := world.New(&world.FlatGenerator{SurfaceY: 10})
		cfg := DefaultConfig()
		ew := NewWorld(w, cfg, 42)
		w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 3)
		for i := 0; i < 5; i++ {
			ew.SpawnMob(world.Pos{X: i * 3, Y: 11, Z: 0})
			ew.SpawnItem(world.Pos{X: 0, Y: 14, Z: i * 2}, world.Dirt)
		}
		players := []Vec3{{X: 40, Y: 11, Z: 40}}
		for i := 0; i < 300; i++ {
			ew.Tick(players)
		}
		var out []Vec3
		ew.Entities(func(e *Entity) { out = append(out, e.Pos) })
		return out
	}
	a, b := runSim(), runSim()
	if len(a) != len(b) {
		t.Fatalf("entity counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entity %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: physics never tunnels an entity into solid terrain.
func TestPhysicsNoTunnelingProperty(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10})
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	ew := NewWorld(w, cfg, 1)
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 3)
	f := func(vx, vz int8, h uint8) bool {
		e := &Entity{Kind: Item, Pos: Vec3{X: 0.5, Y: float64(12 + h%30), Z: 0.5},
			Vel: Vec3{X: float64(vx) / 50, Z: float64(vz) / 50}}
		for i := 0; i < 120; i++ {
			ew.stepPhysics(e)
			bp := e.Pos.BlockPos()
			if b, ok := ew.w.BlockIfLoaded(bp); ok && b.IsSolid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFluidStreamPushesItems(t *testing.T) {
	w, ew := newTestWorld(t)
	// A water channel at y=11 flowing east: source at x=0, levels increasing.
	for x := 0; x <= 6; x++ {
		w.SetBlock(world.Pos{X: x, Y: 11, Z: 0}, world.Block{ID: world.Water, Meta: uint8(x)})
	}
	ew.SpawnItem(world.Pos{X: 1, Y: 11, Z: 0}, world.Kelp)
	for i := 0; i < 60; i++ {
		ew.Tick(nil)
	}
	var item *Entity
	ew.Entities(func(e *Entity) { item = e })
	if item == nil {
		t.Fatal("item vanished")
	}
	if item.Pos.X <= 1.5 {
		t.Fatalf("item not pushed downstream: x=%v", item.Pos.X)
	}
}
