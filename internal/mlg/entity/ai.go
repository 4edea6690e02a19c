package entity

import (
	"container/heap"

	"repro/internal/mlg/world"
)

// Mob AI: wander toward random nearby goals (or the nearest player), using
// A* over the voxel grid. Because MLG terrain is mutable, there is no
// precomputed navigation mesh: paths are computed on demand and invalidated
// whenever a chunk they cross changes — the compute-intensive dynamic
// pathfinding of §2.2.3.
//
// The whole mob tick — staleness checks, decisions, path following, physics
// — runs on a tick context shared by the serial loop and the parallel
// workers. Decision randomness (choosePath's wander goal, the cooldown rolls
// on path failure and completion) comes from per-region decision streams
// (see rng.go): each draw is a pure function of (world seed, chunk, entity,
// tick), so pool workers draw in place and the serial loop produces the
// identical values — mob decisions no longer couple entities through a
// shared RNG stream. The one thing a pool worker cannot do is GENERATE
// terrain (choosePath's surfaceAt over an unloaded column): that escapes the
// entity to the serial re-tick pass (see parallel.go).

// tickItem integrates item physics only.
func (c *tickCtx) tickItem(e *Entity) {
	c.stepPhysics(e)
}

// tickMob runs one AI + physics step for a mob.
func (c *tickCtx) tickMob(e *Entity) {
	// Invalidate the path if terrain changed beneath it.
	if e.HasPath() && c.pathStale(e) {
		e.path = nil
		c.counters.Repaths++
	}

	d := c.ew.decisionStreamFor(e)
	if !e.HasPath() {
		if e.wanderCooldown > 0 {
			e.wanderCooldown--
		} else {
			c.choosePath(e, &d)
			if u := c.unit; u != nil && u.escaped {
				// The goal column is unloaded: generation is serial-only.
				// The entity is rolled back and re-ticked on the root context.
				return
			}
		}
	}

	if e.HasPath() {
		c.followPath(e, &d)
	}
	c.stepPhysics(e)
}

// pathStale reports whether any chunk the path crosses mutated since the
// path was computed. chunkVersion only changes on terrain mutation, which
// never happens during the entity phase, so concurrent pool workers read
// a frozen map.
func (c *tickCtx) pathStale(e *Entity) bool {
	for cp, v := range e.pathVersions {
		if c.ew.chunkVersion[cp] != v {
			return true
		}
	}
	return false
}

// mayChoosePath mirrors tickMob's control flow on pre-tick state, without
// mutating anything: it reports whether the mob's tick will reach choosePath
// — the only operation in the entity phase that can generate terrain. The
// scheduler uses it to compute the tick's generation horizon (the smallest
// such mob's ID; see parallel.go): a worker read that misses an unloaded
// chunk is serial-equivalent only for entities ordered at or before that
// horizon. The predicate is exact, not merely conservative — every input
// (the age throttle via the pre-stamped activation marks, path staleness via
// the frozen chunk versions, the cooldown) is fixed before workers start.
func (ew *World) mayChoosePath(e *Entity) bool {
	if e.Kind != Mob || ew.throttledAt(e, e.Age+1) {
		return false
	}
	if e.HasPath() && !ew.root.pathStale(e) {
		return false
	}
	return e.wanderCooldown == 0
}

// choosePath picks a goal (a player within 16 blocks, else a random point
// within 8) and runs A* toward it. Target finding queries the tick's player
// grid: only buckets around the mob are visited, and the lowest-index match
// is chosen — the same player a first-match linear scan would pick. Runs on
// any context: random draws come from the mob's decision stream and terrain
// reads resolve through the context's cache. On a unit context a goal over
// an unloaded column escapes (generation must happen serially) and leaves
// early; the serial re-tick then generates it.
func (c *tickCtx) choosePath(e *Entity, d *decisionStream) {
	start := e.Pos.BlockPos()
	var goal world.Pos
	target, found := c.ew.grid.firstWithin(e.Pos, 16)
	if found {
		goal = target.BlockPos()
	} else {
		goal = world.Pos{
			X: start.X + d.Intn(17) - 8,
			Y: start.Y,
			Z: start.Z + d.Intn(17) - 8,
		}
		y, ok := c.surfaceAt(goal)
		if !ok {
			return
		}
		goal.Y = y
	}

	path, nodes := c.findPath(start, goal, c.ew.cfg.PathNodeBudget)
	c.counters.PathNodes += nodes
	if path == nil {
		e.wanderCooldown = 20 + d.Intn(20)
		return
	}
	e.path = path
	e.pathIdx = 0
	// Record terrain versions of the chunks the path crosses.
	e.pathVersions = make(map[world.ChunkPos]uint64, 4)
	for _, p := range path {
		cp := world.ChunkPosAt(p)
		e.pathVersions[cp] = c.ew.chunkVersion[cp]
	}
}

// followPath steers the mob toward its next waypoint; completing the path
// rolls the next wander cooldown from the mob's decision stream.
func (c *tickCtx) followPath(e *Entity, d *decisionStream) {
	wp := e.path[e.pathIdx]
	target := Center(wp)
	delta := target.Sub(e.Pos)
	horiz := Vec3{X: delta.X, Z: delta.Z}
	if horiz.Len() < 0.4 && delta.Y > -1.5 && delta.Y < 1.5 {
		e.pathIdx++
		if e.pathIdx >= len(e.path) {
			e.path = nil
			e.wanderCooldown = 20 + d.Intn(40)
		}
		return
	}
	speed := 0.12
	if l := horiz.Len(); l > 0 {
		e.Vel.X += horiz.X / l * speed * 0.3
		e.Vel.Z += horiz.Z / l * speed * 0.3
	}
	// Hop up single-block steps.
	if delta.Y > 0.5 && e.OnGround {
		e.Vel.Y = 0.42
	}
}

// surfaceAt returns one above the highest solid Y of the column (the query
// height for empty columns) — a dynamic spawn/goal height query. The root
// context generates the column on demand (§2.2.2 lazy generation); a unit
// context cannot (generation mutates the chunk index the workers share
// frozen), so an unloaded column escapes the current entity to the serial
// re-tick pass and returns ok=false.
func (c *tickCtx) surfaceAt(p world.Pos) (int, bool) {
	if u := c.unit; u != nil {
		ch := c.wc.Chunk(world.ChunkPosAt(p))
		if ch == nil {
			u.escaped = true
			return 0, false
		}
		lx, lz := world.ChunkLocal(p)
		if y := ch.HighestSolidY(lx, lz); y >= 0 {
			return y + 1, true
		}
		return p.Y, true
	}
	if y := c.ew.w.HighestSolidY(p.X, p.Z); y >= 0 {
		return y + 1, true
	}
	return p.Y, true
}

// pathNode is an A* open-set element.
type pathNode struct {
	pos    world.Pos
	g, f   int
	parent *pathNode
	index  int
}

type nodeHeap []*pathNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *nodeHeap) Push(x interface{}) { n := x.(*pathNode); n.index = len(*h); *h = append(*h, n) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// FindPath runs A* on the store's root context (the serial read path). Tests
// and external callers use it; tick-time pathing goes through tickCtx.findPath
// so pool workers resolve terrain from their frozen caches.
func (ew *World) FindPath(start, goal world.Pos, nodeBudget int) ([]world.Pos, int) {
	return ew.root.findPath(start, goal, nodeBudget)
}

// findPath runs A* from start to goal over walkable voxels, expanding at
// most nodeBudget nodes. It returns the path (excluding start) and the
// number of nodes expanded, or (nil, expanded) if no path was found within
// budget. Walkable means: solid below, two non-solid blocks of clearance.
func (c *tickCtx) findPath(start, goal world.Pos, nodeBudget int) ([]world.Pos, int) {
	if nodeBudget <= 0 {
		nodeBudget = 250
	}
	if start == goal {
		return []world.Pos{}, 0
	}

	open := &nodeHeap{}
	heap.Init(open)
	startNode := &pathNode{pos: start, g: 0, f: start.ManhattanDist(goal)}
	heap.Push(open, startNode)
	visited := map[world.Pos]int{start: 0}
	expanded := 0

	var best *pathNode // closest node to goal seen, as a fallback
	bestH := start.ManhattanDist(goal)

	for open.Len() > 0 && expanded < nodeBudget {
		cur := heap.Pop(open).(*pathNode)
		expanded++
		if cur.pos == goal {
			return reconstruct(cur), expanded
		}
		h := cur.pos.ManhattanDist(goal)
		if h < bestH {
			bestH, best = h, cur
		}
		for _, next := range c.walkableNeighbors(cur.pos) {
			g := cur.g + 1
			if prev, ok := visited[next]; ok && prev <= g {
				continue
			}
			visited[next] = g
			heap.Push(open, &pathNode{pos: next, g: g, f: g + next.ManhattanDist(goal), parent: cur})
		}
	}
	// Partial path toward the goal is still useful for wandering.
	if best != nil && best.g > 0 {
		return reconstruct(best), expanded
	}
	return nil, expanded
}

func reconstruct(n *pathNode) []world.Pos {
	var rev []world.Pos
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.pos)
	}
	out := make([]world.Pos, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// walkableNeighbors returns the standable positions reachable in one step:
// flat moves, single-block step-ups, and drops of up to three blocks.
// Terrain reads go through the context, so A* expansions on a pool worker
// resolve from the frozen chunk index (and unloaded misses trip the
// generation-horizon guard in blockIfLoaded).
func (c *tickCtx) walkableNeighbors(p world.Pos) []world.Pos {
	out := make([]world.Pos, 0, 4)
	for _, hn := range p.NeighborsHorizontal() {
		for dy := 1; dy >= -3; dy-- {
			q := hn.Add(0, dy, 0)
			if q.Y < 1 || q.Y >= world.Height-1 {
				continue
			}
			if c.standable(q) {
				out = append(out, q)
				break
			}
			// Cannot pass through a solid at this level going down.
			if b, ok := c.blockIfLoaded(q); ok && b.IsSolid() {
				break
			}
		}
	}
	return out
}

// standable reports whether a mob can occupy p: solid floor below, feet and
// head clear.
func (c *tickCtx) standable(p world.Pos) bool {
	below, ok := c.blockIfLoaded(p.Down())
	if !ok || !below.IsSolid() {
		return false
	}
	feet, _ := c.blockIfLoaded(p)
	head, _ := c.blockIfLoaded(p.Up())
	return !feet.IsSolid() && !head.IsSolid()
}

// naturalSpawns attempts ambient mob spawns near players, computing spawn
// points dynamically (§2.2.3: terrain modification may obstruct spawn
// points, so MLGs compute them on the fly). Runs in the serial phase after
// the per-entity loop, on the store RNG: placement draws stay on the shared
// stream, whose consumption order here is global and deterministic.
func (ew *World) naturalSpawns(players []Vec3) {
	for i := 0; i < ew.cfg.SpawnAttemptsPerTick; i++ {
		ew.counters.SpawnAttempts++
		if ew.mobs >= ew.cfg.MaxMobs {
			return
		}
		anchor := players[ew.rng.Intn(len(players))]
		dx := float64(ew.rng.Intn(49) - 24)
		dz := float64(ew.rng.Intn(49) - 24)
		candidate := anchor.Add(Vec3{X: dx, Z: dz})
		bp := candidate.BlockPos()
		bp.Y, _ = ew.root.surfaceAt(bp)
		if bp.Y <= 1 || bp.Y >= world.Height-2 {
			continue
		}
		if !ew.root.standable(bp) {
			continue
		}
		// Too close to a player: skip (Minecraft enforces 24 blocks). The
		// player grid visits only the buckets around the candidate.
		if ew.grid.anyStrictlyWithin(Center(bp), 24) {
			continue
		}
		ew.SpawnMob(bp)
	}
}
