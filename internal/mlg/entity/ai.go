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
// Decision randomness (choosePath's wander goal, the cooldown rolls on path
// failure and completion) comes from per-region decision streams (see
// rng.go): each draw is a pure function of (world seed, chunk, entity,
// tick), so an entity decides the same way whichever shard simulates it.

// tickMob runs one AI + physics step for a mob.
func (ew *World) tickMob(e *Entity) {
	// Invalidate the path if terrain changed beneath it.
	if e.HasPath() && ew.pathStale(e) {
		e.path = nil
		ew.counters.Repaths++
	}

	d := ew.decisionStreamFor(e)
	if !e.HasPath() {
		if e.wanderCooldown > 0 {
			e.wanderCooldown--
		} else {
			ew.choosePath(e, &d)
		}
	}

	if e.HasPath() {
		ew.followPath(e, &d)
	}
	ew.stepPhysics(e)
}

// pathStale reports whether any chunk the path crosses mutated since the
// path was computed.
func (ew *World) pathStale(e *Entity) bool {
	for cp, v := range e.pathVersions {
		if ew.chunkVersion[cp] != v {
			return true
		}
	}
	return false
}

// choosePath picks a goal (a player within 16 blocks, else a random point
// within 8) and runs A* toward it. Target finding queries the tick's player
// grid: only buckets around the mob are visited, and the lowest-index match
// is chosen — the same player a first-match linear scan would pick. Random
// draws come from the mob's decision stream.
func (ew *World) choosePath(e *Entity, d *decisionStream) {
	start := e.Pos.BlockPos()
	var goal world.Pos
	target, found := ew.grid.firstWithin(e.Pos, 16)
	if found {
		goal = target.BlockPos()
	} else {
		goal = world.Pos{
			X: start.X + d.Intn(17) - 8,
			Y: start.Y,
			Z: start.Z + d.Intn(17) - 8,
		}
		goal.Y = ew.surfaceAt(goal)
	}

	path, nodes := ew.FindPath(start, goal, ew.cfg.PathNodeBudget)
	ew.counters.PathNodes += nodes
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
		e.pathVersions[cp] = ew.chunkVersion[cp]
	}
}

// followPath steers the mob toward its next waypoint; completing the path
// rolls the next wander cooldown from the mob's decision stream.
func (ew *World) followPath(e *Entity, d *decisionStream) {
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
// height for empty columns) — a dynamic spawn/goal height query that
// generates the column on demand (§2.2.2 lazy generation).
func (ew *World) surfaceAt(p world.Pos) int {
	if y := ew.w.HighestSolidY(p.X, p.Z); y >= 0 {
		return y + 1
	}
	return p.Y
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

// FindPath runs A* from start to goal over walkable voxels, expanding at
// most nodeBudget nodes. It returns the path (excluding start) and the
// number of nodes expanded, or (nil, expanded) if no path was found within
// budget. Walkable means: solid below, two non-solid blocks of clearance.
func (ew *World) FindPath(start, goal world.Pos, nodeBudget int) ([]world.Pos, int) {
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
		for _, next := range ew.walkableNeighbors(cur.pos) {
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
func (ew *World) walkableNeighbors(p world.Pos) []world.Pos {
	out := make([]world.Pos, 0, 4)
	for _, hn := range p.NeighborsHorizontal() {
		for dy := 1; dy >= -3; dy-- {
			q := hn.Add(0, dy, 0)
			if q.Y < 1 || q.Y >= world.Height-1 {
				continue
			}
			if ew.standable(q) {
				out = append(out, q)
				break
			}
			// Cannot pass through a solid at this level going down.
			if b, ok := ew.wc.BlockIfLoaded(q); ok && b.IsSolid() {
				break
			}
		}
	}
	return out
}

// standable reports whether a mob can occupy p: solid floor below, feet and
// head clear.
func (ew *World) standable(p world.Pos) bool {
	below, ok := ew.wc.BlockIfLoaded(p.Down())
	if !ok || !below.IsSolid() {
		return false
	}
	feet, _ := ew.wc.BlockIfLoaded(p)
	head, _ := ew.wc.BlockIfLoaded(p.Up())
	return !feet.IsSolid() && !head.IsSolid()
}

// naturalSpawns attempts ambient mob spawns near players, computing spawn
// points dynamically (§2.2.3: terrain modification may obstruct spawn
// points, so MLGs compute them on the fly). Runs after the per-entity loop,
// on the store RNG.
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
		bp.Y = ew.surfaceAt(bp)
		if bp.Y <= 1 || bp.Y >= world.Height-2 {
			continue
		}
		if !ew.standable(bp) {
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
