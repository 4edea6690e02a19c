package entity

import (
	"container/heap"
	"slices"

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
		e.path = e.path[:0]
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
	for _, m := range e.pathVersions {
		if ew.chunkVersion[m.cp] != m.version {
			return true
		}
	}
	return false
}

// pathNodeBudget caps A* node expansions per path computation.
const pathNodeBudget = 250

// choosePath picks a goal (a player within 16 blocks, else a random point
// within 8) and runs A* toward it. Target finding queries the tick's player
// grid: only buckets around the mob are visited, and the lowest-index match
// is chosen — the same player a first-match linear scan would pick. Random
// draws come from the mob's decision stream. The path and its chunk marks
// are written into the mob's own slices, so a re-path reuses them.
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

	path, nodes, found := ew.findPath(e.path[:0], start, goal, pathNodeBudget)
	ew.counters.PathNodes += nodes
	if !found {
		e.wanderCooldown = 20 + d.Intn(20)
		return
	}
	e.path = path
	e.pathIdx = 0
	// Record terrain versions of the chunks the path crosses, in
	// ChunkPos.Compare order.
	marks := e.pathVersions[:0]
	for _, p := range path {
		cp := world.ChunkPosAt(p)
		i, seen := slices.BinarySearchFunc(marks, cp, func(m pathMark, cp world.ChunkPos) int {
			return m.cp.Compare(cp)
		})
		if !seen {
			marks = append(marks, pathMark{})
			copy(marks[i+1:], marks[i:])
			marks[i] = pathMark{cp: cp, version: ew.chunkVersion[cp]}
		}
	}
	e.pathVersions = marks
}

// pathMark is the terrain version of one chunk a path crosses, recorded
// when the path was computed.
type pathMark struct {
	cp      world.ChunkPos
	version uint64
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
			e.path = e.path[:0]
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

// nodeBlock is the size of one pathScratch node block; pathRetain is the
// node count above which a search's scratch is dropped instead of kept.
const (
	nodeBlock  = 256
	pathRetain = 1 << 14
)

// pathScratch is the A* working memory, kept on the World and reused by
// every search so a steady-state search allocates nothing. Nodes live in
// fixed-size blocks, so a node's address stays valid while later pushes
// add blocks; memory follows the nodes searches actually push. A search
// that pushed more than pathRetain nodes leaves the scratch to the garbage
// collector, so one outsized budget does not pin its memory for the life
// of the world.
type pathScratch struct {
	blocks  [][]pathNode
	used    int
	open    nodeHeap
	visited map[world.Pos]int
	nbrs    []world.Pos
}

// reset empties the scratch for a new search.
func (s *pathScratch) reset() {
	if s.used > pathRetain {
		*s = pathScratch{}
	}
	s.used = 0
	s.open = s.open[:0]
	if s.visited == nil {
		s.visited = make(map[world.Pos]int)
	} else {
		clear(s.visited)
	}
}

// node returns the next free node, set to n.
func (s *pathScratch) node(n pathNode) *pathNode {
	b, i := s.used/nodeBlock, s.used%nodeBlock
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]pathNode, nodeBlock))
	}
	s.used++
	p := &s.blocks[b][i]
	*p = n
	return p
}

// FindPath runs A* from start to goal over walkable voxels, expanding at
// most nodeBudget nodes. It returns the path (excluding start) and the
// number of nodes expanded, or (nil, expanded) if no path was found within
// budget. Walkable means: solid below, two non-solid blocks of clearance.
// The returned slice is the caller's own.
func (ew *World) FindPath(start, goal world.Pos, nodeBudget int) ([]world.Pos, int) {
	// A zero-capacity dst makes every path a fresh slice and keeps the
	// start == goal path empty but non-nil.
	path, expanded, _ := ew.findPath([]world.Pos{}, start, goal, nodeBudget)
	return path, expanded
}

// findPath is FindPath on the World's scratch: the path is written into
// dst's backing array (grown as needed) and found reports whether there is
// one; a path from start to itself is found and empty.
func (ew *World) findPath(dst []world.Pos, start, goal world.Pos, nodeBudget int) ([]world.Pos, int, bool) {
	if nodeBudget <= 0 {
		nodeBudget = 250
	}
	if start == goal {
		return dst[:0], 0, true
	}

	s := &ew.paths
	s.reset()
	open := &s.open
	heap.Push(open, s.node(pathNode{pos: start, g: 0, f: start.ManhattanDist(goal)}))
	s.visited[start] = 0
	expanded := 0

	var best *pathNode // closest node to goal seen, as a fallback
	bestH := start.ManhattanDist(goal)

	for open.Len() > 0 && expanded < nodeBudget {
		cur := heap.Pop(open).(*pathNode)
		expanded++
		if cur.pos == goal {
			return reconstruct(dst, cur), expanded, true
		}
		h := cur.pos.ManhattanDist(goal)
		if h < bestH {
			bestH, best = h, cur
		}
		s.nbrs = ew.walkableNeighbors(s.nbrs[:0], cur.pos)
		for _, next := range s.nbrs {
			g := cur.g + 1
			if prev, ok := s.visited[next]; ok && prev <= g {
				continue
			}
			s.visited[next] = g
			heap.Push(open, s.node(pathNode{pos: next, g: g, f: g + next.ManhattanDist(goal), parent: cur}))
		}
	}
	// Partial path toward the goal is still useful for wandering.
	if best != nil && best.g > 0 {
		return reconstruct(dst, best), expanded, true
	}
	return nil, expanded, false
}

// reconstruct writes the path ending at n (excluding the start node) into
// dst's backing array, replacing it only when it is too short.
func reconstruct(dst []world.Pos, n *pathNode) []world.Pos {
	k := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		k++
	}
	if cap(dst) < k {
		dst = make([]world.Pos, k)
	}
	dst = dst[:k]
	for cur := n; cur.parent != nil; cur = cur.parent {
		k--
		dst[k] = cur.pos
	}
	return dst
}

// walkableNeighbors appends to dst the standable positions reachable in
// one step from p: flat moves, single-block step-ups, and drops of up to
// three blocks.
func (ew *World) walkableNeighbors(dst []world.Pos, p world.Pos) []world.Pos {
	for _, hn := range p.NeighborsHorizontal() {
		for dy := 1; dy >= -3; dy-- {
			q := hn.Add(0, dy, 0)
			if q.Y < 1 || q.Y >= world.Height-1 {
				continue
			}
			if ew.standable(q) {
				dst = append(dst, q)
				break
			}
			// Cannot pass through a solid at this level going down.
			if b, ok := ew.wc.BlockIfLoaded(q); ok && b.IsSolid() {
				break
			}
		}
	}
	return dst
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
