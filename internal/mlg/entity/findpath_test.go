package entity

import (
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/world"
)

// The reference A* below is the allocating search FindPath replaced: a
// fresh heap, visited map, node per push, neighbour slice per expansion and
// reversed path per result. It is kept verbatim (identifiers renamed) as the
// oracle for the scratch-reusing search.

type refNode struct {
	pos    world.Pos
	g, f   int
	parent *refNode
	index  int
}

type refHeap []*refNode

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refHeap) Push(x interface{}) { n := x.(*refNode); n.index = len(*h); *h = append(*h, n) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

func refFindPath(ew *World, start, goal world.Pos, nodeBudget int) ([]world.Pos, int) {
	if nodeBudget <= 0 {
		nodeBudget = 250
	}
	if start == goal {
		return []world.Pos{}, 0
	}

	open := &refHeap{}
	heap.Init(open)
	startNode := &refNode{pos: start, g: 0, f: start.ManhattanDist(goal)}
	heap.Push(open, startNode)
	visited := map[world.Pos]int{start: 0}
	expanded := 0

	var best *refNode // closest node to goal seen, as a fallback
	bestH := start.ManhattanDist(goal)

	for open.Len() > 0 && expanded < nodeBudget {
		cur := heap.Pop(open).(*refNode)
		expanded++
		if cur.pos == goal {
			return refReconstruct(cur), expanded
		}
		h := cur.pos.ManhattanDist(goal)
		if h < bestH {
			bestH, best = h, cur
		}
		for _, next := range refWalkableNeighbors(ew, cur.pos) {
			g := cur.g + 1
			if prev, ok := visited[next]; ok && prev <= g {
				continue
			}
			visited[next] = g
			heap.Push(open, &refNode{pos: next, g: g, f: g + next.ManhattanDist(goal), parent: cur})
		}
	}
	// Partial path toward the goal is still useful for wandering.
	if best != nil && best.g > 0 {
		return refReconstruct(best), expanded
	}
	return nil, expanded
}

func refReconstruct(n *refNode) []world.Pos {
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

func refWalkableNeighbors(ew *World, p world.Pos) []world.Pos {
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

// newHoleyWorld returns an entity world over noise terrain (7x7 chunks
// around the origin) with pits dug into it, so searches meet drops,
// step-ups, dead ends and the unloaded edge.
func newHoleyWorld(t *testing.T, rng *rand.Rand) *World {
	t.Helper()
	w := world.New(world.NewNoiseGenerator(7))
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	ew := NewWorld(w, cfg, 7)
	w.EnsureArea(world.Pos{}, 3)
	for i := 0; i < 120; i++ {
		x, z := rng.Intn(100)-50, rng.Intn(100)-50
		top := w.HighestSolidY(x, z)
		depth := 1 + rng.Intn(6)
		for dx := 0; dx < 1+rng.Intn(3); dx++ {
			for dz := 0; dz < 1+rng.Intn(3); dz++ {
				for y := top; y > top-depth && y > 1; y-- {
					w.SetBlock(world.Pos{X: x + dx, Y: y, Z: z + dz}, world.B(world.Air))
				}
			}
		}
	}
	return ew
}

// surfacePos returns a random standing position on the world's surface.
func surfacePos(ew *World, rng *rand.Rand) world.Pos {
	p := world.Pos{X: rng.Intn(112) - 56, Z: rng.Intn(112) - 56}
	p.Y = ew.surfaceAt(p)
	return p
}

// TestFindPathMatchesReference runs seeded searches of every budget class
// through the World's scratch, in an order that puts small searches right
// after large ones, and checks each against the reference A*: the same
// path (nil, empty or waypoints) and the same expanded count, both through
// FindPath and through findPath writing into one reused path slice.
func TestFindPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ew := newHoleyWorld(t, rng)
	budgets := []int{1, 10, 250, 2000}
	var dst []world.Pos
	for i := 0; i < 600; i++ {
		start := surfacePos(ew, rng)
		goal := surfacePos(ew, rng)
		switch i % 10 {
		case 3: // a nearby goal, as a wandering mob picks
			goal = world.Pos{X: start.X + rng.Intn(17) - 8, Z: start.Z + rng.Intn(17) - 8}
			goal.Y = ew.surfaceAt(goal)
		case 7:
			goal = start
		}
		budget := budgets[rng.Intn(len(budgets))]

		want, wantN := refFindPath(ew, start, goal, budget)
		got, gotN := ew.FindPath(start, goal, budget)
		if gotN != wantN || (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("search %d %v->%v budget %d: FindPath = %v (%d expanded), reference %v (%d)",
				i, start, goal, budget, got, gotN, want, wantN)
		}
		path, n, found := ew.findPath(dst[:0], start, goal, budget)
		if n != wantN || found != (want != nil) || !slices.Equal(path, want) {
			t.Fatalf("search %d %v->%v budget %d: findPath = %v (%d expanded, found %t), reference %v (%d)",
				i, start, goal, budget, path, n, found, want, wantN)
		}
		if found {
			dst = path
		}
	}
}

// TestFindPathAllocs: a warmed search into a path slice with room to spare
// allocates nothing.
func TestFindPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ew := newHoleyWorld(t, rng)
	start := world.Pos{X: -20, Z: -20}
	start.Y = ew.surfaceAt(start)
	goal := world.Pos{X: 20, Z: 20}
	goal.Y = ew.surfaceAt(goal)
	dst := make([]world.Pos, 0, 512)
	path, _, found := ew.findPath(dst, start, goal, 2000)
	if !found || len(path) == 0 {
		t.Fatal("no path on the test terrain")
	}
	if got := testing.AllocsPerRun(50, func() {
		ew.findPath(dst, start, goal, 2000)
	}); got != 0 {
		t.Fatalf("warmed findPath allocates %.1f times per search, want 0", got)
	}
}

// TestRestoreRejectsUnorderedPathMarks: path marks are written in strictly
// ascending (Z, X) order, so a section whose marks are out of order or
// repeated is corrupt.
func TestRestoreRejectsUnorderedPathMarks(t *testing.T) {
	a := pathMark{cp: world.ChunkPos{X: 1, Z: 0}, version: 3}
	b := pathMark{cp: world.ChunkPos{X: 0, Z: 1}, version: 5}
	for _, tc := range []struct {
		name  string
		marks []pathMark
		ok    bool
	}{
		{"ascending", []pathMark{a, b}, true},
		{"out-of-order", []pathMark{b, a}, false},
		{"duplicate", []pathMark{a, a}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, ew := newTestWorld(t)
			ew.SpawnMob(world.Pos{X: 15, Y: 11, Z: 15})
			e := ew.list[0]
			e.path = []world.Pos{{X: 16, Y: 11, Z: 15}, {X: 16, Y: 11, Z: 16}}
			e.pathVersions = tc.marks
			data := ew.AppendPersist(nil)

			fresh := NewWorld(w, ew.cfg, 1)
			err := fresh.RestorePersist(data)
			if !tc.ok {
				if !errors.Is(err, persist.ErrCorrupt) {
					t.Fatalf("restore = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := fresh.list[0].pathVersions; !slices.Equal(got, tc.marks) {
				t.Fatalf("restored marks %v, want %v", got, tc.marks)
			}
		})
	}
}

// BenchmarkFindPath is one mob-sized search (the default 250-node budget)
// on a warmed World.
func BenchmarkFindPath(b *testing.B) {
	w := world.New(world.NewNoiseGenerator(7))
	cfg := DefaultConfig()
	cfg.NaturalSpawning = false
	ew := NewWorld(w, cfg, 7)
	w.EnsureArea(world.Pos{}, 2)
	start := world.Pos{X: -12, Z: -10}
	start.Y = ew.surfaceAt(start)
	goal := world.Pos{X: 14, Z: 12}
	goal.Y = ew.surfaceAt(goal)
	dst, _, _ := ew.findPath(nil, start, goal, 250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _ = ew.findPath(dst[:0], start, goal, 250)
	}
}
