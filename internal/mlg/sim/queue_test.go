package sim

// Differential and retention tests for the update queues: the cursor drain
// with leftover compaction, the retained queue buffers the parallel merge
// writes into, and the bound on what a queue keeps across ticks.

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/mlg/world"
)

// fuseEnts is an entity store reduced to what closes the TNT loop: primed
// TNT is remembered with its detonation tick, and every operation is folded
// into an order-sensitive hash so twins can compare spawn order cheaply.
type fuseEnts struct {
	now   int64
	fuses []fuse
	ops   uint64
}

type fuse struct {
	pos world.Pos
	due int64
}

func (m *fuseEnts) note(kind byte, p world.Pos, v int) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x/%c%v/%d", m.ops, kind, p, v)
	m.ops = h.Sum64()
}

func (m *fuseEnts) SpawnPrimedTNT(p world.Pos, fuseTicks int) {
	m.note('t', p, fuseTicks)
	m.fuses = append(m.fuses, fuse{pos: p, due: m.now + int64(fuseTicks)})
}
func (m *fuseEnts) SpawnItem(p world.Pos, item world.BlockID) { m.note('i', p, int(item)) }
func (m *fuseEnts) SpawnMob(p world.Pos)                      { m.note('m', p, 0) }
func (m *fuseEnts) CollectItems(p world.Pos, r float64) int   { m.note('c', p, 0); return 0 }

// due removes and returns, in spawn order, the TNT detonating at m.now.
func (m *fuseEnts) due() []world.Pos {
	var out []world.Pos
	live := m.fuses[:0]
	for _, f := range m.fuses {
		if f.due <= m.now {
			out = append(out, f.pos)
		} else {
			live = append(live, f)
		}
	}
	m.fuses = live
	return out
}

// queueTwin is one engine of a differential pair plus what the test observes
// of it: the block-change event order (hashed) and the entity operations.
type queueTwin struct {
	w       *world.World
	e       *Engine
	ents    *fuseEnts
	cfg     Config
	changes uint64
}

func (q *queueTwin) listen() {
	q.w.OnChange(func(p world.Pos, old, nb world.Block) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%x/%v/%d.%d>%d.%d", q.changes, p, old.ID, old.Meta, nb.ID, nb.Meta)
		q.changes = h.Sum64()
	})
}

func newQueueTwin(cfg Config, build func(w *world.World, e *Engine)) *queueTwin {
	q := &queueTwin{
		w:    world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass}),
		ents: &fuseEnts{},
		cfg:  cfg,
	}
	q.e = New(q.w, q.ents, cfg, 42)
	q.listen()
	build(q.w, q.e)
	return q
}

// restart replaces the twin's world and engine with fresh ones restored from
// its own snapshot sections, as a server restart would.
func (q *queueTwin) restart(t *testing.T) {
	t.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	if err := w.RestorePersist(q.w.AppendPersist(nil, nil)); err != nil {
		t.Fatalf("world restore: %v", err)
	}
	e := New(w, q.ents, q.cfg, 42)
	if err := e.RestorePersist(q.e.AppendPersist(nil)); err != nil {
		t.Fatalf("engine restore: %v", err)
	}
	q.w, q.e = w, e
	q.listen()
}

// step runs one game tick and then the detonations it made due, the way the
// server routes the entity phase's explosions back into the engine.
func (q *queueTwin) step() Counters {
	q.ents.now = q.e.TickNumber() + 1
	c := q.e.Tick()
	if centers := q.ents.due(); len(centers) > 0 {
		_, ec := q.e.MergedExplosions(centers, ExplosionRadius)
		c = c.Add(ec)
	}
	return c
}

// buildLagX2 builds two lag machines 32 chunks apart (two simulation
// regions): grids of self-sustaining observer pairs, each driving two wire
// meshes that repower and depower on every pulse.
func buildLagX2(w *world.World, _ *Engine) {
	const y = 11
	for _, ox := range []int{0, 512} {
		w.EnsureArea(world.Pos{X: ox + 32, Y: 0, Z: 24}, 3)
		for cell := 0; cell < 6; cell++ {
			o := world.Pos{X: ox + cell%2*30, Y: y, Z: cell / 2 * 12}
			a := o.Add(11, 0, 4)
			b := a.East()
			for dz := 0; dz < 8; dz++ {
				for dx := 0; dx < 10; dx++ {
					w.SetBlock(world.Pos{X: a.X - 1 - dx, Y: y, Z: o.Z + dz}, world.B(world.RedstoneWire))
					w.SetBlock(world.Pos{X: b.X + 1 + dx, Y: y, Z: o.Z + dz}, world.B(world.RedstoneWire))
				}
			}
			w.SetBlock(a, world.B(world.Observer).WithFacing(world.DirEast))
			w.SetBlock(b, world.B(world.Observer).WithFacing(world.DirWest))
		}
	}
}

// buildTNTX2 builds two TNT cuboids 12 chunks apart, each under a sand lid
// and beside a water column so the craters keep cascading, and ignites both.
func buildTNTX2(w *world.World, e *Engine) {
	for _, ox := range []int{20, 212} {
		w.EnsureArea(world.Pos{X: ox, Y: 0, Z: 20}, 3)
		for y := 12; y < 18; y++ {
			for z := 20; z < 28; z++ {
				for x := ox; x < ox+8; x++ {
					w.SetBlock(world.Pos{X: x, Y: y, Z: z}, world.B(world.TNT))
				}
			}
		}
		for z := 20; z < 28; z++ {
			for x := ox; x < ox+8; x++ {
				w.SetBlock(world.Pos{X: x, Y: 18, Z: z}, world.B(world.Sand))
			}
		}
		w.SetBlock(world.Pos{X: ox - 2, Y: 16, Z: 24}, world.B(world.Water))
		e.ScheduleIgnite(world.Pos{X: ox + 4, Y: 15, Z: 24}, 1)
	}
}

// TestQueueDifferential runs serial and parallel twins of two-region Lag and
// TNT worlds for 200 ticks and requires, after every tick, identical
// counters, identical leftover queues (contents and order), identical
// block-change event order and identical entity-operation order. A sand
// sheet dropped mid-run overruns MaxUpdatesPerTick, so the run includes
// budget-exhausted ticks whose unconsumed remainder the drain moves to the
// front of the retained buffer; halfway through, every twin restarts from
// its own snapshot.
func TestQueueDifferential(t *testing.T) {
	for _, sc := range []struct {
		name   string
		budget int
		build  func(*world.World, *Engine)
	}{
		{"LagX2", 4000, buildLagX2},
		{"TNTX2", 30000, buildTNTX2},
	} {
		for _, workers := range []int{2, 4} {
			sc, workers := sc, workers
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MaxUpdatesPerTick = sc.budget
				cfg.SimWorkers = 1
				serial := newQueueTwin(cfg, sc.build)
				cfg.SimWorkers = workers
				parallel := newQueueTwin(cfg, sc.build)

				exhausted, retained := 0, 0
				for tick := 1; tick <= 200; tick++ {
					switch tick {
					case 60:
						// 16x16 floating sand, twice per twin: the fall
						// cascades outgrow the budget for a few ticks.
						for _, q := range []*queueTwin{serial, parallel} {
							for _, ox := range []int{40, 552} {
								for i := 0; i < 16*16; i++ {
									q.w.SetBlock(world.Pos{X: ox + i%16, Y: 20, Z: 40 + i/16}, world.B(world.Sand))
								}
							}
						}
					case 100:
						serial.restart(t)
						parallel.restart(t)
					}
					capBefore := cap(parallel.e.pending)
					cs, cp := serial.step(), parallel.step()
					if cs != cp {
						t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick, cs, cp)
					}
					if !slices.Equal(serial.e.pending, parallel.e.pending) {
						t.Fatalf("tick %d: leftover pending queues diverged (%d vs %d entries)",
							tick, len(serial.e.pending), len(parallel.e.pending))
					}
					if !slices.Equal(serial.e.redstonePending, parallel.e.redstonePending) {
						t.Fatalf("tick %d: leftover redstone queues diverged (%d vs %d entries)",
							tick, len(serial.e.redstonePending), len(parallel.e.redstonePending))
					}
					if serial.changes != parallel.changes {
						t.Fatalf("tick %d: block-change event order diverged", tick)
					}
					if serial.ents.ops != parallel.ents.ops {
						t.Fatalf("tick %d: entity operation order diverged", tick)
					}
					if cs.Backlog > 0 && cs.BlockUpdates >= sc.budget {
						exhausted++
					}
					if capBefore > 0 && cap(parallel.e.pending) == capBefore && parallel.e.ParallelStats().LastParallel {
						retained++
					}
				}
				if a, b := worldChecksum(serial.w), worldChecksum(parallel.w); a != b {
					t.Fatalf("world contents diverged: %#x vs %#x", a, b)
				}
				ps := parallel.e.ParallelStats()
				if ps.ParallelTicks == 0 {
					t.Fatalf("parallel twin never drained in parallel: %+v", ps)
				}
				if exhausted == 0 {
					t.Fatal("no tick exhausted the update budget: leftover compaction never ran")
				}
				if retained == 0 {
					t.Fatal("no parallel merge wrote its leftovers into the retained pending buffer")
				}
			})
		}
	}
}

// TestQueueRetentionBound: a queue that stays under the bound keeps its
// backing array from tick to tick (that is the point of the cursor drain),
// one that peaked above it gives the array back within a tick of emptying,
// and one that ends a tick under a quarter full shrinks to fit.
func TestQueueRetentionBound(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	w.EnsureArea(world.Pos{}, 1)
	cfg := DefaultConfig()
	cfg.SimWorkers = 1
	cfg.RandomTickRate = 0
	cfg.MaxUpdatesPerTick = 1 << 20
	e := New(w, &orderedEnts{}, cfg, 1)
	// Updates on air apply no rule: the drain just consumes them.
	fill := func(n int) {
		for i := 0; i < n; i++ {
			e.pending = append(e.pending, scheduledUpdate{pos: world.Pos{X: i % 16, Y: 40, Z: i / 16 % 16}})
		}
	}

	fill(queueRetainEntries / 2)
	kept := cap(e.pending)
	if c := e.Tick(); c.BlockUpdates != queueRetainEntries/2 || c.Backlog != 0 {
		t.Fatalf("small queue did not drain: %+v", c)
	}
	if cap(e.pending) != kept {
		t.Fatalf("queue under the bound lost its backing array: cap %d -> %d", kept, cap(e.pending))
	}

	fill(3 * queueRetainEntries)
	if cap(e.pending) <= queueRetainEntries {
		t.Fatalf("peak queue cap %d never exceeded the bound %d", cap(e.pending), queueRetainEntries)
	}
	if c := e.Tick(); c.Backlog != 0 {
		t.Fatalf("peak queue did not drain: %+v", c)
	}
	if cap(e.pending) > queueRetainEntries {
		t.Fatalf("emptied queue still holds %d entries of capacity (bound %d)", cap(e.pending), queueRetainEntries)
	}

	big := make([]scheduledUpdate, 1000, 8*queueRetainEntries)
	if got := trimQueue(big); len(got) != 1000 || cap(got) > queueRetainEntries {
		t.Fatalf("sparse queue trimmed to len %d cap %d", len(got), cap(got))
	}
	half := make([]scheduledUpdate, 4*queueRetainEntries, 8*queueRetainEntries)
	if got := trimQueue(half); cap(got) != cap(half) {
		t.Fatalf("half-full queue was reallocated: cap %d -> %d", cap(half), cap(got))
	}
}
