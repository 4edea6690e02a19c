package sim

// Engine-level serial-vs-parallel differential tests: two engines over
// identically constructed worlds, one with SimWorkers=1 (legacy serial
// drain) and one with SimWorkers=4, must stay bit-identical — world
// contents, per-tick counters, queue backlogs, spawn requests and schedule
// state. These are the fine-grained companions to the workload-level
// equivalence matrix in internal/core and internal/mlg/server.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mlg/world"
)

// worldChecksum hashes every loaded chunk's contents in deterministic order.
func worldChecksum(w *world.World) uint64 {
	h := fnv.New64a()
	for _, c := range w.LoadedChunkRefs() {
		fmt.Fprintf(h, "%v:", c.Pos)
		for y := 0; y < world.Height; y++ {
			for lz := 0; lz < world.ChunkSize; lz++ {
				for lx := 0; lx < world.ChunkSize; lx++ {
					b := c.At(lx, y, lz)
					if !b.IsAir() {
						fmt.Fprintf(h, "%d,%d,%d=%d/%d;", lx, y, lz, b.ID, b.Meta)
					}
				}
			}
		}
	}
	return h.Sum64()
}

// orderedEnts records every entity operation in call order, so spawn-order
// divergence between schedules is directly visible.
type orderedEnts struct {
	ops []string
}

func (m *orderedEnts) SpawnPrimedTNT(p world.Pos, fuse int) {
	m.ops = append(m.ops, fmt.Sprintf("tnt%v/%d", p, fuse))
}
func (m *orderedEnts) SpawnItem(p world.Pos, item world.BlockID) {
	m.ops = append(m.ops, fmt.Sprintf("item%v/%d", p, item))
}
func (m *orderedEnts) SpawnMob(p world.Pos) {
	m.ops = append(m.ops, fmt.Sprintf("mob%v", p))
}
func (m *orderedEnts) CollectItems(p world.Pos, r float64) int {
	m.ops = append(m.ops, fmt.Sprintf("collect%v", p))
	return 1
}

// buildBusyWorld installs several spatially separated active constructs —
// enough queued updates per tick to clear the parallel threshold, in
// clusters far enough apart to partition into multiple regions.
func buildBusyWorld(w *world.World) {
	// Three clusters, 16 chunks apart in X.
	for cluster := 0; cluster < 3; cluster++ {
		ox := cluster * 256
		y := 11
		// A powered wire mesh that keeps recomputing: an observer pair
		// (self-sustaining pulser) drives a 12x8 wire field.
		a := world.Pos{X: ox + 20, Y: y, Z: 8}
		b := a.East()
		for dz := 0; dz < 8; dz++ {
			for dx := 0; dx < 12; dx++ {
				w.SetBlock(world.Pos{X: ox + 4 + dx, Y: y, Z: 4 + dz}, world.B(world.RedstoneWire))
			}
		}
		w.SetBlock(a, world.B(world.Observer).WithFacing(world.DirEast))
		w.SetBlock(b, world.B(world.Observer).WithFacing(world.DirWest))
		// Fluids: a water source dropped on the platform keeps spreading
		// and drying as the cascade evolves.
		w.SetBlock(world.Pos{X: ox + 8, Y: y + 3, Z: 20}, world.B(world.Water))
		// Gravity: a sand stack.
		for dy := 0; dy < 6; dy++ {
			w.SetBlock(world.Pos{X: ox + 30, Y: y + 4 + dy, Z: 30}, world.B(world.Sand))
		}
		// TNT with power applied so ignition spawns entities.
		w.SetBlock(world.Pos{X: ox + 34, Y: y, Z: 8}, world.B(world.TNT))
		w.SetBlock(world.Pos{X: ox + 35, Y: y, Z: 8}, world.B(world.RedstoneBlock))
		// A harvesting piston clock (stone farm core).
		slot := world.Pos{X: ox + 40, Y: y, Z: 16}
		w.SetBlock(slot.North(), world.B(world.Water))
		w.SetBlock(slot.South(), world.B(world.Lava))
		w.SetBlock(slot.West(), world.B(world.Piston).WithFacing(world.DirEast))
		w.SetBlock(slot.West().West(), world.B(world.RedstoneBlock))
	}
}

func newDiffEngine(workers int) (*world.World, *Engine, *orderedEnts) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 3)
	w.EnsureArea(world.Pos{X: 256, Y: 0, Z: 8}, 3)
	w.EnsureArea(world.Pos{X: 512, Y: 0, Z: 8}, 3)
	ents := &orderedEnts{}
	cfg := DefaultConfig()
	cfg.SimWorkers = workers
	e := New(w, ents, cfg, 42)
	buildBusyWorld(w)
	return w, e, ents
}

func TestParallelTickMatchesSerial(t *testing.T) {
	ws, es, entsS := newDiffEngine(1)
	wp, ep, entsP := newDiffEngine(4)

	for tick := 0; tick < 80; tick++ {
		cs, cp := es.Tick(), ep.Tick()
		if cs != cp {
			t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick+1, cs, cp)
		}
		assertSameQueues(t, tick+1, es, ep)
	}
	if a, b := worldChecksum(ws), worldChecksum(wp); a != b {
		t.Fatalf("world contents diverged: %#x vs %#x", a, b)
	}
	if a, b := fmt.Sprint(entsS.ops), fmt.Sprint(entsP.ops); a != b {
		t.Fatalf("entity op sequences diverged:\nserial:   %s\nparallel: %s", a, b)
	}
	if got := ep.ParallelStats(); got.ParallelTicks == 0 {
		t.Fatalf("parallel engine never took the parallel path: %+v", got)
	}
	if got := es.ParallelStats(); got.ParallelTicks != 0 {
		t.Fatalf("serial engine took the parallel path: %+v", got)
	}
}

// assertSameQueues compares both update queues entry by entry: a parallel
// merge that drops, duplicates or reorders entries can keep the backlog
// length.
func assertSameQueues(t *testing.T, tick int, es, ep *Engine) {
	t.Helper()
	if !slices.Equal(es.pending, ep.pending) {
		t.Fatalf("tick %d: pending queues diverged (%d vs %d entries)", tick, len(es.pending), len(ep.pending))
	}
	if !slices.Equal(es.redstonePending, ep.redstonePending) {
		t.Fatalf("tick %d: redstone queues diverged (%d vs %d entries)",
			tick, len(es.redstonePending), len(ep.redstonePending))
	}
}

// newLagCellsEngine builds two lag-machine pulser cells 32 chunks apart,
// where the lag workload puts its scale-2 machines: an observer pair whose
// pulses repower a 10x10 wire mesh on each side. The two regions' dirty
// sets repeat from one pulse to the next, so steady ticks reuse remembered
// partitions.
func newLagCellsEngine(workers int) (*world.World, *Engine, *orderedEnts) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	ents := &orderedEnts{}
	cfg := DefaultConfig()
	cfg.SimWorkers = workers
	e := New(w, ents, cfg, 3)
	const side, y = 10, 11
	for _, ox := range []int{0, 512} {
		w.EnsureArea(world.Pos{X: ox + 12, Y: 0, Z: 4}, 3)
		a := world.Pos{X: ox + side + 1, Y: y, Z: side / 2}
		b := a.East()
		for dz := 0; dz < side; dz++ {
			for dx := 0; dx < side; dx++ {
				w.SetBlock(world.Pos{X: a.X - 1 - dx, Y: y, Z: dz}, world.B(world.RedstoneWire))
				w.SetBlock(world.Pos{X: b.X + 1 + dx, Y: y, Z: dz}, world.B(world.RedstoneWire))
			}
		}
		w.SetBlock(a, world.B(world.Observer).WithFacing(world.DirEast))
		w.SetBlock(b, world.B(world.Observer).WithFacing(world.DirWest))
	}
	return w, e, ents
}

// TestParallelLagCellsMatchSerial is the serial/parallel differential on
// the workload the remembered partitions serve: queue contents, counters
// and spawn order must match every tick, and most parallel ticks must reuse
// a remembered partition.
func TestParallelLagCellsMatchSerial(t *testing.T) {
	ws, es, entsS := newLagCellsEngine(1)
	wp, ep, entsP := newLagCellsEngine(4)
	for tick := 0; tick < 120; tick++ {
		cs, cp := es.Tick(), ep.Tick()
		if cs != cp {
			t.Fatalf("tick %d: counters diverged\nserial:   %+v\nparallel: %+v", tick+1, cs, cp)
		}
		assertSameQueues(t, tick+1, es, ep)
	}
	if a, b := worldChecksum(ws), worldChecksum(wp); a != b {
		t.Fatalf("world contents diverged: %#x vs %#x", a, b)
	}
	if a, b := fmt.Sprint(entsS.ops), fmt.Sprint(entsP.ops); a != b {
		t.Fatalf("entity op sequences diverged:\nserial:   %s\nparallel: %s", a, b)
	}
	st := ep.ParallelStats()
	// Odd ticks start with the mesh's ~140 queued updates and drain in
	// parallel; even ticks start below minParallelUpdates and stay serial.
	if st.ParallelTicks < 55 {
		t.Fatalf("parallel engine drained only %d of 120 ticks in parallel: %+v", st.ParallelTicks, st)
	}
	if hits := ep.part.hits; 2*hits <= st.ParallelTicks {
		t.Fatalf("only %d of %d parallel ticks reused a remembered partition", hits, st.ParallelTicks)
	}
}

// TestParallelEscapeFallsBackToSerial joins two active clusters with a long
// descending water staircase. Releasing a water source at the top makes the
// flow cascade down the whole staircase within single ticks (falling fluid
// resets its spread level at every drop), crossing chunks that were quiet
// at partition time — the cross-region effect that must be detected (write
// outside the owned set), rolled back, and re-run serially, with results
// identical to the pure-serial engine.
func TestParallelEscapeFallsBackToSerial(t *testing.T) {
	const top = 30
	build := func(workers int) (*world.World, *Engine) {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 3)
		w.EnsureArea(world.Pos{X: 144, Y: 0, Z: 0}, 3)
		cfg := DefaultConfig()
		cfg.SimWorkers = workers
		e := New(w, &orderedEnts{}, cfg, 7)
		y := 11
		// Two busy wire fields ~16 chunks apart...
		for _, ox := range []int{0, 144} {
			a := world.Pos{X: ox + 16, Y: y, Z: 8}
			for dz := 0; dz < 8; dz++ {
				for dx := 0; dx < 10; dx++ {
					w.SetBlock(world.Pos{X: ox + 4 + dx, Y: y, Z: 4 + dz}, world.B(world.RedstoneWire))
				}
			}
			w.SetBlock(a, world.B(world.Observer).WithFacing(world.DirEast))
			w.SetBlock(a.East(), world.B(world.Observer).WithFacing(world.DirWest))
		}
		// ...joined by a walled staircase channel descending eastward: one
		// floor drop every 4 blocks keeps the flow "falling", so it never
		// dries out mid-channel.
		sy := top
		for x := 32; x < 96; x += 4 {
			for i := 0; i < 4; i++ {
				w.SetBlock(world.Pos{X: x + i, Y: sy, Z: 8}, world.B(world.Stone))
				w.SetBlock(world.Pos{X: x + i, Y: sy + 1, Z: 7}, world.B(world.Glass))
				w.SetBlock(world.Pos{X: x + i, Y: sy + 1, Z: 9}, world.B(world.Glass))
				w.SetBlock(world.Pos{X: x + i, Y: sy + 2, Z: 7}, world.B(world.Glass))
				w.SetBlock(world.Pos{X: x + i, Y: sy + 2, Z: 9}, world.B(world.Glass))
			}
			sy--
		}
		return w, e
	}

	ws, es := build(1)
	wp, ep := build(4)
	step := func(e *Engine, n int) {
		for i := 0; i < n; i++ {
			e.Tick()
		}
	}
	step(es, 20)
	step(ep, 20)
	// Release the water at the top of the staircase.
	ws.SetBlock(world.Pos{X: 32, Y: top + 1, Z: 8}, world.B(world.Water))
	wp.SetBlock(world.Pos{X: 32, Y: top + 1, Z: 8}, world.B(world.Water))
	step(es, 20)
	step(ep, 20)

	if a, b := worldChecksum(ws), worldChecksum(wp); a != b {
		t.Fatalf("world contents diverged after escape: %#x vs %#x", a, b)
	}
	if got := ep.ParallelStats(); got.FallbackTicks == 0 {
		t.Fatalf("escape scenario never exercised the rollback path: %+v", got)
	}
}

// TestParallelMidDrainBudgetOverflow: the tick-start guard admits queues
// smaller than MaxUpdatesPerTick, but cascades can grow past the cap
// mid-drain. The merge replay must detect that the serial drain would have
// stopped popping (including pops that only re-route), abort, roll back and
// re-run serially — bit-identically to the pure-serial engine, which
// defers the overflow to later ticks.
func TestParallelMidDrainBudgetOverflow(t *testing.T) {
	build := func(workers int) (*world.World, *Engine) {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 2)
		w.EnsureArea(world.Pos{X: 256, Y: 0, Z: 0}, 2)
		cfg := DefaultConfig()
		cfg.SimWorkers = workers
		cfg.MaxUpdatesPerTick = 130
		e := New(w, &orderedEnts{}, cfg, 11)
		// 2 x 8 floating sand blocks: 112 queued updates at tick start
		// (under the 130 cap, so the parallel attempt starts), but the
		// fall cascade multiplies applied updates past the cap mid-drain.
		for _, ox := range []int{0, 256} {
			for i := 0; i < 8; i++ {
				w.SetBlock(world.Pos{X: ox + 2*i, Y: 20, Z: 4}, world.B(world.Sand))
			}
		}
		return w, e
	}
	ws, es := build(1)
	wp, ep := build(4)
	for tick := 0; tick < 50; tick++ {
		cs, cp := es.Tick(), ep.Tick()
		if cs != cp {
			t.Fatalf("tick %d: counters diverged after mid-drain overflow\nserial:   %+v\nparallel: %+v",
				tick+1, cs, cp)
		}
		assertSameQueues(t, tick+1, es, ep)
	}
	if a, b := worldChecksum(ws), worldChecksum(wp); a != b {
		t.Fatalf("world contents diverged: %#x vs %#x", a, b)
	}
	if got := ep.ParallelStats(); got.FallbackTicks == 0 {
		t.Fatalf("overflow scenario never exercised the budget rollback: %+v", got)
	}
}

// TestParallelBudgetPressureStaysSerial: when the queued updates approach
// MaxUpdatesPerTick, the cap's deferral order is order-dependent, so the
// engine must not attempt the parallel schedule — and results must match
// the serial engine exactly.
func TestParallelBudgetPressureStaysSerial(t *testing.T) {
	build := func(workers int) (*world.World, *Engine) {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		w.EnsureArea(world.Pos{X: 0, Y: 0, Z: 0}, 3)
		w.EnsureArea(world.Pos{X: 144, Y: 0, Z: 0}, 3)
		cfg := DefaultConfig()
		cfg.SimWorkers = workers
		cfg.MaxUpdatesPerTick = 40
		e := New(w, &orderedEnts{}, cfg, 9)
		for _, ox := range []int{0, 256} {
			for i := 0; i < 30; i++ {
				w.SetBlock(world.Pos{X: ox + i, Y: 20, Z: 4}, world.B(world.Sand))
			}
		}
		return w, e
	}
	ws, es := build(1)
	wp, ep := build(4)
	for tick := 0; tick < 60; tick++ {
		cs, cp := es.Tick(), ep.Tick()
		if cs != cp {
			t.Fatalf("tick %d: counters diverged under budget pressure\nserial:   %+v\nparallel: %+v",
				tick+1, cs, cp)
		}
	}
	if a, b := worldChecksum(ws), worldChecksum(wp); a != b {
		t.Fatalf("world contents diverged: %#x vs %#x", a, b)
	}
	if got := ep.ParallelStats(); got.ParallelTicks != 0 {
		t.Fatalf("parallel path ran despite budget pressure: %+v", got)
	}
}

// perEntryPlan is the merge replay with one region tag per virtual-queue
// entry, the form buildMergePlan had before its tag sequences became runs.
// It is the oracle for TestMergePlanRunsMatchPerEntry.
type perEntryPlan struct {
	regions                   []*regionRun
	applied                   int
	vp, vr, leftover          []int32
	logIdx, pIdx, rIdx, evIdx []int
	events                    []*event
	pendTags, redTags         []int32
}

func (m *perEntryPlan) pop(tag int32, fromPending bool) (logRec, bool) {
	if fromPending {
		m.pIdx[tag]++
	} else {
		m.rIdx[tag]++
	}
	log := m.regions[tag].log
	if m.logIdx[tag] >= len(log) {
		return logRec{}, false
	}
	rec := log[m.logIdx[tag]]
	m.logIdx[tag]++
	return rec, true
}

func (m *perEntryPlan) expand(tag int32, rec logRec, pendSink *[]int32) {
	m.applied++
	for i := 0; i < int(rec.np); i++ {
		*pendSink = append(*pendSink, tag)
	}
	for i := 0; i < int(rec.nr); i++ {
		m.vr = append(m.vr, tag)
	}
	evs := m.regions[tag].events
	for i := 0; i < int(rec.ne); i++ {
		m.events = append(m.events, &evs[m.evIdx[tag]])
		m.evIdx[tag]++
	}
}

func (m *perEntryPlan) build(regions []*regionRun, vpInit, vrInit []int32, evenTick bool, budget int) bool {
	n := len(regions)
	*m = perEntryPlan{regions: regions,
		vp: slices.Clone(vpInit), vr: slices.Clone(vrInit),
		logIdx: make([]int, n), pIdx: make([]int, n), rIdx: make([]int, n), evIdx: make([]int, n)}
	for h := 0; h < len(m.vp); h++ {
		if m.applied >= budget {
			return false
		}
		tag := m.vp[h]
		rec, ok := m.pop(tag, true)
		if !ok {
			return false
		}
		if !rec.applied {
			m.vr = append(m.vr, tag)
			continue
		}
		m.expand(tag, rec, &m.vp)
	}
	for i, r := range regions {
		if m.pIdx[i] != r.pendPops {
			return false
		}
	}
	if evenTick {
		for h := 0; h < len(m.vr); h++ {
			if m.applied >= budget {
				return false
			}
			tag := m.vr[h]
			rec, ok := m.pop(tag, false)
			if !ok || !rec.applied {
				return false
			}
			m.expand(tag, rec, &m.leftover)
		}
		for i, r := range regions {
			if m.rIdx[i] != r.redPops || m.logIdx[i] != len(r.log) || m.evIdx[i] != len(r.events) {
				return false
			}
		}
		m.pendTags = m.leftover
	} else {
		for i, r := range regions {
			if r.redPops != 0 || m.logIdx[i] != len(r.log) || m.evIdx[i] != len(r.events) {
				return false
			}
		}
		m.redTags = m.vr
	}
	return true
}

// materializeTags is the per-entry materialize.
func materializeTags(regions []*regionRun, tags []int32, cursor []int, queueOf func(*regionRun) []scheduledUpdate) []scheduledUpdate {
	dst := []scheduledUpdate{}
	for _, tag := range tags {
		dst = append(dst, queueOf(regions[tag])[cursor[tag]])
		cursor[tag]++
	}
	return dst
}

// runsOf is the run-length form of a tag sequence.
func runsOf(tags []int32) []tagRun {
	var runs []tagRun
	for _, tag := range tags {
		runs = appendRun(runs, tag, 1)
	}
	return runs
}

// randomRegionLogs simulates region drains without rules: every region
// drains its local queues, logging per pop a reroute (pending drain only)
// or an applied update with random child and event counts, as
// regionRun.drainQueue would. The initial tags interleave the regions in
// random runs. With one region the only run is the queue's tail and
// extends itself.
func randomRegionLogs(rng *rand.Rand, nRegions int, evenTick bool) (regions []*regionRun, vpInit, vrInit []int32) {
	for r := 0; r < nRegions; r++ {
		regions = append(regions, &regionRun{})
	}
	interleave := func(counts []int) []int32 {
		var tags []int32
		left := slices.Clone(counts)
		for total := 0; ; {
			total = 0
			for _, c := range left {
				total += c
			}
			if total == 0 {
				return tags
			}
			r := rng.Intn(nRegions)
			for k := 1 + rng.Intn(6); k > 0 && left[r] > 0; k-- {
				tags = append(tags, int32(r))
				left[r]--
			}
		}
	}
	p0, r0 := make([]int, nRegions), make([]int, nRegions)
	for r := range p0 {
		p0[r], r0[r] = rng.Intn(8), rng.Intn(6)
	}
	vpInit, vrInit = interleave(p0), interleave(r0)
	children := func(q int, max int) int {
		if q > 60 || rng.Intn(3) == 0 {
			return 0 // zero-child pops, and a bound on the cascade
		}
		return rng.Intn(max + 1)
	}
	for ri, r := range regions {
		pend, red := p0[ri], r0[ri]
		for ; r.pendPops < pend; r.pendPops++ {
			if rng.Intn(5) == 0 {
				red++
				r.log = append(r.log, logRec{})
				continue
			}
			rec := logRec{applied: true, np: uint16(children(pend, 3)), nr: uint16(children(red, 2)), ne: uint16(rng.Intn(3))}
			pend += int(rec.np)
			red += int(rec.nr)
			r.log = append(r.log, rec)
			for k := 0; k < int(rec.ne); k++ {
				r.events = append(r.events, event{pos: world.Pos{X: ri, Y: len(r.events)}})
			}
		}
		if evenTick {
			for ; r.redPops < red; r.redPops++ {
				rec := logRec{applied: true, np: uint16(children(0, 2)), nr: uint16(children(red, 2)), ne: uint16(rng.Intn(3))}
				pend += int(rec.np)
				red += int(rec.nr)
				r.log = append(r.log, rec)
				for k := 0; k < int(rec.ne); k++ {
					r.events = append(r.events, event{pos: world.Pos{X: ri, Y: len(r.events)}})
				}
			}
		}
		for k := 0; k < pend; k++ {
			r.pendingQ = append(r.pendingQ, scheduledUpdate{pos: world.Pos{X: ri, Y: k}})
		}
		for k := 0; k < red; k++ {
			r.redstoneQ = append(r.redstoneQ, scheduledUpdate{pos: world.Pos{X: ri, Y: k}, kind: updateObserverFire})
		}
	}
	return regions, vpInit, vrInit
}

// TestMergePlanRunsMatchPerEntry: the run-length merge replay reaches the
// per-entry replay's decision, applied count, event order and leftover
// queues on random region logs — reroutes, zero-child pops, tail runs that
// extend themselves, budgets that cut inside a run, and logs made
// inconsistent on purpose.
func TestMergePlanRunsMatchPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	e := New(world.New(nil), &orderedEnts{}, DefaultConfig(), 1)
	var aborts, cuts, oks int
	for trial := 0; trial < 3000; trial++ {
		evenTick := rng.Intn(2) == 0
		regions, vpInit, vrInit := randomRegionLogs(rng, 1+rng.Intn(4), evenTick)
		applied := 0
		for _, r := range regions {
			for _, rec := range r.log {
				if rec.applied {
					applied++
				}
			}
		}
		budget := applied + 1 + rng.Intn(3)
		if rng.Intn(3) == 0 {
			budget = rng.Intn(applied + 1)
			cuts++
		}
		switch r := regions[rng.Intn(len(regions))]; rng.Intn(8) {
		case 0:
			if len(r.log) > 0 {
				r.log = r.log[:rng.Intn(len(r.log))]
			}
		case 1:
			// A reroute on the redstone drain. (A flip on the pending drain
			// can leave a log no drain writes that both replays accept.)
			if len(r.log) > r.pendPops {
				r.log[r.pendPops+rng.Intn(len(r.log)-r.pendPops)].applied = false
			}
		case 2:
			r.pendPops++
		}

		var want perEntryPlan
		wantOK := want.build(regions, vpInit, vrInit, evenTick, budget)
		gotOK := e.buildMergePlan(regions, runsOf(vpInit), runsOf(vrInit), evenTick, budget)
		if gotOK != wantOK || e.plan.applied != want.applied {
			t.Fatalf("trial %d: ok %v applied %d, per-entry ok %v applied %d",
				trial, gotOK, e.plan.applied, wantOK, want.applied)
		}
		if !gotOK {
			aborts++
			continue
		}
		oks++
		var events []*event
		next := make([]int, len(regions))
		for _, run := range e.plan.events {
			for k := int32(0); k < run.n; k++ {
				events = append(events, &regions[run.region].events[next[run.region]])
				next[run.region]++
			}
		}
		if !slices.Equal(events, want.events) {
			t.Fatalf("trial %d: event order differs from the per-entry replay", trial)
		}
		pendQ := func(r *regionRun) []scheduledUpdate { return r.pendingQ }
		redQ := func(r *regionRun) []scheduledUpdate { return r.redstoneQ }
		for _, c := range []struct {
			name      string
			runs      []tagRun
			tags      []int32
			cur, wcur []int
			queueOf   func(*regionRun) []scheduledUpdate
		}{
			{"pending", e.plan.pendTags, want.pendTags, e.plan.pIdx, want.pIdx, pendQ},
			{"redstone", e.plan.redTags, want.redTags, e.plan.rIdx, want.rIdx, redQ},
		} {
			got := materialize([]scheduledUpdate{}, regions, c.runs, slices.Clone(c.cur), c.queueOf)
			if w := materializeTags(regions, c.tags, slices.Clone(c.wcur), c.queueOf); !slices.Equal(got, w) {
				t.Fatalf("trial %d: leftover %s queue %v, per-entry %v", trial, c.name, got, w)
			}
		}
	}
	if aborts < 300 || oks < 300 || cuts < 300 {
		t.Fatalf("weak sample: %d aborts, %d merged, %d budget cuts", aborts, oks, cuts)
	}
}
