package sim

import (
	"slices"
	"testing"

	"repro/internal/mlg/world"
)

// refRandomTicks is the random-tick pass without the barren-chunk skip:
// every owned chunk draws its rate samples from its stream and applies
// growth to each, whatever it holds.
func refRandomTicks(e *Engine, rate int) {
	for _, c := range e.w.LoadedChunkRefs() {
		if !e.ownsChunk(c.Pos) {
			continue
		}
		origin := c.Pos.Origin()
		st := chunkStream(e.seed, c.Pos, e.tick)
		for i := 0; i < rate; i++ {
			e.counters.RandomTicks++
			lx := st.Intn(world.ChunkSize)
			y := st.Intn(world.Height)
			lz := st.Intn(world.ChunkSize)
			p := world.Pos{X: origin.X + lx, Y: y, Z: origin.Z + lz}
			e.root.applyGrowth(p, c.At(lx, y, lz), &st)
		}
	}
}

// refTick is Engine.Tick with refRandomTicks in place of the engine's own
// pass. The pass runs last in Tick, so the engine ticks with random ticks
// off and the reference pass follows; only the tail Tick computes after
// its pass (light scans, backlog) is recomputed here.
func refTick(e *Engine) Counters {
	rate := e.cfg.RandomTickRate
	e.cfg.RandomTickRate = 0
	c := e.Tick()
	e.cfg.RandomTickRate = rate
	_, _, lightBefore := e.w.Stats()
	e.counters = Counters{}
	refRandomTicks(e, rate)
	_, _, lightAfter := e.w.Stats()
	c = c.Add(e.counters)
	c.LightScans += lightAfter - lightBefore
	c.Backlog = len(e.pending) + len(e.redstonePending)
	return c
}

const growthSeed = 7

// firstSample returns the block the chunk's first random-tick sample lands
// on at tick, and the stream's next Intn(32): the roll a sapling there
// would grow on when it is zero.
func firstSample(cp world.ChunkPos, tick int64) (world.Pos, int) {
	st := chunkStream(growthSeed, cp, tick)
	o := cp.Origin()
	lx := st.Intn(world.ChunkSize)
	y := st.Intn(world.Height)
	lz := st.Intn(world.ChunkSize)
	return world.Pos{X: o.X + lx, Y: y, Z: o.Z + lz}, st.Intn(32)
}

// growthWorld is a flat world of 7×7 chunks where three chunks are full of
// growing blocks (a wheat field, a kelp bed under water, a sapling
// nursery), chunk (2, 2) holds two lone wheat blocks, and every other chunk
// is barren. The lone wheat sit where the chunk's first sample lands at
// ticks 100 and 200, so they grow then.
func growthWorld(t *testing.T, owns func(world.ChunkPos) bool) (*world.World, *Engine) {
	t.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig()
	cfg.Owns = owns
	e := New(w, &mockEnts{}, cfg, growthSeed)
	w.EnsureArea(world.Pos{}, 3)
	fill := func(cp world.ChunkPos, y int, b world.Block) {
		o := cp.Origin()
		for dz := 0; dz < world.ChunkSize; dz++ {
			for dx := 0; dx < world.ChunkSize; dx++ {
				w.SetBlock(world.Pos{X: o.X + dx, Y: y, Z: o.Z + dz}, b)
			}
		}
	}
	fill(world.ChunkPos{X: 0, Z: 0}, 11, world.B(world.Wheat))
	fill(world.ChunkPos{X: -1, Z: 1}, 11, world.B(world.Kelp))
	fill(world.ChunkPos{X: -1, Z: 1}, 12, world.B(world.Water))
	fill(world.ChunkPos{X: -1, Z: 1}, 13, world.B(world.Water))
	fill(world.ChunkPos{X: 1, Z: -2}, 11, world.B(world.Sapling))
	for _, p := range loneWheat(t) {
		w.SetBlock(p, world.B(world.Wheat))
	}
	return w, e
}

// loneWheat returns the two wheat blocks of chunk (2, 2), which grow at
// ticks 100 and 200 and are broken one at a time mid-run.
func loneWheat(t *testing.T) [2]world.Pos {
	t.Helper()
	a, _ := firstSample(world.ChunkPos{X: 2, Z: 2}, 100)
	b, _ := firstSample(world.ChunkPos{X: 2, Z: 2}, 200)
	if a == b {
		t.Fatal("lone wheat share a block")
	}
	return [2]world.Pos{a, b}
}

// firstSapling returns the first sapling of the barren chunk (2, -1),
// planted at tick 150 where the chunk's first sample of a later tick
// lands and grows it.
func firstSapling(t *testing.T) world.Pos {
	t.Helper()
	for tick := int64(150); tick <= 600; tick++ {
		if p, roll := firstSample(world.ChunkPos{X: 2, Z: -1}, tick); roll == 0 {
			return p
		}
	}
	t.Fatal("no sample of chunk (2, -1) grows a sapling")
	return world.Pos{}
}

// TestBarrenChunkSkipMatchesSampling: an engine whose random-tick pass
// skips barren chunks ticks exactly like one that samples every owned
// chunk, counters and chunk states alike, every tick, in one world and in
// a shard that owns only part of it. Mid-run a barren chunk gains its
// first sapling and another chunk loses its last wheat.
func TestBarrenChunkSkipMatchesSampling(t *testing.T) {
	for _, tc := range []struct {
		name string
		owns func(world.ChunkPos) bool
	}{
		{"whole", nil},
		{"shard", func(cp world.ChunkPos) bool { return cp.X >= 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, e := growthWorld(t, tc.owns)
			rw, ref := growthWorld(t, tc.owns)
			wheat, sapling := loneWheat(t), firstSapling(t)
			var growth Counters
			for tick := 1; tick <= 600; tick++ {
				for _, pw := range []*world.World{w, rw} {
					switch tick {
					case 150:
						pw.SetBlock(sapling, world.B(world.Sapling))
					case 250:
						pw.SetBlock(wheat[0], world.B(world.Air))
					case 350:
						pw.SetBlock(wheat[1], world.B(world.Air))
					}
				}
				got, want := e.Tick(), refTick(ref)
				if got != want {
					t.Fatalf("tick %d counters:\nskip   %+v\nsample %+v", tick, got, want)
				}
				if gs, ws := w.ChunkStates(), rw.ChunkStates(); !slices.Equal(gs, ws) {
					t.Fatalf("tick %d chunk states diverged:\nskip   %v\nsample %v", tick, gs, ws)
				}
				growth = growth.Add(got)
			}
			if growth.GrowthOps == 0 {
				t.Fatal("nothing grew: the comparison covered no growth")
			}
			if want := 3 * 600 * owned(w, tc.owns); growth.RandomTicks != want {
				t.Fatalf("RandomTicks %d, want %d (every owned chunk's samples counted)", growth.RandomTicks, want)
			}
			for _, c := range []struct {
				p    world.Pos
				want int
			}{{sapling, 1}, {wheat[0], 0}} {
				if got := w.ChunkIfLoaded(world.ChunkPosAt(c.p)).GrowableCount(); got != c.want {
					t.Fatalf("chunk of %v: GrowableCount %d, want %d", c.p, got, c.want)
				}
			}
		})
	}
}

func owned(w *world.World, owns func(world.ChunkPos) bool) int {
	n := 0
	for _, c := range w.LoadedChunkRefs() {
		if owns == nil || owns(c.Pos) {
			n++
		}
	}
	return n
}
