package world

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestBlockProperties(t *testing.T) {
	if !B(Stone).IsSolid() || B(Air).IsSolid() || B(Water).IsSolid() {
		t.Error("solidity wrong")
	}
	if !B(Water).IsFluid() || !B(Lava).IsFluid() || B(Stone).IsFluid() {
		t.Error("fluid classification wrong")
	}
	if !B(Sand).IsGravityAffected() || !B(Gravel).IsGravityAffected() || B(Stone).IsGravityAffected() {
		t.Error("gravity classification wrong")
	}
	if !B(RedstoneWire).IsRedstoneComponent() || B(Dirt).IsRedstoneComponent() {
		t.Error("redstone classification wrong")
	}
	if B(Glass).IsOpaque() || !B(Stone).IsOpaque() || B(Water).IsOpaque() {
		t.Error("opacity wrong")
	}
	if Stone.String() != "stone" || Air.String() != "air" {
		t.Error("block names wrong")
	}
	if BlockID(200).String() == "" {
		t.Error("out-of-range block name empty")
	}
}

func TestBlockPower(t *testing.T) {
	if got := B(RedstoneBlock).PowerOutput(); got != 15 {
		t.Errorf("redstone block power = %d, want 15", got)
	}
	if got := (Block{ID: RedstoneWire, Meta: 7}).PowerOutput(); got != 7 {
		t.Errorf("wire power = %d, want 7", got)
	}
	lit := Block{ID: RedstoneTorch, Meta: 1}
	if lit.PowerOutput() != 15 || B(RedstoneTorch).PowerOutput() != 0 {
		t.Error("torch power wrong")
	}
	rep := Block{ID: Repeater, Meta: 2} // delay bits = 2 -> 3 ticks
	if rep.RepeaterDelay() != 3 {
		t.Errorf("repeater delay = %d, want 3", rep.RepeaterDelay())
	}
	rep = rep.WithRepeaterPowered(true)
	if !rep.RepeaterPowered() || rep.PowerOutput() != 15 || rep.RepeaterDelay() != 3 {
		t.Error("repeater powered bit broken")
	}
	rep = rep.WithRepeaterPowered(false)
	if rep.RepeaterPowered() || rep.PowerOutput() != 0 {
		t.Error("repeater unpower broken")
	}
	obs := B(Observer).WithObserverPulse(true)
	if !obs.ObserverPulsing() || obs.PowerOutput() != 15 {
		t.Error("observer pulse broken")
	}
	pis := B(Piston).WithPistonExtended(true)
	if !pis.PistonExtended() {
		t.Error("piston extended bit broken")
	}
}

func TestPosHelpers(t *testing.T) {
	p := Pos{1, 2, 3}
	if p.Up() != (Pos{1, 3, 3}) || p.Down() != (Pos{1, 1, 3}) {
		t.Error("vertical neighbours wrong")
	}
	n := p.Neighbors6()
	if len(n) != 6 {
		t.Error("Neighbors6 wrong")
	}
	seen := map[Pos]bool{}
	for _, q := range n {
		if p.Dist2(q) != 1 {
			t.Errorf("neighbour %v not at distance 1", q)
		}
		seen[q] = true
	}
	if len(seen) != 6 {
		t.Error("duplicate neighbours")
	}
	if p.ManhattanDist(Pos{4, 0, 5}) != 7 {
		t.Error("manhattan wrong")
	}
}

func TestDirections(t *testing.T) {
	for _, d := range []Direction{DirUp, DirDown, DirNorth, DirSouth, DirEast, DirWest} {
		if d.Opposite().Opposite() != d {
			t.Errorf("double opposite of %v changed it", d)
		}
		p := Pos{10, 10, 10}
		q := d.Move(p)
		if d.Opposite().Move(q) != p {
			t.Errorf("move/unmove of %v not inverse", d)
		}
	}
}

func TestChunkPosAt(t *testing.T) {
	cases := []struct {
		p    Pos
		want ChunkPos
	}{
		{Pos{0, 0, 0}, ChunkPos{0, 0}},
		{Pos{15, 0, 15}, ChunkPos{0, 0}},
		{Pos{16, 0, 0}, ChunkPos{1, 0}},
		{Pos{-1, 0, -1}, ChunkPos{-1, -1}},
		{Pos{-16, 0, -17}, ChunkPos{-1, -2}},
	}
	for _, c := range cases {
		if got := ChunkPosAt(c.p); got != c.want {
			t.Errorf("ChunkPosAt(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if o := (ChunkPos{-1, 2}).Origin(); o != (Pos{-16, 0, 32}) {
		t.Errorf("Origin = %v", o)
	}
}

func TestChunkSetGet(t *testing.T) {
	c := NewChunk(ChunkPos{0, 0})
	if c.NonAirCount() != 0 {
		t.Fatal("new chunk not empty")
	}
	old := c.Set(3, 10, 5, B(Stone))
	if !old.IsAir() {
		t.Error("old block should be air")
	}
	if c.At(3, 10, 5).ID != Stone {
		t.Error("block not stored")
	}
	if c.NonAirCount() != 1 {
		t.Error("nonAir count wrong")
	}
	c.Set(3, 10, 5, B(Air))
	if c.NonAirCount() != 0 {
		t.Error("nonAir count not decremented")
	}
	// Out-of-range access is air / no-op.
	if !c.At(-1, 0, 0).IsAir() || !c.At(0, Height, 0).IsAir() {
		t.Error("out-of-range At should be air")
	}
	c.Set(0, -1, 0, B(Stone))
	if c.NonAirCount() != 0 {
		t.Error("out-of-range Set should be ignored")
	}
}

func TestChunkLighting(t *testing.T) {
	c := NewChunk(ChunkPos{0, 0})
	c.Set(4, 9, 4, B(Stone))
	c.RecomputeColumnLight(4, 4)
	if got := c.LightHorizon(4, 4); got != 10 {
		t.Errorf("horizon = %d, want 10", got)
	}
	c.Set(4, 30, 4, B(Stone))
	c.RecomputeColumnLight(4, 4)
	if got := c.LightHorizon(4, 4); got != 31 {
		t.Errorf("horizon = %d, want 31", got)
	}
	// Glass is transparent: horizon unchanged.
	c.Set(4, 40, 4, B(Glass))
	c.RecomputeColumnLight(4, 4)
	if got := c.LightHorizon(4, 4); got != 31 {
		t.Errorf("horizon through glass = %d, want 31", got)
	}
}

func TestWorldSetGetAcrossChunks(t *testing.T) {
	w := New(nil) // void world
	positions := []Pos{{0, 5, 0}, {100, 5, -200}, {-1, 5, -1}, {17, 63, 31}}
	for i, p := range positions {
		w.SetBlock(p, Block{ID: Stone, Meta: uint8(i)})
	}
	for i, p := range positions {
		got := w.Block(p)
		if got.ID != Stone || got.Meta != uint8(i) {
			t.Errorf("block at %v = %+v", p, got)
		}
	}
	// Vertical out-of-range.
	if !w.Block(Pos{0, -1, 0}).IsAir() || !w.Block(Pos{0, Height, 0}).IsAir() {
		t.Error("vertical out-of-range should be air")
	}
	w.SetBlock(Pos{0, -5, 0}, B(Stone)) // must not panic or store
	if !w.Block(Pos{0, -5, 0}).IsAir() {
		t.Error("negative-Y set stored")
	}
}

func TestWorldChangeListener(t *testing.T) {
	w := New(nil)
	var events []Pos
	w.OnChange(func(p Pos, old, new Block) {
		events = append(events, p)
		if old.ID == new.ID && old.Meta == new.Meta {
			t.Error("listener fired without change")
		}
	})
	w.SetBlock(Pos{1, 1, 1}, B(Stone))
	w.SetBlock(Pos{1, 1, 1}, B(Stone)) // identical: no event
	w.SetBlock(Pos{1, 1, 1}, B(Dirt))
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
}

func TestNoiseGeneratorDeterministic(t *testing.T) {
	g1 := NewNoiseGenerator(PaperControlSeed)
	g2 := NewNoiseGenerator(PaperControlSeed)
	c1 := NewChunk(ChunkPos{3, -2})
	c2 := NewChunk(ChunkPos{3, -2})
	g1.GenerateChunk(c1)
	g2.GenerateChunk(c2)
	if c1.blocks != c2.blocks {
		t.Fatal("generation not deterministic")
	}
	g3 := NewNoiseGenerator(42)
	c3 := NewChunk(ChunkPos{3, -2})
	g3.GenerateChunk(c3)
	if c1.blocks == c3.blocks {
		t.Fatal("different seeds produced identical chunks")
	}
}

func TestNoiseGeneratorTerrainShape(t *testing.T) {
	w := New(NewNoiseGenerator(PaperControlSeed))
	w.EnsureArea(Pos{0, 0, 0}, 3)
	sawWater, sawGrass, sawTree := false, false, false
	for _, c := range w.LoadedChunkRefs() {
		cp := c.Pos
		for lz := 0; lz < ChunkSize; lz++ {
			for lx := 0; lx < ChunkSize; lx++ {
				if c.At(lx, 0, lz).ID != Bedrock {
					t.Fatalf("no bedrock at bottom of %v", cp)
				}
				for y := 0; y < Height; y++ {
					switch c.At(lx, y, lz).ID {
					case Water:
						sawWater = true
					case Grass:
						sawGrass = true
					case Wood:
						sawTree = true
					}
				}
			}
		}
	}
	if !sawGrass {
		t.Error("no grass generated")
	}
	if !sawWater {
		t.Error("no water generated (seed should include depressions)")
	}
	if !sawTree {
		t.Error("no trees generated")
	}
}

func TestFlatGenerator(t *testing.T) {
	w := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	if got := w.Block(Pos{5, 10, 5}).ID; got != Grass {
		t.Errorf("surface = %v, want grass", got)
	}
	if got := w.Block(Pos{5, 9, 5}).ID; got != Stone {
		t.Errorf("subsurface = %v, want stone", got)
	}
	if !w.Block(Pos{5, 11, 5}).IsAir() {
		t.Error("above surface not air")
	}
	if got := w.HighestSolidY(5, 5); got != 10 {
		t.Errorf("highest solid = %d, want 10", got)
	}
}

func TestEnsureAreaCounts(t *testing.T) {
	w := New(&FlatGenerator{SurfaceY: 5})
	n := w.EnsureArea(Pos{0, 0, 0}, 2)
	if n != 25 {
		t.Fatalf("generated %d chunks, want 25", n)
	}
	if again := w.EnsureArea(Pos{0, 0, 0}, 2); again != 0 {
		t.Fatalf("regenerated %d chunks, want 0", again)
	}
	if w.ChunkCount() != 25 {
		t.Fatalf("chunk count = %d, want 25", w.ChunkCount())
	}
	gen, _, _ := w.Stats()
	if gen != 25 {
		t.Fatalf("stats generated = %d", gen)
	}
}

// TestSaveLoadRoundTrip gunzips Save's MLGW stream and decodes every chunk
// record with DecodeRLE, the decoder every real reader uses. The FNV-64a of
// the uncompressed stream pins the byte layout independently of the Go
// version's compress/flate output.
func TestSaveLoadRoundTrip(t *testing.T) {
	w := New(NewNoiseGenerator(7))
	w.EnsureArea(Pos{0, 0, 0}, 2)
	w.SetBlock(Pos{3, 40, 3}, Block{ID: RedstoneWire, Meta: 9})
	w.SetBlock(Pos{-20, 12, 7}, B(TNT))

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if got, want := h.Sum64(), uint64(0x905e5e13adaae090); got != want {
		t.Fatalf("MLGW stream FNV-64a = %#x, want %#x", got, want)
	}

	if len(raw) < 8 || binary.BigEndian.Uint32(raw) != saveMagic {
		t.Fatalf("missing MLGW header")
	}
	if n := int(binary.BigEndian.Uint32(raw[4:])); n != w.ChunkCount() {
		t.Fatalf("header counts %d chunks, world has %d", n, w.ChunkCount())
	}
	rest := raw[8:]
	for i := 0; i < w.ChunkCount(); i++ {
		if len(rest) < 8 {
			t.Fatalf("stream truncated before chunk header")
		}
		cp := ChunkPos{X: int32(binary.BigEndian.Uint32(rest)), Z: int32(binary.BigEndian.Uint32(rest[4:]))}
		rest = rest[8:]
		end := 0 // runs are 4 bytes with a non-zero count; 0x0000 terminates
		for end+1 < len(rest) && (rest[end] != 0 || rest[end+1] != 0) {
			end += 4
		}
		if end+2 > len(rest) {
			t.Fatalf("chunk %v: no run terminator", cp)
		}
		c := NewChunk(cp)
		if err := c.DecodeRLE(rest[:end]); err != nil {
			t.Fatalf("chunk %v: %v", cp, err)
		}
		rest = rest[end+2:]
		a := w.ChunkIfLoaded(cp)
		if a == nil {
			t.Fatalf("saved chunk %v is not loaded", cp)
		}
		if a.blocks != c.blocks || a.NonAirCount() != c.NonAirCount() {
			t.Fatalf("chunk %v differs after round trip", cp)
		}
		if cp == ChunkPosAt(Pos{3, 40, 3}) {
			if got := c.At(3, 40, 3); got.ID != RedstoneWire || got.Meta != 9 {
				t.Fatalf("block lost in round trip: %+v", got)
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last chunk", len(rest))
	}
}

func TestSaveDeterministicBytes(t *testing.T) {
	build := func() *World {
		w := New(NewNoiseGenerator(7))
		w.EnsureArea(Pos{0, 0, 0}, 1)
		return w
	}
	var a, b bytes.Buffer
	if err := build().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical worlds serialized differently")
	}
}

func TestSavedSize(t *testing.T) {
	w := New(NewNoiseGenerator(7))
	w.EnsureArea(Pos{0, 0, 0}, 4)
	size, err := w.SavedSize()
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("saved size not positive")
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != size {
		t.Fatalf("SavedSize %d != actual %d", size, buf.Len())
	}
}

// refFloorDiv and refFloorMod are floor division and modulo by ChunkSize
// written with Go's truncating operators: the reference for the shift and
// mask in ChunkPosAt and ChunkLocal.
func refFloorDiv(a int) int {
	q := a / ChunkSize
	if a%ChunkSize < 0 {
		q--
	}
	return q
}

func refFloorMod(a int) int {
	m := a % ChunkSize
	if m < 0 {
		m += ChunkSize
	}
	return m
}

// TestFloorDivModProperty: ChunkPosAt and ChunkLocal are floor division and
// floor modulo by ChunkSize (the chunk coordinate then truncated to int32),
// on chunk edges around zero, values near ±2³¹ and ±2⁶², the int extremes
// and random values; and floor division and modulo reconstruct the value.
func TestFloorDivModProperty(t *testing.T) {
	check := func(v int) bool {
		p := Pos{X: v, Y: 0, Z: -v}
		lx, lz := ChunkLocal(p)
		want := ChunkPos{X: int32(refFloorDiv(v)), Z: int32(refFloorDiv(-v))}
		return ChunkPosAt(p) == want && lx == refFloorMod(v) && lz == refFloorMod(-v)
	}
	for _, v := range []int{
		0, 1, 15, 16, 17, 31, 32, -1, -15, -16, -17, -31, -32, -33,
		1<<31 - 17, 1<<31 - 16, 1<<31 - 1, 1 << 31, 1<<31 + 15, 1<<31 + 16,
		-1<<31 + 1, -1 << 31, -1<<31 - 1, -1<<31 - 16, -1<<31 - 17,
		1<<62 - 1, 1 << 62, 1<<62 + 15, -1<<62 + 1, -1 << 62, -1<<62 - 1, -1<<62 - 17,
		math.MaxInt, math.MaxInt - 15, math.MinInt, math.MinInt + 15, math.MinInt + 16,
	} {
		if !check(v) {
			lx, _ := ChunkLocal(Pos{X: v})
			t.Errorf("x = %d: ChunkPosAt %v, ChunkLocal %d; want chunk %d, local %d",
				v, ChunkPosAt(Pos{X: v}), lx, int32(refFloorDiv(v)), refFloorMod(v))
		}
	}
	if err := quick.Check(func(a int64) bool { return check(int(a)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	reconstruct := func(a int32) bool {
		x := int(a)
		q, m := refFloorDiv(x), refFloorMod(x)
		return q*ChunkSize+m == x && m >= 0 && m < ChunkSize
	}
	if err := quick.Check(reconstruct, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: world Block/SetBlock round-trips arbitrary in-range positions.
func TestWorldRoundTripProperty(t *testing.T) {
	w := New(nil)
	f := func(x, z int16, y uint8, id uint8, meta uint8) bool {
		p := Pos{int(x), int(y) % Height, int(z)}
		b := Block{ID: BlockID(id % uint8(NumBlockIDs)), Meta: meta}
		w.SetBlock(p, b)
		return w.Block(p) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareOrders: ChunkPos.Compare is (Z, X) order and Pos.Compare is
// (Y, Z, X) order, with the sign of cmp.Compare, extreme coordinates
// included.
func TestCompareOrders(t *testing.T) {
	vals := []int32{math.MinInt32, -17, -1, 0, 1, 16, math.MaxInt32}
	firstNonZero := func(cs ...int) int {
		for _, c := range cs {
			if c != 0 {
				return c
			}
		}
		return 0
	}
	var chunks []ChunkPos
	var positions []Pos
	for _, z := range vals {
		for _, x := range vals {
			chunks = append(chunks, ChunkPos{X: x, Z: z})
			for _, y := range vals {
				positions = append(positions, Pos{X: int(x), Y: int(y), Z: int(z)})
			}
		}
	}
	for _, a := range chunks {
		for _, b := range chunks {
			want := firstNonZero(cmp.Compare(a.Z, b.Z), cmp.Compare(a.X, b.X))
			if got := a.Compare(b); got != want {
				t.Fatalf("%v.Compare(%v) = %d, want %d", a, b, got, want)
			}
		}
	}
	for _, p := range positions {
		for _, q := range positions {
			want := firstNonZero(cmp.Compare(p.Y, q.Y), cmp.Compare(p.Z, q.Z), cmp.Compare(p.X, q.X))
			if got := p.Compare(q); got != want {
				t.Fatalf("%v.Compare(%v) = %d, want %d", p, q, got, want)
			}
		}
	}
}
