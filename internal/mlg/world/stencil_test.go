package world

import "testing"

// stencilWorld loads the chunks around the origin, out to chunk distance 2,
// except a few, and fills each loaded chunk with position-hashed blocks so
// that neighbouring cells differ.
func stencilWorld() *World {
	unloaded := map[ChunkPos]bool{
		{1, 0}: true, {-1, -1}: true, // inside the 3×3 area
		{2, -1}: true, {0, -2}: true, {-2, 1}: true, {1, 2}: true, // on the ring around it
	}
	w := New(nil)
	for cz := int32(-2); cz <= 2; cz++ {
		for cx := int32(-2); cx <= 2; cx++ {
			cp := ChunkPos{cx, cz}
			if unloaded[cp] {
				continue
			}
			c := w.Chunk(cp)
			for y := 0; y < Height; y++ {
				for lz := 0; lz < ChunkSize; lz++ {
					for lx := 0; lx < ChunkSize; lx++ {
						h := uint32(int(cx)*7919+lx*31+y*131+int(cz)*104729+lz*17) * 2654435761
						c.Set(lx, y, lz, Block{ID: BlockID(h>>24) % NumBlockIDs, Meta: uint8(h >> 8)})
					}
				}
			}
		}
	}
	return w
}

// TestStencilMatchesBlockIfLoaded: Stencil returns exactly what seven
// World.BlockIfLoaded calls return, at every position of the 3×3 chunks
// around the origin: negative coordinates, every chunk edge, two unloaded
// chunks inside the area and some beside it, and y = -1 and 64 outside the
// world as well as 0 and 63 on its edges. It holds through both the
// world-backed and the fixed-index cache.
func TestStencilMatchesBlockIfLoaded(t *testing.T) {
	w := stencilWorld()
	for _, tc := range []struct {
		name string
		cc   ChunkCache
	}{
		{"world", NewChunkCache(w)},
		{"fixed", NewFixedChunkCache(w.chunks)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.cc
			// Every call starts from a stale stencil, so a cell Stencil
			// leaves unwritten shows.
			junk := Stencil{Block: B(Bedrock), Nb: [6]Block{B(Bedrock), B(Bedrock), B(Bedrock), B(Bedrock), B(Bedrock), B(Bedrock)}}
			bad := 0
			for y := -1; y <= Height; y++ {
				for z := -ChunkSize; z < 2*ChunkSize; z++ {
					for x := -ChunkSize; x < 2*ChunkSize; x++ {
						p := Pos{x, y, z}
						s := junk
						cc.Stencil(p, &s)
						var want Stencil
						want.Block, want.Loaded = w.BlockIfLoaded(p)
						for d, n := range p.Neighbors6() {
							want.Nb[d], want.NbLoaded[d] = w.BlockIfLoaded(n)
						}
						if s != want {
							if bad++; bad <= 5 {
								t.Errorf("Stencil(%v) = %+v, want %+v", p, s, want)
							}
						}
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d positions differ", bad)
			}
		})
	}
}

// TestStencilAllocs: a stencil read makes no allocation, inside a chunk, on
// its edges and corners, at the world's top and bottom and beside an
// unloaded chunk.
func TestStencilAllocs(t *testing.T) {
	cc := NewChunkCache(stencilWorld())
	var s Stencil
	for _, p := range []Pos{{5, 30, 5}, {0, 0, 0}, {15, 63, 15}, {-1, 10, -16}, {15, 20, 3}, {-17, -1, 4}} {
		if allocs := testing.AllocsPerRun(100, func() { cc.Stencil(p, &s) }); allocs != 0 {
			t.Errorf("Stencil(%v): %v allocations, want 0", p, allocs)
		}
	}
}
