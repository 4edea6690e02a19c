package world

// Fuzz and round-trip coverage for the chunk RLE wire codec: AppendRLE is
// what the server streams on join (and caches per revision), DecodeRLE is
// its inverse. The fuzz target must never panic on malformed bytes, and any
// payload it accepts must re-encode canonically.

import (
	"bytes"
	"testing"
)

// workloadChunks returns chunks representative of the real benchmark
// worlds: noise terrain (Control/Players), flat construction arena, and a
// mutated arena with the block variety of an active construct area.
func workloadChunks() []*Chunk {
	noise := New(NewNoiseGenerator(PaperControlSeed))
	noise.EnsureArea(Pos{X: 8, Z: 8}, 1)
	flat := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	flat.EnsureArea(Pos{X: 8, Z: 8}, 0)
	flat.SetBlock(Pos{X: 3, Y: 11, Z: 3}, B(RedstoneWire))
	flat.SetBlock(Pos{X: 4, Y: 11, Z: 3}, Block{ID: Water, Meta: 2})
	flat.SetBlock(Pos{X: 5, Y: 11, Z: 3}, B(TNT))
	flat.SetBlock(Pos{X: 6, Y: 11, Z: 3}, B(Hopper))
	flat.SetBlock(Pos{X: 6, Y: 12, Z: 3}, Block{ID: Kelp, Meta: 9})

	var out []*Chunk
	for _, w := range []*World{noise, flat} {
		out = append(out, w.LoadedChunkRefs()...)
	}
	return out
}

func TestChunkRLERoundTrip(t *testing.T) {
	for _, c := range workloadChunks() {
		payload := c.AppendRLE(nil)
		dec := NewChunk(c.Pos)
		if err := dec.DecodeRLE(payload); err != nil {
			t.Fatalf("chunk %v: decode of real payload failed: %v", c.Pos, err)
		}
		for y := 0; y < Height; y++ {
			for lz := 0; lz < ChunkSize; lz++ {
				for lx := 0; lx < ChunkSize; lx++ {
					if got, want := dec.At(lx, y, lz), c.At(lx, y, lz); got != want {
						t.Fatalf("chunk %v: block (%d,%d,%d) = %v, want %v", c.Pos, lx, y, lz, got, want)
					}
				}
			}
		}
		if got, want := dec.NonAirCount(), c.NonAirCount(); got != want {
			t.Fatalf("chunk %v: nonAir %d, want %d", c.Pos, got, want)
		}
		if got, want := dec.HighestSolidY(8, 8), c.HighestSolidY(8, 8); got != want {
			t.Fatalf("chunk %v: highest solid %d, want %d", c.Pos, got, want)
		}
		if reenc := dec.AppendRLE(nil); !bytes.Equal(reenc, payload) {
			t.Fatalf("chunk %v: re-encode not byte-identical (%d vs %d bytes)", c.Pos, len(reenc), len(payload))
		}
	}
}

func TestChunkRLERejectsMalformed(t *testing.T) {
	valid := workloadChunks()[0].AppendRLE(nil)
	cases := map[string][]byte{
		"empty":           {},
		"truncated run":   valid[:len(valid)-2],
		"zero count":      append([]byte{0, 0, 1, 0}, valid...),
		"underfill":       valid[:4],
		"overflow":        append(append([]byte{}, valid...), 0xFF, 0xFF, 1, 0),
		"trailing excess": append(append([]byte{}, valid...), 0, 1, 1, 0),
	}
	for name, data := range cases {
		if err := NewChunk(ChunkPos{}).DecodeRLE(data); err == nil {
			t.Errorf("%s: malformed payload accepted", name)
		}
	}
}

// FuzzChunkRLE feeds arbitrary bytes to the decoder (it must reject or
// accept without panicking) and checks accepted payloads re-encode to a
// decode-identical canonical form. Corpus seeds come from real workload
// chunks.
func FuzzChunkRLE(f *testing.F) {
	for _, c := range workloadChunks() {
		f.Add(c.AppendRLE(nil))
	}
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{0xFF, 0xFF, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewChunk(ChunkPos{})
		if err := c.DecodeRLE(data); err != nil {
			return
		}
		// Accepted: the canonical re-encoding must decode to the same
		// contents and stable derived state.
		reenc := c.AppendRLE(nil)
		c2 := NewChunk(ChunkPos{})
		if err := c2.DecodeRLE(reenc); err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if c.NonAirCount() != c2.NonAirCount() {
			t.Fatalf("nonAir diverged: %d vs %d", c.NonAirCount(), c2.NonAirCount())
		}
		if c.GrowableCount() != c2.GrowableCount() || c.GrowableCount() != recountGrowable(c) {
			t.Fatalf("growable count diverged: %d vs %d, recount %d", c.GrowableCount(), c2.GrowableCount(), recountGrowable(c))
		}
		for i := 0; i < ChunkSize; i++ {
			if c.HighestSolidY(i, i) != c2.HighestSolidY(i, i) {
				t.Fatalf("column %d solid height diverged", i)
			}
		}
		if !bytes.Equal(reenc, c2.AppendRLE(nil)) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
