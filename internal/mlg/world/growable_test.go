package world

import (
	"math/rand"
	"testing"
)

// recountGrowable counts the chunk's wheat, kelp and sapling blocks from
// its block array.
func recountGrowable(c *Chunk) int {
	n := 0
	for _, b := range c.blocks {
		switch b.ID {
		case Wheat, Kelp, Sapling:
			n++
		}
	}
	return n
}

// TestGrowableCountStaysExact: a chunk's growable count equals a recount
// of its blocks after every Set of a random sequence, including meta-only
// changes, growable-to-growable swaps and out-of-range writes, and after
// every DecodeRLE, which replaces a chunk that held a count of its own.
func TestGrowableCountStaysExact(t *testing.T) {
	palette := []Block{
		{}, B(Stone), B(Water), B(Wood),
		B(Wheat), {ID: Wheat, Meta: 5},
		B(Kelp), {ID: Kelp, Meta: 15},
		B(Sapling),
	}
	rng := rand.New(rand.NewSource(38))
	a, b := NewChunk(ChunkPos{X: 1, Z: -2}), NewChunk(ChunkPos{X: 1, Z: -2})
	check := func(step int, c *Chunk, what string) {
		t.Helper()
		if got, want := c.GrowableCount(), recountGrowable(c); got != want {
			t.Fatalf("step %d, after %s: GrowableCount %d, recount %d", step, what, got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		// A 4×4×4 corner, with one coordinate sometimes out of range, so
		// most writes land on a block an earlier write set.
		lx, y, lz := rng.Intn(5)-1, rng.Intn(4), rng.Intn(4)
		a.Set(lx, y, lz, palette[rng.Intn(len(palette))])
		check(step, a, "Set")
		if step%500 == 499 {
			if err := b.DecodeRLE(a.AppendRLE(nil)); err != nil {
				t.Fatal(err)
			}
			check(step, b, "DecodeRLE")
			if b.GrowableCount() != a.GrowableCount() {
				t.Fatalf("step %d: decoded count %d, encoded chunk's %d", step, b.GrowableCount(), a.GrowableCount())
			}
			a, b = b, a
		}
	}
	if a.GrowableCount() == 0 {
		t.Fatal("the sequence ended with no growable block: nothing was counted")
	}
	for _, c := range workloadChunks() {
		check(0, c, "generation")
	}
}
