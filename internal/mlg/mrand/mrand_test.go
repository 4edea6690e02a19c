package mrand

import "testing"

// TestCanonicalVectors pins the splitmix64 reference outputs for seed 0:
// every stream in the engine is this generator, so these values are part of
// the golden table's contract.
func TestCanonicalVectors(t *testing.T) {
	s := New(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	if p := NewSource(0); p.Uint64() != 0xe220a8397b1dcdaf {
		t.Fatal("NewSource(0) and New(0) disagree")
	}
}

// TestDrawFormulas: Intn is the next value modulo n and Float64 its top 53
// bits scaled to [0, 1), draw for draw against a twin stream.
func TestDrawFormulas(t *testing.T) {
	a, b := New(0x5eed), New(0x5eed)
	for i := 0; i < 1000; i++ {
		n := 1 + i%257
		if got, want := a.Intn(n), int(b.Uint64()%uint64(n)); got != want {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, n, got, want)
		}
		f, u := a.Float64(), b.Uint64()
		if want := float64(u>>11) / (1 << 53); f != want || f < 0 || f >= 1 {
			t.Fatalf("draw %d: Float64 = %v, want %v", i, f, want)
		}
	}
}

// TestPosHash pins the block-position key: explosion rolls and entity spawn
// identities are seeded from it, so a change moves the golden table.
func TestPosHash(t *testing.T) {
	if got := PosHash(-20, 12, 7); got != 0xddf49eda9bae4e5c {
		t.Fatalf("PosHash(-20, 12, 7) = %#x, want 0xddf49eda9bae4e5c", got)
	}
	if PosHash(1, 2, 3) == PosHash(3, 2, 1) {
		t.Fatal("PosHash ignores axis order")
	}
}
