package world

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// freshSum is the reference the scenario harness checks a chunk's memoized
// Sum against: FNV-64a over a fresh AppendRLE.
func freshSum(c *Chunk) uint64 {
	h := fnv.New64a()
	h.Write(c.AppendRLE(nil))
	return h.Sum64()
}

// TestSerializeChunkCache: repeat reads of an unchanged chunk must reuse
// the memoized payload; a terrain edit must invalidate it, leaving bytes
// handed out earlier intact; a no-op edit must not; and the payload must
// stay byte-identical to a fresh At-walk serialization.
func TestSerializeChunkCache(t *testing.T) {
	w := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	c := w.Chunk(ChunkPos{})

	d1 := c.Payload()
	if len(d1) == 0 {
		t.Fatal("empty payload")
	}
	if !bytes.Equal(d1, legacySerializeChunk(c)) {
		t.Fatal("payload differs from the reference At-walk serialization")
	}
	d2 := c.Payload()
	if &d1[0] != &d2[0] {
		t.Fatal("unchanged chunk re-serialized instead of reusing the memoized payload")
	}
	if c.Sum() != freshSum(c) {
		t.Fatal("memoized sum differs from a fresh encode")
	}
	kept := bytes.Clone(d2)

	w.SetBlock(Pos{X: 1, Y: 30, Z: 1}, B(Stone))
	d3 := c.Payload()
	if bytes.Equal(d2, d3) {
		t.Fatal("terrain edit did not invalidate the memoized payload")
	}
	if !bytes.Equal(d2, kept) {
		t.Fatal("refill overwrote a previously returned payload")
	}
	if !bytes.Equal(d3, legacySerializeChunk(c)) {
		t.Fatal("refilled payload differs from the reference serialization")
	}
	if c.Sum() != freshSum(c) {
		t.Fatal("refilled sum differs from a fresh encode")
	}
	// A no-op set (same block) must not invalidate.
	w.SetBlock(Pos{X: 1, Y: 30, Z: 1}, B(Stone))
	if d4 := c.Payload(); &d3[0] != &d4[0] {
		t.Fatal("no-op SetBlock invalidated the memoized payload")
	}
}

// legacySerializeChunk is the pre-cache reference implementation: an RLE
// walk through Chunk.At in Y-major order.
func legacySerializeChunk(c *Chunk) []byte {
	var buf bytes.Buffer
	var last Block
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		buf.Write([]byte{byte(count >> 8), byte(count), byte(last.ID), last.Meta})
	}
	for y := 0; y < Height; y++ {
		for z := 0; z < ChunkSize; z++ {
			for x := 0; x < ChunkSize; x++ {
				b := c.At(x, y, z)
				if b == last && count > 0 && count < 0xFFFF {
					count++
					continue
				}
				flush()
				last, count = b, 1
			}
		}
	}
	flush()
	return buf.Bytes()
}

// TestPayloadAllAirRevisionZero: an all-air chunk sits at revision 0, the
// memo's zero revision, yet its 4-byte payload is filled once and reused.
func TestPayloadAllAirRevisionZero(t *testing.T) {
	c := NewChunk(ChunkPos{X: 3, Z: -2})
	p1 := c.Payload()
	if want := []byte{0x40, 0x00, byte(Air), 0}; !bytes.Equal(p1, want) {
		t.Fatalf("all-air payload = %x, want %x", p1, want)
	}
	if c.Revision() != 0 {
		t.Fatalf("all-air chunk at revision %d, want 0", c.Revision())
	}
	if p2 := c.Payload(); &p1[0] != &p2[0] {
		t.Fatal("all-air chunk at revision 0 re-encoded on every read")
	}
	if c.Sum() != freshSum(c) {
		t.Fatal("all-air sum differs from a fresh encode")
	}
}

// TestPayloadDecodeInvalidates: replacing a chunk's contents with DecodeRLE
// or a halo ApplyMirror must invalidate its memo.
func TestPayloadDecodeInvalidates(t *testing.T) {
	src := NewChunk(ChunkPos{})
	src.Set(4, 20, 4, B(TNT))
	img := src.AppendRLE(nil)

	c := NewChunk(ChunkPos{})
	c.Payload()
	if err := c.DecodeRLE(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Payload(), img) || c.Sum() != src.Sum() {
		t.Fatal("DecodeRLE left the memo serving the old contents")
	}

	w := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	cp := ChunkPos{X: 1, Z: 1}
	before := w.Chunk(cp).Payload()
	if err := w.ApplyMirror(cp, img); err != nil {
		t.Fatal(err)
	}
	after := w.ChunkIfLoaded(cp).Payload()
	if bytes.Equal(before, after) || !bytes.Equal(after, img) {
		t.Fatal("ApplyMirror left the memo serving the old contents")
	}
}

// TestPayloadAfterRestoreSameRevision: a snapshot whose chunk carries the
// same revision number as the live chunk but different content must serve
// the restored bytes — restored chunks are new objects with empty memos.
func TestPayloadAfterRestoreSameRevision(t *testing.T) {
	cp := ChunkPos{}
	pos := Pos{X: 2, Y: 30, Z: 2}
	live := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	live.SetBlock(pos, B(Stone))
	stale := live.Chunk(cp).Payload()

	other := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	other.SetBlock(pos, B(Glass))
	want := other.Chunk(cp)
	if want.Revision() != live.Chunk(cp).Revision() {
		t.Fatalf("revisions differ: %d vs %d", want.Revision(), live.Chunk(cp).Revision())
	}

	if err := live.RestorePersist(other.AppendPersist(nil, nil)); err != nil {
		t.Fatal(err)
	}
	got := live.ChunkIfLoaded(cp)
	if got.Revision() != want.Revision() {
		t.Fatalf("restored revision %d, want %d", got.Revision(), want.Revision())
	}
	if bytes.Equal(got.Payload(), stale) || !bytes.Equal(got.Payload(), want.AppendRLE(nil)) {
		t.Fatal("restored chunk served the pre-restore payload")
	}
}

// TestUnbumpedWriteIsFlagged: writing blocks without advancing the revision
// is the one way to poison the memo. The memo keeps serving the old bytes,
// and the comparison the scenario harness makes — memoized Sum against a
// fresh encode — is what flags it.
func TestUnbumpedWriteIsFlagged(t *testing.T) {
	c := NewChunk(ChunkPos{})
	c.Set(0, 0, 0, B(Stone))
	if c.Sum() != freshSum(c) {
		t.Fatal("consistent chunk flagged")
	}
	old := bytes.Clone(c.Payload())
	c.blocks[blockIndex(5, 5, 5)] = B(Glass) // no rev++
	if !bytes.Equal(c.Payload(), old) {
		t.Fatal("memo refilled without a revision change")
	}
	if c.Sum() == freshSum(c) {
		t.Fatal("an unbumped write is invisible to the memo-vs-fresh comparison")
	}
}
