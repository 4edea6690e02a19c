package world

import "testing"

// TestAppendPersistAllocs: snapshotting into a warm buffer allocates
// nothing, full or incremental — the chunk order comes from the cached
// LoadedChunkRefs view, not from a per-snapshot sorted copy — and the
// section decodes to exactly the chunks written.
func TestAppendPersistAllocs(t *testing.T) {
	w := New(NewNoiseGenerator(PaperControlSeed))
	w.EnsureArea(Pos{}, 3)
	base := w.ChunkRevisions()
	w.SetBlock(Pos{X: 1, Y: 40, Z: 1}, B(Stone))
	buf := w.AppendPersist(nil, nil)
	for _, tc := range []struct {
		name  string
		since map[ChunkPos]uint64
		want  int
	}{
		{"full", nil, w.ChunkCount()},
		{"incremental", base, 1},
	} {
		allocs := testing.AllocsPerRun(20, func() { buf = w.AppendPersist(buf[:0], tc.since) })
		if allocs != 0 {
			t.Errorf("%s: AppendPersist into a warm buffer made %v allocations, want 0", tc.name, allocs)
		}
		dec, err := decodeWorldSection(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(dec.chunks) != tc.want {
			t.Errorf("%s: decoded %d chunks, want %d", tc.name, len(dec.chunks), tc.want)
		}
	}
}
