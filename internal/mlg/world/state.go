package world

// ChunkState is a compact fingerprint of one loaded chunk column: its
// position, mutation revision, occupancy, and the memoized FNV-64a sum of
// its payload (Chunk.Sum). The equivalence suites and the scenario harness
// compare chunk states between servers to prove terrain equality without
// diffing raw block arrays.
//
// Revision is a monotonic memo key, not simulation state: a rolled-back
// parallel drain advances it without changing contents (restored blocks
// re-encode to identical payloads), so two schedule-equivalent servers may
// legitimately disagree on Revision while agreeing on Sum. Cross-server
// comparisons must therefore key on (Pos, NonAir, Sum). Because Sum comes
// from the memo, content written without advancing the revision would keep
// reporting the stale sum; the scenario harness checks Sum against a fresh
// AppendRLE to catch exactly that.
type ChunkState struct {
	Pos      ChunkPos
	Revision uint64
	NonAir   int
	Sum      uint64
}

// ChunkStates returns the state fingerprint of every loaded chunk in the
// fixed (Z, X) order of LoadedChunks. Tick-goroutine callers only (it reads
// chunk contents without per-chunk locking, like the other whole-world
// accessors the equivalence suites use between ticks).
func (w *World) ChunkStates() []ChunkState {
	refs := w.LoadedChunkRefs()
	out := make([]ChunkState, 0, len(refs))
	for _, c := range refs {
		out = append(out, ChunkState{
			Pos:      c.Pos,
			Revision: c.Revision(),
			NonAir:   c.NonAirCount(),
			Sum:      c.Sum(),
		})
	}
	return out
}
