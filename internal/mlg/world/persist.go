package world

import (
	"fmt"
	"sort"

	"repro/internal/mlg/persist"
)

// World section codec for the MLGP save format (internal/mlg/persist). The
// payload is the world's counters plus a sorted run of chunk records:
//
//	u64 generated | u64 setCount | u64 lightScans | u32 nChunks
//	per chunk: i32 X | i32 Z | u64 revision | bytes(RLE blocks)
//
// A full snapshot carries every loaded chunk; an incremental carries only
// chunks whose revision moved past the base snapshot's (plus chunks
// generated since). Revisions are saved and restored verbatim so
// incremental snapshot bases and ChunkState observe the same values a
// never-restarted server would. Restored chunks are new objects, so their
// encoding memos start empty and refill from the restored blocks.

// ChunkRevisions captures the revision of every loaded chunk — the base
// map an incremental snapshot is later computed against.
func (w *World) ChunkRevisions() map[ChunkPos]uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	revs := make(map[ChunkPos]uint64, len(w.chunks))
	for cp, c := range w.chunks {
		revs[cp] = c.rev
	}
	return revs
}

// AppendPersist appends the world section payload to dst. With
// changedSince nil every loaded chunk is written (a full snapshot);
// otherwise only chunks new or revised since that base are written (an
// incremental delta). Counters are always the current totals.
func (w *World) AppendPersist(dst []byte, changedSince map[ChunkPos]uint64) []byte {
	w.mu.RLock()
	defer w.mu.RUnlock()
	chunks := make([]*Chunk, 0, len(w.chunks))
	for cp, c := range w.chunks {
		if changedSince != nil {
			if baseRev, ok := changedSince[cp]; ok && baseRev == c.rev {
				continue
			}
		}
		chunks = append(chunks, c)
	}
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].Pos.Z != chunks[j].Pos.Z {
			return chunks[i].Pos.Z < chunks[j].Pos.Z
		}
		return chunks[i].Pos.X < chunks[j].Pos.X
	})
	dst = persist.AppendU64(dst, uint64(w.generated))
	dst = persist.AppendU64(dst, uint64(w.setCount))
	dst = persist.AppendU64(dst, uint64(w.lightScans))
	dst = persist.AppendU32(dst, uint32(len(chunks)))
	for _, c := range chunks {
		dst = persist.AppendI32(dst, c.Pos.X)
		dst = persist.AppendI32(dst, c.Pos.Z)
		dst = persist.AppendU64(dst, c.rev)
		dst = persist.AppendBytes(dst, c.Payload())
	}
	return dst
}

// decodedWorld is a fully parsed and validated world section, built before
// any live state is touched so a decode failure never leaves the world
// half-restored.
type decodedWorld struct {
	generated, setCount, lightScans int
	chunks                          []*Chunk
}

func decodeWorldSection(data []byte) (*decodedWorld, error) {
	d := persist.NewDec(data)
	out := &decodedWorld{
		generated:  int(d.U64()),
		setCount:   int(d.U64()),
		lightScans: int(d.U64()),
	}
	n := d.Count(4 + 4 + 8 + 4)
	out.chunks = make([]*Chunk, 0, n)
	for i := 0; i < n; i++ {
		cp := ChunkPos{X: d.I32(), Z: d.I32()}
		rev := d.U64()
		rle := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("world chunk %d: %w", i, err)
		}
		c := NewChunk(cp)
		if err := c.DecodeRLE(rle); err != nil {
			return nil, fmt.Errorf("%w: world chunk (%d,%d): %v", persist.ErrCorrupt, cp.X, cp.Z, err)
		}
		c.rev = rev
		out.chunks = append(out.chunks, c)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: world section has %d trailing bytes", persist.ErrCorrupt, d.Remaining())
	}
	return out, nil
}

// RestorePersist replaces the world's chunks and counters with a full
// snapshot section. Listeners and the generator are untouched; change
// listeners do not fire (the restored state is not a mutation). Lookup
// caches are invalidated.
func (w *World) RestorePersist(data []byte) error {
	dec, err := decodeWorldSection(data)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chunks = make(map[ChunkPos]*Chunk, len(dec.chunks))
	for _, c := range dec.chunks {
		w.chunks[c.Pos] = c
	}
	w.generated = dec.generated
	w.setCount = dec.setCount
	w.lightScans = dec.lightScans
	w.chunkList = nil
	w.chunkRefs = nil
	return nil
}

// ApplyPersistDelta overlays an incremental world section onto the world:
// each carried chunk replaces (or adds) the chunk at its position, and the
// counters are set to the delta's totals. The world must already hold the
// delta's base full snapshot.
func (w *World) ApplyPersistDelta(data []byte) error {
	dec, err := decodeWorldSection(data)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range dec.chunks {
		w.chunks[c.Pos] = c
	}
	w.generated = dec.generated
	w.setCount = dec.setCount
	w.lightScans = dec.lightScans
	w.chunkList = nil
	w.chunkRefs = nil
	return nil
}
