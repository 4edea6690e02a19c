package world

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Serialization gives worlds an on-disk form, analogous to Minecraft's
// region files: a gzip-compressed stream of run-length-encoded chunks. Its
// compressed size reproduces the world-size column of Table 2.

const saveMagic = uint32(0x4D4C4757) // "MLGW"

// Save writes the world's loaded chunks to wr in the MLGW format: magic,
// chunk count, then per chunk its X and Z followed by its Payload runs and
// a zero-count run terminator, all gzip-compressed. DecodeRLE reads a
// record's runs back.
func (w *World) Save(wr io.Writer) error {
	w.mu.RLock()
	chunks := make([]*Chunk, 0, len(w.chunks))
	for _, c := range w.chunks {
		chunks = append(chunks, c)
	}
	w.mu.RUnlock()
	// Deterministic order so identical worlds produce identical bytes.
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].Pos.X != chunks[j].Pos.X {
			return chunks[i].Pos.X < chunks[j].Pos.X
		}
		return chunks[i].Pos.Z < chunks[j].Pos.Z
	})

	gz := gzip.NewWriter(wr)
	buf := binary.BigEndian.AppendUint32(nil, saveMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(chunks)))
	if _, err := gz.Write(buf); err != nil {
		return err
	}
	for _, c := range chunks {
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(c.Pos.X))
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.Pos.Z))
		buf = append(append(buf, c.Payload()...), 0, 0)
		if _, err := gz.Write(buf); err != nil {
			return err
		}
	}
	return gz.Close()
}

// DecodeRLE decodes a chunk wire payload produced by Chunk.AppendRLE back
// into the chunk, replacing its contents and rebuilding the derived state
// (occupancy, growable count, lighting). It is the inverse the ChunkData
// protocol consumers need, and it rejects malformed input — truncated runs,
// zero-length runs, overflowing or underfilled payloads — with an error,
// never a panic, so it is safe to feed network bytes (see FuzzChunkRLE).
func (c *Chunk) DecodeRLE(data []byte) error {
	if len(data)%4 != 0 {
		return fmt.Errorf("chunk rle: truncated run at byte %d", len(data)-len(data)%4)
	}
	var blocks [ChunkSize * ChunkSize * Height]Block
	idx := 0
	nonAir, growable := 0, 0
	for off := 0; off < len(data); off += 4 {
		count := int(data[off])<<8 | int(data[off+1])
		if count == 0 {
			return fmt.Errorf("chunk rle: zero-length run at byte %d", off)
		}
		b := Block{ID: BlockID(data[off+2]), Meta: data[off+3]}
		if idx+count > len(blocks) {
			return fmt.Errorf("chunk rle: run overflows chunk: %d blocks past %d", idx+count, len(blocks))
		}
		for k := 0; k < count; k++ {
			blocks[idx] = b
			idx++
		}
		if !b.IsAir() {
			nonAir += count
		}
		if b.IsGrowable() {
			growable += count
		}
	}
	if idx != len(blocks) {
		return fmt.Errorf("chunk rle: payload underfills chunk: %d of %d blocks", idx, len(blocks))
	}
	c.blocks = blocks
	c.nonAir = nonAir
	c.growable = growable
	c.rev++
	c.RecomputeAllLight()
	return nil
}

// SavedSize serializes the world to a counting sink and returns the
// compressed byte size — the "Size [MB]" column of Table 2.
func (w *World) SavedSize() (int64, error) {
	var cw countingWriter
	if err := w.Save(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
