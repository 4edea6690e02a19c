package world

import "hash/fnv"

// Chunk geometry. MLG worlds are split into columns of ChunkSize×ChunkSize
// blocks (§2.2.2: "This world is split into areas, which are lazily
// generated when players come near them"). Height is bounded to keep the
// engine compact; every workload world fits comfortably.
const (
	// ChunkSize is the horizontal extent of a chunk in blocks. It is a
	// power of two, so a chunk coordinate is an arithmetic shift (which
	// floors on negative values) and a local coordinate a mask.
	ChunkSize  = 1 << chunkShift
	chunkShift = 4
	// Height is the vertical extent of the world in blocks.
	Height = 64
	// SeaLevel is the water-fill level used by terrain generation.
	SeaLevel = 22
)

// ChunkPos identifies a chunk column by its chunk-grid coordinates.
type ChunkPos struct {
	X, Z int32
}

// Compare orders chunk positions by Z, then X: the one chunk order of every
// deterministic whole-world pass and every persisted chunk list. It is
// written without cmp.Compare so that it inlines into the sort and search
// callbacks of the tick path.
func (cp ChunkPos) Compare(o ChunkPos) int {
	a, b := cp.Z, o.Z
	if a == b {
		a, b = cp.X, o.X
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ChunkPosAt returns the chunk containing the block position.
func ChunkPosAt(p Pos) ChunkPos {
	return ChunkPos{X: int32(p.X >> chunkShift), Z: int32(p.Z >> chunkShift)}
}

// ChunkLocal returns the chunk-local horizontal coordinates of p.
func ChunkLocal(p Pos) (lx, lz int) {
	return p.X & (ChunkSize - 1), p.Z & (ChunkSize - 1)
}

// Origin returns the world position of the chunk's (0, 0, 0) corner.
func (cp ChunkPos) Origin() Pos {
	return Pos{X: int(cp.X) * ChunkSize, Y: 0, Z: int(cp.Z) * ChunkSize}
}

// RegionSeed derives a deterministic RNG seed from the world seed and a
// chunk column: the base of the per-chunk random-tick streams
// (sim/streams.go) and the per-entity decision streams (entity/rng.go),
// whose values must not depend on worker scheduling or shard layout. FNV-1a
// over the three values keeps nearby columns' streams uncorrelated.
func RegionSeed(worldSeed int64, key ChunkPos) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [...]uint64{uint64(worldSeed), uint64(uint32(key.X)), uint64(uint32(key.Z))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// Chunk is one ChunkSize×Height×ChunkSize column of blocks plus its derived
// lighting data. Blocks are stored in a flat array indexed Y-major so a
// column scan is contiguous.
type Chunk struct {
	Pos ChunkPos
	// growable counts the blocks random ticks can change (Block.IsGrowable).
	// It sits beside Pos so that the random-tick pass, which skips chunks
	// where it is zero, reads only the header's first cache line of them.
	growable int
	blocks   [ChunkSize * ChunkSize * Height]Block
	// lightHeight caches, per column, the Y of the highest opaque block + 1:
	// the sky-light horizon. Terrain changes above/at the horizon force a
	// column recompute, the dynamic-lighting workload of §2.2.2.
	lightHeight [ChunkSize * ChunkSize]uint8
	// nonAir tracks occupancy for cheap emptiness checks and size reporting.
	nonAir int
	// rev counts block mutations (Set calls that changed a block, and
	// DecodeRLE). It keys memo, so every write to blocks must advance it.
	rev uint64
	// memo is the chunk's one encoding, shared by the wire, the snapshot,
	// the save file, the shard mirrors and the state fingerprint.
	memo chunkMemo
}

// chunkMemo is the chunk's AppendRLE payload and its FNV-64a sum at
// revision rev. rle == nil marks it empty: every payload holds at least one
// run, while an all-air chunk can sit at revision 0.
type chunkMemo struct {
	rev uint64
	rle []byte
	sum uint64
}

// NewChunk returns an empty (all-air) chunk at the given position.
func NewChunk(cp ChunkPos) *Chunk { return &Chunk{Pos: cp} }

func blockIndex(lx, y, lz int) int { return (y*ChunkSize+lz)*ChunkSize + lx }

// cellIndex is blockIndex for a world position whose Y is in range: the
// cell of p in its own chunk.
func cellIndex(p Pos) int {
	lx, lz := ChunkLocal(p)
	return blockIndex(lx, p.Y, lz)
}

// At returns the block at chunk-local coordinates. Out-of-range coordinates
// return air.
func (c *Chunk) At(lx, y, lz int) Block {
	if lx < 0 || lx >= ChunkSize || lz < 0 || lz >= ChunkSize || y < 0 || y >= Height {
		return Block{}
	}
	return c.blocks[blockIndex(lx, y, lz)]
}

// Set stores a block at chunk-local coordinates and returns the previous
// block. Out-of-range coordinates are ignored and return air.
func (c *Chunk) Set(lx, y, lz int, b Block) Block {
	if lx < 0 || lx >= ChunkSize || lz < 0 || lz >= ChunkSize || y < 0 || y >= Height {
		return Block{}
	}
	idx := blockIndex(lx, y, lz)
	old := c.blocks[idx]
	if old == b {
		return old
	}
	c.blocks[idx] = b
	c.rev++
	switch {
	case old.IsAir() && !b.IsAir():
		c.nonAir++
	case !old.IsAir() && b.IsAir():
		c.nonAir--
	}
	switch {
	case !old.IsGrowable() && b.IsGrowable():
		c.growable++
	case old.IsGrowable() && !b.IsGrowable():
		c.growable--
	}
	return old
}

// Revision returns the chunk's mutation counter. Two reads returning the
// same value bracket an unchanged chunk, so any payload derived in between
// is still valid.
func (c *Chunk) Revision() uint64 { return c.rev }

// AppendRLE appends the chunk's run-length-encoded wire payload to dst:
// (count uint16 big-endian, block ID, meta) runs over the flat Y-major
// block array, runs capped at 0xFFFF blocks. This is the ChunkData payload
// format the server streams on join. It is the one encoder: readers take
// its bytes through Payload, which runs it at most once per revision.
func (c *Chunk) AppendRLE(dst []byte) []byte {
	i := 0
	for i < len(c.blocks) {
		b := c.blocks[i]
		j := i + 1
		for j < len(c.blocks) && c.blocks[j] == b && j-i < 0xFFFF {
			j++
		}
		dst = append(dst, byte((j-i)>>8), byte(j-i), byte(b.ID), b.Meta)
		i = j
	}
	return dst
}

// Payload returns the chunk's RLE wire payload (the AppendRLE bytes),
// encoded at most once per revision. The bytes are shared and must not be
// modified; a refill allocates a fresh slice, so bytes handed out earlier
// stay intact. Payload and Sum fill the memo, so like every whole-chunk
// read they run on the tick goroutine between phases — never on the region
// workers of an exclusive drain, which only advance the revision.
func (c *Chunk) Payload() []byte { return c.fill().rle }

// Sum returns the FNV-64a checksum of Payload: the chunk's content
// fingerprint.
func (c *Chunk) Sum() uint64 { return c.fill().sum }

func (c *Chunk) fill() *chunkMemo {
	if c.memo.rle == nil || c.memo.rev != c.rev {
		rle := c.AppendRLE(nil)
		h := fnv.New64a()
		h.Write(rle)
		c.memo = chunkMemo{rev: c.rev, rle: rle, sum: h.Sum64()}
	}
	return &c.memo
}

// NonAirCount returns the number of non-air blocks in the chunk.
func (c *Chunk) NonAirCount() int { return c.nonAir }

// GrowableCount returns the number of blocks in the chunk that random ticks
// can change (Block.IsGrowable).
func (c *Chunk) GrowableCount() int { return c.growable }

// LightHorizon returns the cached sky-light horizon for a column.
func (c *Chunk) LightHorizon(lx, lz int) int {
	return int(c.lightHeight[lz*ChunkSize+lx])
}

// SetLightHorizon overwrites a column's cached horizon without rescanning.
// It exists for the region-parallel simulation's rollback path, which must
// restore the exact pre-tick lighting state after undoing a speculative
// region drain; normal code paths use RecomputeColumnLight.
func (c *Chunk) SetLightHorizon(lx, lz int, horizon int) {
	c.lightHeight[lz*ChunkSize+lx] = uint8(horizon)
}

// RecomputeColumnLight rescans one column for its highest opaque block and
// updates the cached horizon. It returns the number of blocks scanned, which
// the simulation counts as lighting work.
func (c *Chunk) RecomputeColumnLight(lx, lz int) int {
	scanned := 0
	for y := Height - 1; y >= 0; y-- {
		scanned++
		if c.blocks[blockIndex(lx, y, lz)].IsOpaque() {
			c.lightHeight[lz*ChunkSize+lx] = uint8(y + 1)
			return scanned
		}
	}
	c.lightHeight[lz*ChunkSize+lx] = 0
	return scanned
}

// RecomputeAllLight recomputes every column's horizon (used after chunk
// generation) and returns the blocks scanned.
func (c *Chunk) RecomputeAllLight() int {
	scanned := 0
	for lz := 0; lz < ChunkSize; lz++ {
		for lx := 0; lx < ChunkSize; lx++ {
			scanned += c.RecomputeColumnLight(lx, lz)
		}
	}
	return scanned
}

// HighestSolidY returns the Y of the highest solid block in the column, or
// -1 if the column is empty. Used for spawn-point computation and terrain
// queries.
func (c *Chunk) HighestSolidY(lx, lz int) int {
	for y := Height - 1; y >= 0; y-- {
		if c.blocks[blockIndex(lx, y, lz)].IsSolid() {
			return y
		}
	}
	return -1
}
