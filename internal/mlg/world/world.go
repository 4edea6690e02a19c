package world

import (
	"slices"
	"sync"
)

// ChangeListener observes every block mutation. The terrain simulation
// registers one to schedule neighbour updates; the server registers one to
// queue state-update messages for clients.
type ChangeListener func(p Pos, old, new Block)

// World is the global terrain state: a lazily generated set of chunks plus
// mutation hooks. The game loop accesses it from the tick goroutine; reads
// from other goroutines (metric externalizer) go through the same lock.
type World struct {
	mu        sync.RWMutex
	chunks    map[ChunkPos]*Chunk
	gen       Generator
	listeners []ChangeListener
	// chunkRefs caches LoadedChunkRefs' sorted view; generation and
	// restores invalidate (nil) it and the next call rebuilds it.
	chunkRefs []*Chunk

	// Counters for work accounting and reporting.
	generated  int
	setCount   int
	lightScans int
}

// New returns an empty world backed by the generator. A nil generator
// produces void (all-air) chunks.
func New(gen Generator) *World {
	return &World{chunks: make(map[ChunkPos]*Chunk), gen: gen}
}

// OnChange registers a mutation listener. Listeners are invoked
// synchronously, in registration order, while the world lock is held by the
// mutating goroutine; they must not call back into SetBlock (use a queue).
func (w *World) OnChange(l ChangeListener) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.listeners = append(w.listeners, l)
}

// ChangeListeners returns the registered change listeners, for mutations
// applied outside SetBlock — the region-parallel simulation writes chunks
// directly during its exclusive phase and replays the buffered (pos, old,
// new) events to these afterwards, in the serial-equivalent order. The
// returned slice must not be modified.
func (w *World) ChangeListeners() []ChangeListener {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.listeners
}

// BeginExclusive write-locks the world for a bulk mutation phase and returns
// the live chunk index for lock-free resolution while the phase lasts. The
// region-parallel simulation drains its regions between BeginExclusive and
// EndExclusive: external readers (metric externalizers, joining players)
// block on the lock exactly as they would behind a burst of SetBlock calls,
// and the workers partition the chunk set among themselves so no chunk is
// touched by two goroutines. The returned map must only be read, and only
// until EndExclusive.
func (w *World) BeginExclusive() map[ChunkPos]*Chunk {
	w.mu.Lock()
	return w.chunks
}

// EndExclusive releases the lock taken by BeginExclusive.
func (w *World) EndExclusive() {
	w.mu.Unlock()
}

// AddMutationStats merges externally accounted mutation work into the
// world's counters: the region-parallel drains count their block sets and
// lighting scans per region and fold them in here at merge time, so Stats
// reports the same totals as the equivalent serial SetBlock sequence.
func (w *World) AddMutationStats(sets, lightScans int) {
	w.mu.Lock()
	w.setCount += sets
	w.lightScans += lightScans
	w.mu.Unlock()
}

// chunkLocked returns (generating if needed) the chunk; caller holds w.mu.
func (w *World) chunkLocked(cp ChunkPos) *Chunk {
	if c, ok := w.chunks[cp]; ok {
		return c
	}
	c := NewChunk(cp)
	if w.gen != nil {
		w.gen.GenerateChunk(c)
	}
	w.chunks[cp] = c
	w.chunkRefs = nil
	w.generated++
	return c
}

// Chunk returns the chunk at cp, generating it on first access.
func (w *World) Chunk(cp ChunkPos) *Chunk {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chunkLocked(cp)
}

// ChunkIfLoaded returns the chunk at cp or nil without triggering
// generation.
func (w *World) ChunkIfLoaded(cp ChunkPos) *Chunk {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.chunks[cp]
}

// Block returns the block at p. Positions outside the vertical range are
// air; horizontal access lazily generates terrain, the §2.2.2 on-demand
// generation workload. Loaded chunks are resolved under the read lock so
// concurrent readers do not serialize; only a miss takes the write lock to
// generate.
func (w *World) Block(p Pos) Block {
	if p.Y < 0 || p.Y >= Height {
		return Block{}
	}
	cp := ChunkPosAt(p)
	// The chunk read happens under the same RLock as the map lookup:
	// SetBlock mutates chunk contents under the write lock, so an unlocked
	// At would race with it (readers still do not serialize each other).
	w.mu.RLock()
	if c := w.chunks[cp]; c != nil {
		b := c.blocks[cellIndex(p)]
		w.mu.RUnlock()
		return b
	}
	w.mu.RUnlock()
	w.mu.Lock()
	c := w.chunkLocked(cp)
	b := c.blocks[cellIndex(p)]
	w.mu.Unlock()
	return b
}

// BlockIfLoaded returns the block at p and whether its chunk was loaded,
// never triggering generation. Entities use it so AI queries do not expand
// the world.
func (w *World) BlockIfLoaded(p Pos) (Block, bool) {
	if p.Y < 0 || p.Y >= Height {
		return Block{}, true
	}
	w.mu.RLock()
	c := w.chunks[ChunkPosAt(p)]
	if c == nil {
		w.mu.RUnlock()
		return Block{}, false
	}
	b := c.blocks[cellIndex(p)]
	w.mu.RUnlock()
	return b, true
}

// SetBlock stores b at p, returns the previous block, recomputes the
// column's light if the change crosses the sky-light horizon, and notifies
// change listeners. Out-of-range vertical positions are no-ops.
func (w *World) SetBlock(p Pos, b Block) Block {
	if p.Y < 0 || p.Y >= Height {
		return Block{}
	}
	cp := ChunkPosAt(p)
	lx, lz := ChunkLocal(p)

	w.mu.Lock()
	c := w.chunkLocked(cp)
	old := c.Set(lx, p.Y, lz, b)
	w.setCount++
	if old.IsOpaque() != b.IsOpaque() && p.Y >= c.LightHorizon(lx, lz)-1 {
		w.lightScans += c.RecomputeColumnLight(lx, lz)
	}
	listeners := w.listeners
	w.mu.Unlock()

	if old != b {
		for _, l := range listeners {
			l(p, old, b)
		}
	}
	return old
}

// HighestSolidY returns the Y of the highest solid block in the column at
// (x, z), generating the chunk if needed; -1 for an empty column. Like
// Block, loaded chunks take only the read lock.
func (w *World) HighestSolidY(x, z int) int {
	cp := ChunkPosAt(Pos{X: x, Z: z})
	w.mu.RLock()
	if c := w.chunks[cp]; c != nil {
		y := c.HighestSolidY(x&(ChunkSize-1), z&(ChunkSize-1))
		w.mu.RUnlock()
		return y
	}
	w.mu.RUnlock()
	w.mu.Lock()
	c := w.chunkLocked(cp)
	y := c.HighestSolidY(x&(ChunkSize-1), z&(ChunkSize-1))
	w.mu.Unlock()
	return y
}

// EnsureArea loads (generating as needed) all chunks intersecting the
// square of the given chunk radius around the block position center. It
// returns the number of chunks generated by the call — the lazy terrain
// generation work triggered by a player coming near (§2.2.2).
func (w *World) EnsureArea(center Pos, chunkRadius int) int {
	cc := ChunkPosAt(center)
	w.mu.Lock()
	before := w.generated
	for dz := -chunkRadius; dz <= chunkRadius; dz++ {
		for dx := -chunkRadius; dx <= chunkRadius; dx++ {
			w.chunkLocked(ChunkPos{X: cc.X + int32(dx), Z: cc.Z + int32(dz)})
		}
	}
	n := w.generated - before
	w.mu.Unlock()
	return n
}

// LoadedChunkRefs returns the loaded chunks in the fixed ChunkPos.Compare
// order: callers like the engine's random-tick pass consume seeded RNG state
// per chunk, so map iteration order would make otherwise-identical runs
// diverge. Per-tick whole-world passes read blocks straight off the chunk
// instead of paying a lock plus map lookup per sample. The sorted view is
// cached between chunk generations — the per-tick call must not re-sort an
// unchanged set. Callers must not mutate the slice.
func (w *World) LoadedChunkRefs() []*Chunk {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadedChunkRefsLocked()
}

func (w *World) loadedChunkRefsLocked() []*Chunk {
	if w.chunkRefs == nil {
		refs := make([]*Chunk, 0, len(w.chunks))
		for _, c := range w.chunks {
			refs = append(refs, c)
		}
		slices.SortFunc(refs, func(a, b *Chunk) int { return a.Pos.Compare(b.Pos) })
		w.chunkRefs = refs
	}
	return w.chunkRefs
}

// ChunkCache is a read-through chunk-pointer cache for a single-goroutine
// consumer (the simulation engine, the entity world). Chunks are only ever
// added to a world, never replaced or evicted, so a resolved pointer stays
// valid forever; the cache turns the lock acquisition plus map hash that
// dominates hot block reads into two pointer compares. Profiling the TNT
// storm showed ~75% of tick time inside BlockIfLoaded's RLock + map lookup
// before this existed.
//
// Not safe for concurrent use: each consumer owns its own cache. Misses on
// unloaded chunks are not cached (the chunk may be generated later).
type ChunkCache struct {
	w *World
	// fixed, when non-nil, resolves misses from a frozen chunk index instead
	// of the world lock. Region-drain workers run while the world is held
	// exclusively (BeginExclusive), so they cannot take the read lock; they
	// resolve against the index snapshot instead.
	fixed  map[ChunkPos]*Chunk
	c0, c1 *Chunk // MRU, then previous
}

// NewChunkCache returns a cache over w.
func NewChunkCache(w *World) ChunkCache { return ChunkCache{w: w} }

// NewFixedChunkCache returns a cache that resolves chunks from the given
// frozen index (as returned by BeginExclusive) without locking. The index
// must not be mutated while the cache is in use.
func NewFixedChunkCache(index map[ChunkPos]*Chunk) ChunkCache {
	return ChunkCache{fixed: index}
}

// chunkAt resolves the chunk at cp through the cache, or nil if not loaded.
func (cc *ChunkCache) chunkAt(cp ChunkPos) *Chunk {
	if c := cc.c0; c != nil && c.Pos == cp {
		return c
	}
	if c := cc.c1; c != nil && c.Pos == cp {
		cc.c1, cc.c0 = cc.c0, c
		return c
	}
	var c *Chunk
	if cc.fixed != nil {
		c = cc.fixed[cp]
	} else {
		c = cc.w.ChunkIfLoaded(cp)
	}
	if c != nil {
		cc.c1, cc.c0 = cc.c0, c
	}
	return c
}

// Chunk resolves the chunk at cp through the cache, or nil if not loaded.
func (cc *ChunkCache) Chunk(cp ChunkPos) *Chunk { return cc.chunkAt(cp) }

// BlockIfLoaded behaves exactly like World.BlockIfLoaded, through the cache.
func (cc *ChunkCache) BlockIfLoaded(p Pos) (Block, bool) {
	if p.Y < 0 || p.Y >= Height {
		return Block{}, true
	}
	c := cc.chunkAt(ChunkPosAt(p))
	if c == nil {
		return Block{}, false
	}
	return c.blocks[cellIndex(p)], true
}

// Stencil is a block and its six face neighbours with their loaded flags:
// exactly what BlockIfLoaded returns for each of the seven positions.
// Neighbours are indexed by Direction, the order of Pos.Neighbors6.
type Stencil struct {
	Block    Block
	Loaded   bool
	Nb       [6]Block
	NbLoaded [6]bool
}

// Stencil fills s with the blocks at p and its six face neighbours. It
// resolves p's chunk once and steps by stride inside it; a neighbour across
// a chunk edge, and every cell of a p outside the vertical range or in an
// unloaded chunk, is read through BlockIfLoaded.
func (cc *ChunkCache) Stencil(p Pos, s *Stencil) {
	var c *Chunk
	if p.Y >= 0 && p.Y < Height {
		c = cc.chunkAt(ChunkPosAt(p))
	}
	if c == nil {
		s.Block, s.Loaded = cc.BlockIfLoaded(p)
		for d, n := range p.Neighbors6() {
			s.Nb[d], s.NbLoaded[d] = cc.BlockIfLoaded(n)
		}
		return
	}
	const dy, dz = ChunkSize * ChunkSize, ChunkSize
	lx, lz := ChunkLocal(p)
	i := blockIndex(lx, p.Y, lz)
	s.Block, s.Loaded = c.blocks[i], true
	s.NbLoaded = [6]bool{true, true, true, true, true, true}
	// Above the top and below the bottom is loaded air, as in BlockIfLoaded.
	s.Nb[DirUp], s.Nb[DirDown] = Block{}, Block{}
	if p.Y < Height-1 {
		s.Nb[DirUp] = c.blocks[i+dy]
	}
	if p.Y > 0 {
		s.Nb[DirDown] = c.blocks[i-dy]
	}
	if lz > 0 {
		s.Nb[DirNorth] = c.blocks[i-dz]
	} else {
		s.Nb[DirNorth], s.NbLoaded[DirNorth] = cc.BlockIfLoaded(p.North())
	}
	if lz < ChunkSize-1 {
		s.Nb[DirSouth] = c.blocks[i+dz]
	} else {
		s.Nb[DirSouth], s.NbLoaded[DirSouth] = cc.BlockIfLoaded(p.South())
	}
	if lx < ChunkSize-1 {
		s.Nb[DirEast] = c.blocks[i+1]
	} else {
		s.Nb[DirEast], s.NbLoaded[DirEast] = cc.BlockIfLoaded(p.East())
	}
	if lx > 0 {
		s.Nb[DirWest] = c.blocks[i-1]
	} else {
		s.Nb[DirWest], s.NbLoaded[DirWest] = cc.BlockIfLoaded(p.West())
	}
}

// ChunkCount returns the number of loaded chunks.
func (w *World) ChunkCount() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.chunks)
}

// Stats returns cumulative world counters: chunks generated, block sets, and
// lighting blocks scanned.
func (w *World) Stats() (generated, sets, lightScans int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.generated, w.setCount, w.lightScans
}

// NonAirBlocks returns the total number of non-air blocks across loaded
// chunks.
func (w *World) NonAirBlocks() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	total := 0
	for _, c := range w.chunks {
		total += c.NonAirCount()
	}
	return total
}
