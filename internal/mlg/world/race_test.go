package world

import (
	"sync"
	"testing"
)

// TestConcurrentSetBlockAndReaders: the lock-free chunk-read fast paths
// must keep chunk contents under the read lock — a joining player's spawn
// probe (HighestSolidY) and terrain reads race the tick goroutine's
// SetBlock otherwise. Run under -race, this is the regression guard.
func TestConcurrentSetBlockAndReaders(t *testing.T) {
	w := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	w.EnsureArea(Pos{X: 8, Z: 8}, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				w.SetBlock(Pos{X: 8, Y: 30, Z: 8}, B(Stone))
			} else {
				w.SetBlock(Pos{X: 8, Y: 30, Z: 8}, B(Air))
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		w.HighestSolidY(8, 8)
		w.Block(Pos{X: 8, Y: 30, Z: 8})
		w.BlockIfLoaded(Pos{X: 8, Y: 30, Z: 8})
	}
	close(stop)
	wg.Wait()
}

// TestExclusivePhaseShutsOutReaders: the region-parallel drains write chunk
// contents without per-write locking between BeginExclusive and
// EndExclusive. That is only sound if every reader path is fenced by the
// world lock — this test writes a chunk directly during repeated exclusive
// phases while reader goroutines hammer the same cells through the public
// API, and relies on -race to catch any unfenced access.
func TestExclusivePhaseShutsOutReaders(t *testing.T) {
	w := New(&FlatGenerator{SurfaceY: 10, Surface: Grass})
	w.EnsureArea(Pos{X: 8, Z: 8}, 1)
	target := Pos{X: 8, Y: 30, Z: 8}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Block(target)
				w.BlockIfLoaded(target)
				w.HighestSolidY(8, 8)
				w.Stats()
			}
		}()
	}

	for i := 0; i < 20000; i++ {
		index := w.BeginExclusive()
		cache := NewFixedChunkCache(index)
		c := cache.Chunk(ChunkPosAt(target))
		lx, lz := ChunkLocal(target)
		old := c.At(lx, target.Y, lz)
		if i%2 == 0 {
			c.Set(lx, target.Y, lz, B(Stone))
		} else {
			c.Set(lx, target.Y, lz, B(Air))
		}
		c.RecomputeColumnLight(lx, lz)
		_ = old
		w.EndExclusive()
		// Stats merge and listener replay happen after the exclusive phase,
		// exactly as the engine's merge does.
		w.AddMutationStats(1, 1)
		if i%100 == 0 {
			for _, l := range w.ChangeListeners() {
				l(target, old, c.At(lx, target.Y, lz))
			}
		}
	}
	close(stop)
	wg.Wait()
}
