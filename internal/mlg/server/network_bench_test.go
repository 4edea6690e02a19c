package server

// Benchmarks for the real-network outbound path: the per-tick broadcast
// fan-out (sendReal) and the chunk-column serialization joining players pay
// for. These are the regression harness for the encode-once/batched-flush
// network layer; TestSendRealAllocs and TestSerializeChunkAllocs bound
// their allocations.
//
//	go test -bench 'SendReal|SerializeChunk' -benchmem ./internal/mlg/server

import (
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// discardConn is a ReadWriteCloser that swallows writes: a real protocol
// connection minus the kernel, so broadcast benchmarks measure encode and
// buffer management, not loopback TCP.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// newSendRealRig builds 50 socket-backed bots clustered at spawn, a 40-mob
// herd inside everyone's view area and 32 terrain updates, and returns one
// broadcast tick over them: every mob steps 1/16 block (wrapping inside the
// spawn chunk so the herd never leaves anyone's view), then sendReal runs
// per-player interest filtering and the tick time update. Before the herd
// arrives, one streamed mob leaves the world, so every player has untracked
// an entity once, as in any live session.
func newSendRealRig() (send func()) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
	s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5SixteenCore, 1), clock)
	players := make([]*Player, 0, 50)
	for i := 0; i < 50; i++ {
		p := s.connect("bench-bot", protocol.NewConn(discardConn{}))
		p.pendingChunks = nil // skip the join burst: steady-state broadcast only
		players = append(players, p)
	}
	bc := make([]protocol.BlockChange, 32)
	for i := range bc {
		bc[i] = protocol.BlockChange{X: int32(i), Y: 11, Z: int32(i), BlockID: 1}
	}
	var counts tickCounts
	step := 0
	send = func() {
		dx := 4 + float64(step%16)*0.0625
		step++
		s.ents.Entities(func(e *entity.Entity) { e.Pos.X = dx })
		s.sendReal(players, bc, false, &counts)
	}
	ew := s.EntityWorld()
	ew.SpawnMob(world.Pos{X: 4, Y: 11, Z: 4})
	send()
	ew.DrainDepartures(func(world.ChunkPos) bool { return false })
	for i := 0; i < 40; i++ {
		ew.SpawnMob(world.Pos{X: 4 + i%8, Y: 11, Z: 4 + i/8})
	}
	return send
}

// BenchmarkSendReal measures one broadcast tick of the newSendRealRig.
func BenchmarkSendReal(b *testing.B) {
	send := newSendRealRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// checkAllocs fails t when the cheapest of runs calls of f allocates more
// than bound times. The collector is off while f runs: a cycle would empty
// the standard library's pools and add a varying number of refills to the
// count. Stray allocations by other goroutines only add to a call's count,
// so over several runs the cheapest is f's own. It is the one allocation
// check of every Test*Allocs beside a benchmark in this directory and
// reaches the external test package as CheckAllocs.
func checkAllocs(t *testing.T, runs int, f func(), bound uint64) {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d allocs, bound %d", fewest, bound)
	if fewest > bound {
		t.Fatal("allocations over the bound")
	}
}

// TestSendRealAllocs bounds the allocations of one warmed BenchmarkSendReal
// broadcast tick.
func TestSendRealAllocs(t *testing.T) {
	checkAllocs(t, 5, newSendRealRig(), 117)
}

// chunkPayloadRigs are the chunk payload reads BenchmarkSerializeChunk
// times, resolved through the chunk's encoding memo: the steady case
// (unchanged chunk, repeat send) and the worst case (a terrain edit between
// every send). allocs bounds one warmed read.
var chunkPayloadRigs = []struct {
	name   string
	edits  bool
	allocs uint64
}{
	{"steady", false, 0},
	{"invalidated", true, 2},
}

// newChunkPayloadRig returns one read of a flat chunk's payload, preceded
// by a block toggle when edits is set.
func newChunkPayloadRig(tb testing.TB, edits bool) (read func()) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	c := w.Chunk(world.ChunkPos{X: 0, Z: 0})
	if len(c.Payload()) == 0 {
		tb.Fatal("empty chunk payload")
	}
	pos := world.Pos{X: 3, Y: 30, Z: 3}
	stone := false
	return func() {
		if edits {
			if stone = !stone; stone {
				w.SetBlock(pos, world.B(world.Stone))
			} else {
				w.SetBlock(pos, world.B(world.Air))
			}
		}
		c.Payload()
	}
}

// BenchmarkSerializeChunk measures the RLE chunk-column payload a joining
// player is sent.
func BenchmarkSerializeChunk(b *testing.B) {
	for _, rig := range chunkPayloadRigs {
		b.Run(rig.name, func(b *testing.B) {
			read := newChunkPayloadRig(b, rig.edits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}

// TestSerializeChunkAllocs bounds the allocations of one warmed
// BenchmarkSerializeChunk read.
func TestSerializeChunkAllocs(t *testing.T) {
	for _, rig := range chunkPayloadRigs {
		t.Run(rig.name, func(t *testing.T) {
			checkAllocs(t, 5, newChunkPayloadRig(t, rig.edits), rig.allocs)
		})
	}
}
