package server

// Benchmarks for the real-network outbound path: the per-tick broadcast
// fan-out (sendReal) and the chunk-column serialization joining players pay
// for. These are the regression harness for the encode-once/batched-flush
// network layer; scripts/bench.sh records them into BENCH.json.
//
//	go test -bench 'SendReal|SerializeChunk' -benchmem ./internal/mlg/server

import (
	"io"
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

// newBroadcastServer builds a server with socket-backed players clustered at
// spawn and a mob herd inside everyone's view area.
func newBroadcastServer(bots, mobs int) (*Server, []*Player) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
	s := New(w, DefaultConfig(Vanilla), env.NewMachine(env.DAS5SixteenCore, 1), clock)
	players := make([]*Player, 0, bots)
	for i := 0; i < bots; i++ {
		p := s.connect("bench-bot", protocol.NewConn(discardConn{}))
		p.pendingChunks = nil // skip the join burst: steady-state broadcast only
		players = append(players, p)
	}
	for i := 0; i < mobs; i++ {
		s.EntityWorld().SpawnMob(world.Pos{X: 4 + i%8, Y: 11, Z: 4 + i/8})
	}
	return s, players
}

// BenchmarkSendReal measures one broadcast tick for 50 socket-backed bots:
// 32 terrain updates plus a 40-mob herd whose members all moved since the
// last tick, per-player interest filtering, and the tick time update.
func BenchmarkSendReal(b *testing.B) {
	s, players := newBroadcastServer(50, 40)
	bc := make([]protocol.BlockChange, 32)
	for i := range bc {
		bc[i] = protocol.BlockChange{X: int32(i), Y: 11, Z: int32(i), BlockID: 1}
	}
	var counts tickCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every mob steps 1/16 block per iteration, wrapping inside the spawn
		// chunk so the herd never leaves anyone's view.
		dx := 4 + float64(i%16)*0.0625
		s.ents.Entities(func(e *entity.Entity) { e.Pos.X = dx })
		s.sendReal(players, bc, false, &counts)
	}
}

// BenchmarkSerializeChunk measures the RLE chunk-column payload a joining
// player is sent, resolved through the chunk's encoding memo: the steady
// case (unchanged chunk, repeat send) and the worst case (a terrain edit
// between every send).
func BenchmarkSerializeChunk(b *testing.B) {
	newChunk := func() (*world.World, *world.Chunk) {
		w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
		return w, w.Chunk(world.ChunkPos{X: 0, Z: 0})
	}
	b.Run("steady", func(b *testing.B) {
		_, c := newChunk()
		if len(c.Payload()) == 0 {
			b.Fatal("empty chunk payload")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Payload()
		}
	})
	b.Run("invalidated", func(b *testing.B) {
		w, c := newChunk()
		c.Payload()
		pos := world.Pos{X: 3, Y: 30, Z: 3}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				w.SetBlock(pos, world.B(world.Stone))
			} else {
				w.SetBlock(pos, world.B(world.Air))
			}
			c.Payload()
		}
	})
}
