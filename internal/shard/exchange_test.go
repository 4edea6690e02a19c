package shard_test

// The exchange suite pins what the inter-shard exchange costs per tick: an
// unchanged boundary costs no byte or allocation per halo entity and no
// chunk image, a
// revision that moved without changing content sends nothing, and a
// replaced link resynchronises every halo chunk.

import (
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/shard"
	"repro/internal/workload"
)

// exchangePair is two Control-world shards split at equivSplit whose
// endpoints are linked over in-process sessions the test owns, so it can
// replace a live link and close the one it replaced.
type exchangePair struct {
	eps  [2]*shard.Endpoint
	sess [2]*shard.Session
	tick int64
	// written counts the bytes both sessions hand to their pipe ends.
	written atomic.Int64
}

// countingConn counts bytes before writing them, so once a peer has read
// a barrier the bytes that carried it are already counted.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return c.Conn.Write(b)
}

func newExchangePair(t *testing.T) *exchangePair {
	t.Helper()
	m := shard.Map{Splits: []int32{equivSplit}}
	p := &exchangePair{}
	for i := range p.eps {
		s, err := buildFn(server.Vanilla, workload.Control, m, nil)(i, m.Owns(i))
		if err != nil {
			t.Fatal(err)
		}
		p.eps[i] = shard.NewEndpoint(s, m, i)
	}
	p.link()
	t.Cleanup(func() {
		for _, s := range p.sess {
			s.Close()
		}
	})
	return p
}

// link attaches a fresh session pair, closing the pair it replaces.
func (p *exchangePair) link() {
	old := p.sess
	a, b := net.Pipe()
	p.sess = [2]*shard.Session{
		shard.NewSession(countingConn{a, &p.written}, 0, 1, 2),
		shard.NewSession(countingConn{b, &p.written}, 1, 0, 2),
	}
	p.eps[0].SetSession(1, p.sess[0])
	p.eps[1].SetSession(0, p.sess[1])
	for _, s := range old {
		if s != nil {
			s.Close()
		}
	}
}

// round runs one full exchange without ticking the servers, so nothing but
// the test's own edits changes between rounds.
func (p *exchangePair) round(t testing.TB) {
	p.tick++
	for _, ep := range p.eps {
		if err := ep.SendTick(p.tick); err != nil {
			t.Fatal(err)
		}
	}
	for _, ep := range p.eps {
		if err := ep.ApplyTick(p.tick); err != nil {
			t.Fatal(err)
		}
	}
}

// haloChunks are boundary columns on both sides of the split: chunk X=15
// is shard 0's halo toward shard 1, chunk X=16 shard 1's toward shard 0.
func haloChunks() []world.ChunkPos {
	var out []world.ChunkPos
	for z := int32(-2); z <= 2; z++ {
		out = append(out, world.ChunkPos{X: equivSplit - 1, Z: z}, world.ChunkPos{X: equivSplit, Z: z})
	}
	return out
}

// peerRevisions returns the revision of each halo chunk's copy on the shard
// that does not own it. Applying a mirror advances it by one.
func (p *exchangePair) peerRevisions(t *testing.T, cps []world.ChunkPos) []uint64 {
	t.Helper()
	m := p.eps[0].Map
	revs := make([]uint64, len(cps))
	for i, cp := range cps {
		c := p.eps[1-m.ShardOf(cp)].S.World().ChunkIfLoaded(cp)
		if c == nil {
			t.Fatalf("chunk %v has no halo copy on the peer", cp)
		}
		revs[i] = c.Revision()
	}
	return revs
}

// TestExchangeFlatInHaloEntities: with no terrain change, a steady-state
// exchange round writes the same bytes and allocates the same small
// constant whether 64 or 1024 items stand in the halo — entities cross
// only as handoffs, and unchanged chunks are neither hashed nor resent.
func TestExchangeFlatInHaloEntities(t *testing.T) {
	allocs, written := map[int]float64{}, map[int]int64{}
	for _, n := range []int{64, 1024} {
		p := newExchangePair(t)
		for _, cp := range haloChunks() {
			p.eps[p.eps[0].Map.ShardOf(cp)].S.World().Chunk(cp)
		}
		// Items two blocks apart (the Vanilla merge cell) fill shard 1's
		// boundary column, chunk X=16, inside shard 0's halo.
		ents := p.eps[1].S.EntityWorld()
		for i := 0; i < n; i++ {
			x := equivSplit*world.ChunkSize + 2*(i%8)
			z := 2 * ((i / 8) % 64)
			y := 20 + 2*(i/512)
			ents.SpawnItem(world.Pos{X: x, Y: y, Z: z}, world.Stone)
		}
		if got := ents.Count(); got != n {
			t.Fatalf("spawned %d items, want %d", got, n)
		}
		p.round(t) // first round mirrors every halo chunk and sizes the buffers
		allocs[n] = testing.AllocsPerRun(50, func() { p.round(t) })
		before := p.written.Load()
		p.round(t)
		written[n] = p.written.Load() - before
	}
	t.Logf("per exchange round: allocs %v, bytes %v", allocs, written)
	if written[1024] != written[64] {
		t.Fatalf("bytes per round grow with halo entities: %v", written)
	}
	// The sessions' reader and writer goroutines allocate too, and their
	// timing can shift a slice growth between rounds, so the two sizes
	// may differ by one or two; a per-entity cost would differ by ~1000.
	if d := allocs[1024] - allocs[64]; d > 2 || d < -2 {
		t.Fatalf("allocs per round grow with halo entities: %v", allocs)
	}
	if allocs[1024] > 40 {
		t.Fatalf("allocs per round = %v, want a small constant", allocs[1024])
	}
}

// TestExchangeSkipsRevisionOnlyChange: a halo block set and then set back
// advances the chunk's revision without changing its content, and no chunk
// image reaches the peer; a real change still does.
func TestExchangeSkipsRevisionOnlyChange(t *testing.T) {
	p := newExchangePair(t)
	pos := world.Pos{X: equivSplit*world.ChunkSize + 2, Y: 10, Z: 3}
	owner := p.eps[1].S.World()
	cps := []world.ChunkPos{world.ChunkPosAt(pos)}
	owner.Chunk(cps[0])
	p.round(t)
	before := p.peerRevisions(t, cps)[0]
	ownerRev := owner.ChunkIfLoaded(cps[0]).Revision()

	orig, alt := owner.Block(pos), world.B(world.Glass)
	owner.SetBlock(pos, alt)
	owner.SetBlock(pos, orig)
	if owner.ChunkIfLoaded(cps[0]).Revision() == ownerRev {
		t.Fatal("set and set back did not advance the owner's revision")
	}
	p.round(t)
	p.round(t)
	if got := p.peerRevisions(t, cps)[0]; got != before {
		t.Fatalf("peer applied %d mirrors of an unchanged chunk", got-before)
	}

	owner.SetBlock(pos, alt)
	p.round(t)
	if got := p.peerRevisions(t, cps)[0]; got != before+1 {
		t.Fatalf("peer applied %d mirrors of a changed chunk, want 1", got-before)
	}
	if got := p.eps[0].S.World().Block(pos).ID; got != alt.ID {
		t.Fatalf("halo copy holds %v, want %v", got, alt.ID)
	}
}

// TestExchangeResyncsAfterSetSession: replacing a peer's link forgets what
// was mirrored over the old one, so every halo chunk is resent once.
func TestExchangeResyncsAfterSetSession(t *testing.T) {
	p := newExchangePair(t)
	cps := haloChunks()
	for _, cp := range cps {
		p.eps[p.eps[0].Map.ShardOf(cp)].S.World().Chunk(cp)
	}
	p.round(t)
	steady := p.peerRevisions(t, cps)
	p.round(t)
	for i, rev := range p.peerRevisions(t, cps) {
		if rev != steady[i] {
			t.Fatalf("unchanged chunk %v resent without a new link", cps[i])
		}
	}
	p.link()
	p.round(t)
	for i, rev := range p.peerRevisions(t, cps) {
		if rev != steady[i]+1 {
			t.Fatalf("chunk %v: %d mirrors after relink, want 1", cps[i], rev-steady[i])
		}
	}
}
