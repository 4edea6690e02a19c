package shard

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mlg/entity"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// Endpoint is one shard's half of the inter-shard exchange: after every
// local tick it drains departing entities toward their new owners, mirrors
// changed boundary chunks to its neighbours, and applies the symmetric
// traffic its peers produced. The exchange is split into a send phase and
// an apply phase so a lockstep driver (or the after-tick hook of a
// wall-clock shard) can fan all sends out before any shard blocks on a
// barrier — sends are async, so the two-phase shape is deadlock-free
// whatever the shard order.
//
// The per-tick cost tracks what changed, not what exists: an unchanged
// boundary chunk costs a revision compare. The outbound slices are reused
// across ticks, which is safe because Session.Send encodes synchronously.
type Endpoint struct {
	S     *server.Server
	Map   Map
	Index int

	links map[int]*peerLink
	// order lists the attached peers ascending — the exchange order, kept
	// sorted by SetSession and DropSession.
	order []int

	halo []int // AppendHaloPeers scratch
}

// peerLink is an endpoint's state for one attached peer.
type peerLink struct {
	sess *Session
	// mirrored remembers, per boundary chunk, the content sum last
	// mirrored over this link.
	mirrored map[world.ChunkPos]uint64

	// This tick's outbound packets: handoffs and mirrors are staged as
	// values, and out points at them, handoffs first, for Session.Send.
	handoffs []protocol.EntityHandoff
	mirrors  []protocol.ChunkMirror
	out      []protocol.Packet
}

// NewEndpoint wraps a shard server for inter-shard exchange. Sessions are
// attached afterwards with SetSession as links come up.
func NewEndpoint(s *server.Server, m Map, index int) *Endpoint {
	return &Endpoint{S: s, Map: m, Index: index, links: make(map[int]*peerLink)}
}

// SetSession attaches (or replaces) the link to a peer shard and forgets
// what was mirrored over the previous link, so a restored peer receives a
// full boundary resync on the next tick.
func (ep *Endpoint) SetSession(peer int, sess *Session) {
	l := ep.links[peer]
	if l == nil {
		l = &peerLink{mirrored: make(map[world.ChunkPos]uint64)}
		ep.links[peer] = l
		ep.order = slices.Insert(ep.order, sort.SearchInts(ep.order, peer), peer)
	}
	l.sess = sess
	clear(l.mirrored)
}

// DropSession detaches a dead peer: the exchange skips it until failover
// hands back a replacement via SetSession.
func (ep *Endpoint) DropSession(peer int) {
	l := ep.links[peer]
	if l == nil {
		return
	}
	l.sess.Close()
	delete(ep.links, peer)
	i := sort.SearchInts(ep.order, peer)
	ep.order = slices.Delete(ep.order, i, i+1)
}

// Peers returns the attached peer indices in ascending order, as a copy
// the caller may hold across DropSession calls.
func (ep *Endpoint) Peers() []int { return slices.Clone(ep.order) }

// SendTick runs the shard's outbound half for the tick that just finished:
// departure sweep, boundary chunk mirrors, barrier. Handoffs whose
// destination link is down are re-inserted locally rather than lost — the
// entity freezes at the boundary until failover restores the peer.
func (ep *Endpoint) SendTick(tick int64) error {
	for _, p := range ep.order {
		l := ep.links[p]
		l.handoffs, l.mirrors, l.out = l.handoffs[:0], l.mirrors[:0], l.out[:0]
	}

	ents := ep.S.EntityWorld()
	for _, h := range ents.DrainDepartures(ep.Map.Owns(ep.Index)) {
		dest := ep.Map.ShardOfBlock(h.Pos.BlockPos())
		l := ep.links[dest]
		if dest == ep.Index || l == nil {
			ents.Arrive(h)
			continue
		}
		l.handoffs = append(l.handoffs, protocol.EntityHandoff{
			Kind: uint8(h.Kind),
			X:    h.Pos.X, Y: h.Pos.Y, Z: h.Pos.Z,
			VX: h.Vel.X, VY: h.Vel.Y, VZ: h.Vel.Z,
			OnGround:       h.OnGround,
			Age:            int32(h.Age),
			ItemType:       uint8(h.ItemType),
			Fuse:           int32(h.Fuse),
			SeedKey:        h.SeedKey,
			WanderCooldown: int32(h.WanderCooldown),
		})
	}

	ep.queueMirrors()

	for _, peer := range ep.order {
		l := ep.links[peer]
		for i := range l.handoffs {
			l.out = append(l.out, &l.handoffs[i])
		}
		for i := range l.mirrors {
			l.out = append(l.out, &l.mirrors[i])
		}
		err := l.sess.Send(tick, l.out)
		clear(l.mirrors) // release this tick's chunk images
		clear(l.out)
		if err != nil {
			return fmt.Errorf("shard %d → %d: %w", ep.Index, peer, err)
		}
	}
	return nil
}

// queueMirrors queues a ChunkMirror for every owned boundary chunk whose
// content sum differs from what the peer last received. The sum is the
// chunk's memo (world.Chunk.Sum), so an unchanged chunk costs a revision
// compare; a rolled-back parallel drain advances the revision but restores
// the content, and such a chunk is not resent.
func (ep *Endpoint) queueMirrors() {
	for _, c := range ep.S.World().LoadedChunkRefs() {
		cp := c.Pos
		if ep.Map.ShardOf(cp) != ep.Index {
			continue
		}
		ep.halo = ep.Map.AppendHaloPeers(ep.halo[:0], ep.Index, cp)
		for _, peer := range ep.halo {
			l := ep.links[peer]
			if l == nil {
				continue
			}
			sum := c.Sum()
			if last, seen := l.mirrored[cp]; seen && last == sum {
				continue
			}
			l.mirrored[cp] = sum
			l.mirrors = append(l.mirrors, protocol.ChunkMirror{ChunkX: cp.X, ChunkZ: cp.Z, Data: c.Payload()})
		}
	}
}

// ApplyTick blocks until every attached peer has delivered its barrier for
// the tick, then applies the traffic in ascending peer order: chunk mirrors
// into the halo copies, handoffs into the entity store. Deterministic given
// deterministic peers.
func (ep *Endpoint) ApplyTick(tick int64) error {
	ents := ep.S.EntityWorld()
	w := ep.S.World()
	for _, peer := range ep.order {
		l := ep.links[peer]
		pkts, err := l.sess.WaitBarrier(tick)
		if err != nil {
			return fmt.Errorf("shard %d ← %d: %w", ep.Index, peer, err)
		}
		for _, p := range pkts {
			switch p := p.(type) {
			case *protocol.ChunkMirror:
				cp := world.ChunkPos{X: p.ChunkX, Z: p.ChunkZ}
				if ep.Map.ShardOf(cp) == ep.Index {
					return fmt.Errorf("shard %d ← %d: mirror for owned chunk %v", ep.Index, peer, cp)
				}
				if err := w.ApplyMirror(cp, p.Data); err != nil {
					return fmt.Errorf("shard %d ← %d: mirror %v: %w", ep.Index, peer, cp, err)
				}
			case *protocol.EntityHandoff:
				ents.Arrive(entity.Handoff{
					Kind:           entity.Type(p.Kind),
					Pos:            entity.Vec3{X: p.X, Y: p.Y, Z: p.Z},
					Vel:            entity.Vec3{X: p.VX, Y: p.VY, Z: p.VZ},
					OnGround:       p.OnGround,
					Age:            int(p.Age),
					ItemType:       world.BlockID(p.ItemType),
					Fuse:           int(p.Fuse),
					SeedKey:        p.SeedKey,
					WanderCooldown: int(p.WanderCooldown),
				})
			default:
				return fmt.Errorf("shard %d ← %d: unexpected packet %#x", ep.Index, peer, int32(p.ID()))
			}
		}
	}
	return nil
}

// Exchange runs both halves back to back — the wall-clock shard's
// after-tick hook, where every shard sends before it waits.
func (ep *Endpoint) Exchange(tick int64) error {
	if err := ep.SendTick(tick); err != nil {
		return err
	}
	return ep.ApplyTick(tick)
}
