package server

import (
	"fmt"
	"time"

	"repro/internal/mlg/entity"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

// Server-level composition of the MLGP save format: the server contributes
// its own section (players, inbox, net totals) and assembles the world,
// sim and entity sections into one snapshot. Everything here runs between
// ticks on the tick goroutine — the state it captures is exactly the
// boundary state the next Tick would consume.
//
// Inbox arrival times are stored as deltas against the capture-time clock
// and rebased on the restoring server's clock: the virtual clock restarts
// at its epoch after a process death, but "this packet is due on the next
// tick" survives because due-ness is a comparison against the same clock
// the deltas are rebased on.

// SnapshotBase identifies the full snapshot an incremental is computed
// against: the tick it captured and the chunk revisions it contained.
type SnapshotBase struct {
	Tick int64
	Revs map[world.ChunkPos]uint64
}

// AppendSnapshot appends the server's complete state to dst as one framed
// MLGP snapshot, checksums left for persist.Seal. With base nil the
// snapshot is full; otherwise it is an incremental carrying only chunks
// changed since base (sim/entity/server sections are always complete —
// they are small next to the chunk set). Each section's codec appends its
// payload straight into dst. Must be called between ticks, on the tick
// goroutine.
func (s *Server) AppendSnapshot(dst []byte, base *SnapshotBase) []byte {
	kind, baseTick, worldID := persist.KindFull, int64(0), persist.SectionWorld
	var baseRevs map[world.ChunkPos]uint64
	if base != nil {
		kind, baseTick, worldID = persist.KindIncremental, base.Tick, persist.SectionWorldDelta
		baseRevs = base.Revs
	}
	dst = persist.AppendHeader(dst, kind, s.TickNumber(), baseTick, 4)
	var at int
	dst, at = persist.BeginSection(dst, worldID)
	dst = persist.EndSection(s.w.AppendPersist(dst, baseRevs), at)
	dst, at = persist.BeginSection(dst, persist.SectionSim)
	dst = persist.EndSection(s.engine.AppendPersist(dst), at)
	dst, at = persist.BeginSection(dst, persist.SectionEntities)
	dst = persist.EndSection(s.ents.AppendPersist(dst), at)
	dst, at = persist.BeginSection(dst, persist.SectionServer)
	return persist.EndSection(s.appendServerSection(dst), at)
}

// EncodeSnapshot captures the server's complete state as a decoded MLGP
// snapshot (see AppendSnapshot). Must be called between ticks, on the tick
// goroutine.
func (s *Server) EncodeSnapshot(base *SnapshotBase) *persist.Snapshot {
	b := s.AppendSnapshot(nil, base)
	persist.Seal(b)
	snap, err := persist.Decode(b)
	if err != nil {
		panic(fmt.Sprintf("server: freshly framed snapshot does not decode: %v", err))
	}
	return snap
}

// Save captures a full snapshot and writes it atomically to the store.
func (s *Server) Save(st *persist.Store) (string, error) {
	b := s.AppendSnapshot(nil, nil)
	persist.Seal(b)
	return st.WriteEncoded(b)
}

func (s *Server) appendServerSection(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	dst = persist.AppendI64(dst, s.tick)
	dst = persist.AppendI64(dst, s.nextPID)
	dst = persist.AppendI64(dst, s.net.Msgs)
	dst = persist.AppendI64(dst, s.net.Bytes)
	dst = persist.AppendI64(dst, s.net.EntityMsgs)
	dst = persist.AppendI64(dst, s.net.EntityBytes)
	dst = persist.AppendI64(dst, int64(s.lastGen))

	dst = persist.AppendU32(dst, uint32(len(s.order)))
	for _, pid := range s.order {
		p := s.players[pid]
		dst = persist.AppendI64(dst, p.ID)
		dst = persist.AppendString(dst, p.Name)
		dst = persist.AppendF64(dst, p.Pos.X)
		dst = persist.AppendF64(dst, p.Pos.Y)
		dst = persist.AppendF64(dst, p.Pos.Z)
		dst = persist.AppendU32(dst, uint32(len(p.pendingChunks)))
		for _, cp := range p.pendingChunks {
			dst = persist.AppendI32(dst, cp.X)
			dst = persist.AppendI32(dst, cp.Z)
		}
	}

	dst = persist.AppendU32(dst, uint32(len(s.inbox)))
	for _, in := range s.inbox {
		dst = persist.AppendI64(dst, in.playerID)
		dst = persist.AppendI64(dst, int64(in.arrival.Sub(now)))
		dst = persist.AppendU32(dst, uint32(in.pkt.ID()))
		dst = persist.AppendBytes(dst, in.pkt.MarshalBody(nil))
	}
	return dst
}

func (s *Server) restoreServerSection(data []byte, wantTick int64) error {
	d := persist.NewDec(data)
	tick := d.I64()
	nextPID := d.I64()
	var net NetTotals
	net.Msgs = d.I64()
	net.Bytes = d.I64()
	net.EntityMsgs = d.I64()
	net.EntityBytes = d.I64()
	lastGen := int(d.I64())

	nPlayers := d.Count(8 + 4 + 3*8 + 4)
	players := make(map[int64]*Player, nPlayers)
	order := make([]int64, 0, nPlayers)
	for i := 0; i < nPlayers; i++ {
		p := &Player{ID: d.I64(), Name: d.String()}
		p.Pos = entity.Vec3{X: d.F64(), Y: d.F64(), Z: d.F64()}
		np := d.Count(8)
		if np > 0 {
			p.pendingChunks = make([]world.ChunkPos, 0, np)
			for j := 0; j < np; j++ {
				p.pendingChunks = append(p.pendingChunks, world.ChunkPos{X: d.I32(), Z: d.I32()})
			}
		}
		if d.Err() != nil {
			break
		}
		if _, dup := players[p.ID]; dup || p.ID <= 0 || p.ID > nextPID {
			return fmt.Errorf("%w: server section: bad player ID %d", persist.ErrCorrupt, p.ID)
		}
		players[p.ID] = p
		order = append(order, p.ID)
	}

	now := s.clock.Now()
	nIn := d.Count(8 + 8 + 4 + 4)
	inbox := make([]inbound, 0, nIn)
	for i := 0; i < nIn; i++ {
		pid := d.I64()
		delta := time.Duration(d.I64())
		pktID := protocol.PacketID(d.U32())
		body := d.Bytes()
		if d.Err() != nil {
			break
		}
		pkt, err := protocol.New(pktID)
		if err != nil {
			return fmt.Errorf("%w: server section: inbox packet %d: %v", persist.ErrCorrupt, i, err)
		}
		if err := pkt.UnmarshalBody(body); err != nil {
			return fmt.Errorf("%w: server section: inbox packet %d: %v", persist.ErrCorrupt, i, err)
		}
		inbox = append(inbox, inbound{playerID: pid, pkt: pkt, arrival: now.Add(delta)})
	}

	if err := d.Err(); err != nil {
		return fmt.Errorf("server section: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: server section has %d trailing bytes", persist.ErrCorrupt, d.Remaining())
	}
	if tick != wantTick {
		return fmt.Errorf("%w: server section tick %d != snapshot tick %d", persist.ErrCorrupt, tick, wantTick)
	}

	s.mu.Lock()
	s.tick = tick
	s.nextPID = nextPID
	s.net = net
	s.lastGen = lastGen
	s.players = players
	s.order = order
	s.inbox = inbox
	s.inboxDue = nil
	s.chatEchoes = nil
	s.pendingChat = nil
	s.crashed = false
	s.crashReason = ""
	s.mu.Unlock()
	s.blockChanges = nil
	s.blockChangeCount = 0
	return nil
}

// RestoreSnapshot loads a resolved snapshot into the server: the full
// world section (plus the incremental's chunk delta, when present) and the
// sim/entity/server sections of the newest file. The server must be
// freshly constructed — same Config, same world generator, no ticks run,
// no players connected; socket sessions never survive a process death, so
// restored players have no connection until clients rejoin.
func (s *Server) RestoreSnapshot(res *persist.Resolved) error {
	if res == nil || res.Full == nil {
		return fmt.Errorf("%w: nil snapshot", persist.ErrCorrupt)
	}
	if res.Full.Kind != persist.KindFull {
		return fmt.Errorf("%w: base snapshot is not full", persist.ErrCorrupt)
	}
	newest := res.Full
	if res.Delta != nil {
		if res.Delta.Kind != persist.KindIncremental || res.Delta.BaseTick != res.Full.Tick {
			return fmt.Errorf("%w: delta base tick %d does not match full tick %d",
				persist.ErrCorrupt, res.Delta.BaseTick, res.Full.Tick)
		}
		newest = res.Delta
	}

	worldSec := res.Full.Section(persist.SectionWorld)
	if worldSec == nil {
		return fmt.Errorf("%w: missing world section", persist.ErrCorrupt)
	}
	if err := s.w.RestorePersist(worldSec); err != nil {
		return err
	}
	if res.Delta != nil {
		deltaSec := res.Delta.Section(persist.SectionWorldDelta)
		if deltaSec == nil {
			return fmt.Errorf("%w: incremental missing world delta section", persist.ErrCorrupt)
		}
		if err := s.w.ApplyPersistDelta(deltaSec); err != nil {
			return err
		}
	}

	simSec := newest.Section(persist.SectionSim)
	if simSec == nil {
		return fmt.Errorf("%w: missing sim section", persist.ErrCorrupt)
	}
	if err := s.engine.RestorePersist(simSec); err != nil {
		return err
	}
	entSec := newest.Section(persist.SectionEntities)
	if entSec == nil {
		return fmt.Errorf("%w: missing entity section", persist.ErrCorrupt)
	}
	if err := s.ents.RestorePersist(entSec); err != nil {
		return err
	}
	srvSec := newest.Section(persist.SectionServer)
	if srvSec == nil {
		return fmt.Errorf("%w: missing server section", persist.ErrCorrupt)
	}
	return s.restoreServerSection(srvSec, newest.Tick)
}

// PlayerIDs returns the connected player IDs in deterministic join order.
func (s *Server) PlayerIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.order...)
}
