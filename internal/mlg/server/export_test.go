package server

import (
	"repro/internal/mlg/persist"
	"repro/internal/mlg/world"
)

// CheckAllocs is checkAllocs for the external test package.
var CheckAllocs = checkAllocs

// ReferenceEncodeSnapshot is the oracle for AppendSnapshot: the section
// assembly EncodeSnapshot used before snapshots were framed in place, kept
// verbatim — each codec appends into its own nil slice, and
// persist.Encode of the result gives the reference file bytes.
var ReferenceEncodeSnapshot = (*Server).referenceEncodeSnapshot

func (s *Server) referenceEncodeSnapshot(base *SnapshotBase) *persist.Snapshot {
	s.mu.Lock()
	tick := s.tick
	s.mu.Unlock()
	snap := &persist.Snapshot{Kind: persist.KindFull, Tick: tick}
	worldID := persist.SectionWorld
	var baseRevs map[world.ChunkPos]uint64
	if base != nil {
		snap.Kind = persist.KindIncremental
		snap.BaseTick = base.Tick
		baseRevs = base.Revs
		worldID = persist.SectionWorldDelta
	}
	snap.Sections = []persist.Section{
		{ID: worldID, Payload: s.w.AppendPersist(nil, baseRevs)},
		{ID: persist.SectionSim, Payload: s.engine.AppendPersist(nil)},
		{ID: persist.SectionEntities, Payload: s.ents.AppendPersist(nil)},
		{ID: persist.SectionServer, Payload: s.appendServerSection(nil)},
	}
	return snap
}
