package server

import (
	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/sim"
)

// CostModel converts instrumented operation counts into reference-core
// microseconds. The constants are calibrated so that the absolute tick-time
// magnitudes of the paper's experiments are reproduced on the DAS-5
// reference profile (Control ≈ 10-20 ms ticks on 2 cores, TNT peaks in the
// seconds, Lag heavy ticks of 1-2 s). DefaultCosts is the one instance the
// server accounts with.
type CostModel struct {
	// Player handler costs.
	PlayerMoveUS   float64 // movement validation + collision
	PlayerActionUS float64 // dig/place processing
	ChatUS         float64 // chat handling (sync path)
	AsyncChatUS    float64 // chat handling on Paper's dedicated thread

	// Terrain simulation costs.
	BlockUpdateUS   float64 // one simulation-rule application
	RedstoneExtraUS float64 // additional cost of a logic-component update
	BlockAddRmUS    float64 // block creation/destruction
	ExplosionCellUS float64 // one blast-volume cell scan
	LightScanUS     float64 // one lighting column block scan
	// RandomTickUS is charged per random-tick sample the rate implies,
	// including the samples of chunks with nothing to grow, which the
	// engine counts without drawing. Charging them keeps the goldens; it
	// also means the modelled clock pays for work the wall clock skips.
	RandomTickUS float64

	// Entity costs.
	MobUS          float64 // full mob tick (AI + physics)
	ItemUS         float64 // item tick
	TNTUS          float64 // primed TNT tick
	PathNodeUS     float64 // one A* node expansion
	SpawnAttemptUS float64 // one dynamic spawn-point computation

	// Networking and upkeep costs.
	MsgUS         float64 // per state-update message serialization + enqueue
	ByteUS        float64 // per payload byte
	ChunkGenUS    float64 // one chunk generation
	ChunkSendUS   float64 // one chunk serialization for a joining player
	ChunkUpkeepUS float64 // per loaded chunk per tick bookkeeping
	TickFixedUS   float64 // fixed game-loop overhead per tick
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		PlayerMoveUS:   55,
		PlayerActionUS: 120,
		ChatUS:         90,
		AsyncChatUS:    40,

		BlockUpdateUS:   4.0,
		RedstoneExtraUS: 145,
		BlockAddRmUS:    16,
		ExplosionCellUS: 5.5,
		LightScanUS:     1.1,
		RandomTickUS:    1.6,

		MobUS:          95,
		ItemUS:         22,
		TNTUS:          35,
		PathNodeUS:     2.4,
		SpawnAttemptUS: 30,

		MsgUS:         2.4,
		ByteUS:        0.004,
		ChunkGenUS:    1200,
		ChunkSendUS:   600,
		ChunkUpkeepUS: 28,
		TickFixedUS:   1200,
	}
}

// tickCounts gathers every instrumented count for one tick; the cost model
// turns it into env.Work.
type tickCounts struct {
	sim sim.Counters
	ent entity.Counters

	playerMoves   int
	playerActions int
	chats         int

	msgsOut  int
	bytesOut int64

	chunksGenerated int
	chunksSent      int
	chunksLoaded    int

	// Async outbound-path instrumentation (real connections only; the cost
	// model ignores these — enqueueing is free by design, the whole point
	// of the per-connection writers).
	netDrops       int
	netKeyframes   int
	netQueuedBytes int
}

// Work converts one tick's counts into environment work, applying the
// flavor's event overhead and parallelism profile.
func (cm CostModel) Work(c tickCounts, f Flavor) env.Work {
	w := env.Work{Threads: f.Threads}

	w.PlayerUS = float64(c.playerMoves)*cm.PlayerMoveUS +
		float64(c.playerActions)*cm.PlayerActionUS +
		float64(c.chats)*cm.ChatUS

	w.BlockUpdateUS = float64(c.sim.BlockUpdates)*cm.BlockUpdateUS +
		float64(c.sim.RedstoneOps)*cm.RedstoneExtraUS +
		float64(c.sim.RandomTicks)*cm.RandomTickUS

	w.BlockAddRemoveUS = float64(c.sim.BlockAdds+c.sim.BlockRemoves) * cm.BlockAddRmUS

	// Blast-volume scanning is entity work: the primed TNT entity performs
	// the explosion during its tick, which is how the paper's profiling
	// attributes it (MF4: entity processing dominates the TNT workload).
	w.EntityUS = float64(c.ent.MobTicks)*cm.MobUS +
		float64(c.ent.ItemTicks)*cm.ItemUS +
		float64(c.ent.TNTTicks)*cm.TNTUS +
		float64(c.sim.ExplosionScan)*cm.ExplosionCellUS +
		float64(c.ent.PathNodes)*cm.PathNodeUS +
		float64(c.ent.SpawnAttempts)*cm.SpawnAttemptUS

	w.LightUS = float64(c.sim.LightScans) * cm.LightScanUS

	w.NetworkUS = float64(c.msgsOut)*cm.MsgUS +
		float64(c.bytesOut)*cm.ByteUS +
		float64(c.chunksSent)*cm.ChunkSendUS

	w.UpkeepUS = float64(c.chunksLoaded)*cm.ChunkUpkeepUS +
		float64(c.chunksGenerated)*cm.ChunkGenUS +
		cm.TickFixedUS

	// Forge's event bus wraps block and entity operations.
	if f.EventOverhead != 0 && f.EventOverhead != 1 {
		w.PlayerUS *= f.EventOverhead
		w.BlockUpdateUS *= f.EventOverhead
		w.BlockAddRemoveUS *= f.EventOverhead
		w.EntityUS *= f.EventOverhead
	}

	// The flavor's parallel fraction is the work-weighted blend of what it
	// can move off the main thread: a share of entity work, block
	// add/remove batches, lighting, and most of networking. Simulation-rule
	// cascades (BlockUpdateUS) stay serial for every flavor: each rule
	// iteration depends on the previous one's state change (§2.3), which is
	// why even PaperMC cannot parallelize a lag machine away.
	total := w.TotalUS()
	if total > 0 {
		par := w.EntityUS*f.EntityParallel +
			w.BlockAddRemoveUS*f.EnvParallel +
			w.LightUS*0.5 + w.NetworkUS*0.8
		w.ParallelFraction = par / total
	}
	return w
}
