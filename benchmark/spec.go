package main

// The benchmark's fixed vocabulary: workloads, metric names and units, and
// the sizes every run uses. BENCHMARK.json at the repository root repeats the
// names, units and bounds for the driver; smoke_test.go keeps the two equal.

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// higherBetter is false for costs (times, allocations, memory).
	higherBetter bool
}

// endToEnd lists what a user of the server sees. Every workload reports all
// of them from an untraced run. The issue's tenth metric, fail_share, is the
// result line's failed ÷ attempted pair: the driver reads those two counts
// itself, and a metric whose expected value is 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ticks_per_s", "1/s", true},
	{"tick_ms_p50", "ms", false},
	{"tick_ms_p99", "ms", false},
	{"allocs_per_tick", "count", false},
	{"alloc_kb_per_tick", "kB", false},
	{"rss_peak_mb", "MB", false},
	{"probe_rtt_ms_p50", "ms", false},
}

// perLayer lists the traced run's metrics, layer = module name. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sim.tick_ms_p50", "ms", false},
	{"sim.tick_ms_p99", "ms", false},
	{"sim.busy_share", "share", false},
	{"sim.explode_ms_p99", "ms", false},
	{"sim.explode_share", "share", false},
	{"sim.block_updates_per_tick", "count", false},
	{"sim.explosion_blocks_per_tick", "count", false},
	{"sim.regions_per_tick", "count", true},
	{"sim.parallel_tick_share", "share", true},
	{"sim.fallback_share", "share", false},

	{"entity.tick_ms_p50", "ms", false},
	{"entity.tick_ms_p99", "ms", false},
	{"entity.busy_share", "share", false},
	{"entity.impulse_ms_p99", "ms", false},
	{"entity.steps_per_tick", "count", false},
	{"entity.inactive_skips_per_tick", "count", true},
	{"entity.path_nodes_per_tick", "count", false},
	{"entity.live_peak", "count", false},
	{"entity.regions_per_tick", "count", true},
	{"entity.parallel_tick_share", "share", true},
	{"entity.retick_share", "share", false},

	{"server.self_ms_p50", "ms", false},
	{"server.self_share", "share", false},
	{"server.inbox_pkts_per_tick", "count", false},
	{"server.msgs_out_per_tick", "count", false},
	{"server.kb_out_per_tick", "kB", false},
	{"server.connect_ms_p50", "ms", false},
	{"server.over_budget_share", "share", false},
	{"server.workers1_ticks_per_s", "1/s", true},
	{"server.parallel_speedup", "ratio", true},

	{"world.gen_us_per_chunk", "us", false},
	{"world.rle_us_per_chunk", "us", false},
	{"world.chunks_loaded", "count", false},

	{"persist.full_ms_p50", "ms", false},
	{"persist.incr_ms_p50", "ms", false},
	{"persist.write_ms_p50", "ms", false},
	{"persist.full_mb", "MB", false},
	{"persist.incr_kb", "kB", false},
	{"persist.restore_ms_p50", "ms", false},
	{"persist.skipped_share", "share", false},

	{"shard.server_tick_ms_p50", "ms", false},
	{"shard.send_ms_p50", "ms", false},
	{"shard.send_ms_p99", "ms", false},
	{"shard.apply_ms_p50", "ms", false},
	{"shard.apply_ms_p99", "ms", false},
	{"shard.exchange_share", "share", false},
	{"shard.imbalance", "ratio", false},
	{"shard.tax_ratio", "ratio", false},
	{"shard.gateway_add_ms_p50", "ms", false},

	{"protocol.pkts_in_per_tick", "count", false},
	{"protocol.kb_in_per_tick", "kB", false},
	{"protocol.deliver_ms_p50", "ms", false},
	{"protocol.deliver_ms_p90", "ms", false},
	{"protocol.probe_rtt_ms_p90", "ms", false},
	{"protocol.probe_rtt_ms_p99", "ms", false},
	{"protocol.dropped_batches", "count", false},
	{"protocol.keyframes", "count", false},

	{"trace.overhead_share", "share", false},
	{"trace.rig_diverged", "count", false},
}

// size fixes how much one episode of a workload does. An episode is a fresh
// server (or cluster) built from the same inputs, so every episode of a run
// must end in the same state.
type size struct {
	ticks int // measured closed-loop ticks per episode
	warm  int // unmeasured ticks before the window (lag: after the backlog clears)
	// minEpisodes is the floor on whole episodes whatever -seconds says, so
	// the pooled tick_ms_p99 always has ten samples beyond it.
	minEpisodes int
	scale       int // construct copies (tnt, lag, cluster)
	players     int // connected clients
	items       int // players: scattered item entities
	area        int // players: pre-loaded chunk radius around (320, 320)
	// probeEvery is the ticks between one client's chat probes. It shares no
	// factor with the workload's own periods — redstone makes every second
	// tick of lag the heavy one, players autosaves every 25th — so that each
	// client's probes sample every kind of tick, whatever its phase.
	probeEvery int
	// minBeyond is how many samples must lie beyond a reported percentile:
	// ten; none at smoke size, whose numbers nobody reads.
	minBeyond int
}

type workloadDef struct {
	name, why   string
	full, smoke size
}

// workloads are sized for a 2-core host: episodes of 1-5 s at full size, so
// that a run of 28 s holds 6 to 30 of them (see README.md for the measured
// rates), about 1/50 of that for the smoke test.
var workloads = []workloadDef{
	{
		name:  "tnt",
		why:   "worst tick-time variability: quiet 0.4 ms ticks against 17 ms explosion ticks; sim explosions and block add/remove, entity physics",
		full:  size{ticks: 300, warm: 40, minEpisodes: 4, scale: 2, players: 1, probeEvery: 5, minBeyond: 10},
		smoke: size{ticks: 110, warm: 5, minEpisodes: 1, scale: 1, players: 1, probeEvery: 5},
	},
	{
		name:  "lag",
		why:   "steady redstone drains in two independent regions: the sim layer alone, and the region-parallel drain",
		full:  size{ticks: 1000, warm: 100, minEpisodes: 1, scale: 2, players: 1, probeEvery: 7, minBeyond: 10},
		smoke: size{ticks: 30, warm: 4, minEpisodes: 1, scale: 1, players: 1, probeEvery: 5},
	},
	{
		name:  "players",
		why:   "200 walking players, 2900 items, natural spawning and async autosave: entity layer does the work, persist owns the tail",
		full:  size{ticks: 2000, warm: 40, minEpisodes: 1, players: 200, items: 2900, area: 21, probeEvery: 21, minBeyond: 10},
		smoke: size{ticks: 60, warm: 10, minEpisodes: 1, players: 20, items: 290, area: 5, probeEvery: 5},
	},
	{
		name:  "cluster",
		why:   "TNT cascade across a 2-shard boundary behind the gateway with 2 real-TCP bots: shard exchange, protocol writers and gateway do the work",
		full:  size{ticks: 400, warm: 30, minEpisodes: 5, scale: 1, players: 2, probeEvery: 4, minBeyond: 10},
		smoke: size{ticks: 110, warm: 10, minEpisodes: 1, scale: 1, players: 2, probeEvery: 4},
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
