package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
)

// tracedRun is what a traced run gathers before it reports.
type tracedRun struct {
	o  options
	tr *tracer
	// twin pools the episodes under the tracer: the twin rig for tnt, lag
	// and players, the harness-composed Cluster.Tick for cluster.
	twin pooled
	// def and w1 pool the untraced half-window comparison episodes at the
	// default worker count and at Sim.Workers = 1.
	def, w1 pooled
	// dir and sgl pool cluster's whole-window comparison episodes: bots
	// dialled straight to the shards, and the same world on one server.
	dir, sgl pooled
	world    worldStats
	persist  persistStats
	digest   uint64
}

// runTraced is the traced run: episodes under the tracer for about half of
// -seconds, then the comparison episodes for about a quarter each.
func runTraced(o options) (result, uint64, error) {
	t := &tracedRun{o: o, tr: newTracer()}
	if err := t.measure(); err != nil {
		return result{}, 0, err
	}
	fmt.Fprintf(o.out, "%-8s traced episodes=%d ticks=%d window_s=%.2f digest=%#x spans=%d\n",
		o.wl.name, t.twin.episodes, t.twin.ticks, float64(t.twin.windowNS)/1e9, t.digest, len(t.tr.spans))
	rp := &report{o: o, defs: perLayer, metrics: map[string]metricValue{}}
	ls := newLayerSeries(t.tr)
	if ls.total("server.Tick") > 0 {
		t.reportTwin(rp, ls)
	}
	t.reportCounts(rp)
	if len(t.persist.fullMS) > 0 {
		t.reportPersist(rp)
	}
	if o.wl.name == "cluster" {
		t.reportCluster(rp, ls)
	}
	// Tracing overhead: the traced run's whole-tick time against the
	// untraced default episodes', over the same first half-window.
	tracedNS := float64(t.twin.firstHalfNS) / float64(t.twin.firstHalfTicks)
	plainNS := float64(sum64(t.def.tickNS)) / float64(t.def.ticks)
	rp.set("trace.overhead_share", tracedNS/plainNS-1, t.def.ticks)
	diverged := 0.0
	if t.twin.diverged {
		// Not a failure: a later change may reorder Server.Tick's phases,
		// and a change that claims a gain may not edit the benchmark.
		diverged = 1
	}
	rp.set("trace.rig_diverged", diverged, t.twin.ticks)
	rp.finish()

	path, err := t.tr.write(o.tmp, o.wl.name)
	if err != nil {
		return result{}, 0, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(o.out, "%-8s trace written to %s (harness self time %.1f ms over %d ticks)\n",
		o.wl.name, path, float64(t.tr.rootSelfNS())/1e6, t.twin.ticks)
	if rp.err != nil {
		return result{}, 0, rp.err
	}
	all := t.twin
	for _, p := range []*pooled{&t.def, &t.w1, &t.dir, &t.sgl} {
		all.ticks += p.ticks
		all.probes += p.probes
		all.snapshots += p.snapshots
		all.crashed += p.crashed
		all.lost += p.lost
		all.totals.snapErr += p.totals.snapErr
		all.totals.dropped += p.totals.dropped
	}
	return all.result(o, rp.metrics), t.digest, nil
}

// measure runs the traced episodes and every comparison episode, checking
// that each ends in the state it must.
func (t *tracedRun) measure() error {
	o, half := t.o, t.o.sz.ticks/2
	var halfDigest uint64
	for n := 0; moreEpisodes(n, o.sz.minEpisodes, t.twin.windowNS, o.seconds/2); n++ {
		h, after := 0, (func(rig, *episodeData) error)(nil)
		if n == 0 {
			// The first episode also fingerprints its state half-way, for
			// the half-window comparison episodes to reproduce, and lends
			// its end state to the world and persist probes.
			h = half
			after = func(r rig, ep *episodeData) (err error) {
				t.world = measureWorld(r)
				if ir, ok := r.(*inprocRig); ok && o.wl.name == "players" {
					t.persist, err = persistProbe(ir, o, t.tr)
				}
				return err
			}
		}
		ep, err := episode(o, n, 0, true, viaGateway, o.sz.ticks, h, t.tr, after)
		if err != nil {
			return err
		}
		if n == 0 {
			t.digest, halfDigest = ep.digest, ep.halfDigest
		} else if ep.digest != t.digest {
			return fmt.Errorf("traced episode %d ended in state %#x, episode 0 in %#x", n, ep.digest, t.digest)
		}
		t.twin.add(ep)
	}

	// Default against Workers=1, alternating, on the first half-window.
	for n := 0; moreEpisodes(n, 1, t.def.windowNS+t.w1.windowNS, o.seconds/4); n++ {
		for _, c := range []struct {
			workers int
			into    *pooled
		}{{0, &t.def}, {1, &t.w1}} {
			ep, err := episode(o, n, c.workers, false, viaGateway, half, 0, nil, nil)
			if err != nil {
				return err
			}
			if ep.digest != halfDigest {
				return fmt.Errorf("untraced episode with Sim.Workers=%d reached state %#x after %d ticks, the traced one %#x",
					c.workers, ep.digest, half, halfDigest)
			}
			c.into.add(ep)
		}
	}
	if o.wl.name != "cluster" {
		return nil
	}

	// What the gateway and the partition cost. These episodes run the same
	// loop as the traced ones; their spans go to a tracer nobody reads.
	var singleDigest uint64
	for n := 0; moreEpisodes(n, 1, t.dir.windowNS+t.sgl.windowNS, o.seconds/4); n++ {
		ep, err := episode(o, n, 0, true, direct, o.sz.ticks, 0, newTracer(), nil)
		if err != nil {
			return err
		}
		if ep.digest != t.digest {
			return fmt.Errorf("cluster with directly dialled bots ended in state %#x, behind the gateway in %#x", ep.digest, t.digest)
		}
		t.dir.add(ep)
		if ep, err = episode(o, n, 0, true, single, o.sz.ticks, 0, newTracer(), nil); err != nil {
			return err
		}
		if n == 0 {
			singleDigest = ep.digest
		} else if ep.digest != singleDigest {
			return fmt.Errorf("single-server episode %d ended in state %#x, episode 0 in %#x", n, ep.digest, singleDigest)
		}
		t.sgl.add(ep)
	}
	return nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// reportTwin reports the layer timings of the twin rig: B's spans, and A's
// whole tick minus their sum for the server layer itself.
func (t *tracedRun) reportTwin(rp *report, ls *layerSeries) {
	ticks := t.twin.ticks
	serverNS := ls.total("server.Tick")
	simNS := ls.total("sim.Tick") + ls.total("sim.MergedExplosions")
	entNS := ls.total("entity.Tick") + ls.total("entity.ApplyExplosionImpulses") + ls.total("entity.DrainChunkUpdates")
	simMS, entMS := msOf(ls.all["sim.Tick"]), msOf(ls.all["entity.Tick"])
	rp.pct("sim.tick_ms_p50", simMS, 0.50)
	rp.pct("sim.tick_ms_p99", simMS, 0.99)
	rp.set("sim.busy_share", share(simNS, serverNS), ticks)
	rp.pct("sim.explode_ms_p99", msOf(ls.perTick("sim.MergedExplosions")), 0.99)
	rp.set("sim.explode_share", share(ls.total("sim.MergedExplosions"), serverNS), len(ls.all["sim.MergedExplosions"]))
	rp.pct("entity.tick_ms_p50", entMS, 0.50)
	rp.pct("entity.tick_ms_p99", entMS, 0.99)
	rp.set("entity.busy_share", share(entNS, serverNS), ticks)
	rp.pct("entity.impulse_ms_p99", msOf(ls.perTick("entity.ApplyExplosionImpulses")), 0.99)
	self := ls.perTick("server.Tick")
	for _, name := range []string{"sim.Tick", "sim.MergedExplosions", "entity.Tick", "entity.ApplyExplosionImpulses", "entity.DrainChunkUpdates"} {
		for i, v := range ls.perTick(name) {
			self[i] -= v
		}
	}
	rp.pct("server.self_ms_p50", msOf(self), 0.50)
	rp.set("server.self_share", share(sum64(self), serverNS), len(self))
}

// reportCounts reports what the servers counted during the traced episodes,
// and the comparison episodes' rates.
func (t *tracedRun) reportCounts(rp *report) {
	p, n := &t.twin, t.twin.ticks
	rp.set("sim.block_updates_per_tick", p.perTick(p.blockUpdates), n)
	rp.set("sim.explosion_blocks_per_tick", p.perTick(p.explosionBlocks), n)
	rp.set("sim.regions_per_tick", p.perTick(p.simRegions), n)
	rp.set("sim.parallel_tick_share", p.perTick(p.simParallel), n)
	rp.set("sim.fallback_share", p.perTick(int(p.totals.simFallback)), n)
	rp.set("entity.steps_per_tick", p.perTick(p.entitySteps), n)
	rp.set("entity.inactive_skips_per_tick", p.perTick(p.inactive), n)
	rp.set("entity.path_nodes_per_tick", p.perTick(p.pathNode), n)
	rp.set("entity.live_peak", float64(p.entitiesPeak), n)
	rp.set("entity.regions_per_tick", p.perTick(p.entRegions), n)
	rp.set("entity.parallel_tick_share", p.perTick(p.entParallel), n)
	rp.set("entity.retick_share", p.perTick(int(p.totals.entRetick)), n)

	rp.set("server.inbox_pkts_per_tick", p.perTick(p.pktsIn), n)
	rp.set("server.msgs_out_per_tick", p.perTick(int(p.totals.net.Msgs)), n)
	rp.set("server.kb_out_per_tick", p.perTick(int(p.totals.net.Bytes))/1e3, n)
	connects := append(append(append([]int64(nil), p.connectNS...), t.def.connectNS...), t.w1.connectNS...)
	rp.set("server.connect_ms_p50", median(msOf(connects)), len(connects))
	rp.set("server.over_budget_share", p.perTick(p.overBudget), n)
	rp.set("server.workers1_ticks_per_s", t.w1.ticksPerS(), t.w1.ticks)
	rp.set("server.parallel_speedup", t.def.ticksPerS()/t.w1.ticksPerS(), t.def.ticks)

	rp.set("world.gen_us_per_chunk", float64(p.genNS)/1e3/float64(max(p.genChunks, 1)), p.genChunks)
	rp.set("world.rle_us_per_chunk", t.world.rleUSPerChunk, t.world.chunks)
	rp.set("world.chunks_loaded", float64(t.world.chunks), 1)
}

func (t *tracedRun) reportPersist(rp *report) {
	ps := t.persist
	rp.set("persist.full_ms_p50", median(ps.fullMS), len(ps.fullMS))
	rp.set("persist.incr_ms_p50", median(ps.incrMS), len(ps.incrMS))
	rp.set("persist.write_ms_p50", median(ps.writeMS), len(ps.writeMS))
	rp.set("persist.full_mb", median(ps.fullMB), len(ps.fullMB))
	rp.set("persist.incr_kb", median(ps.incrKB), len(ps.incrKB))
	rp.set("persist.restore_ms_p50", median(ps.restoreMS), len(ps.restoreMS))
	rp.set("persist.skipped_share", float64(t.twin.totals.snapSkipped)/float64(max(t.twin.snapshots, 1)), t.twin.snapshots)
}

// reportCluster reports the shard and protocol layers from the composed
// Cluster.Tick's spans and the two comparison topologies.
func (t *tracedRun) reportCluster(rp *report, ls *layerSeries) {
	p, n := &t.twin, t.twin.ticks
	rp.pct("shard.server_tick_ms_p50", msOf(ls.all["shard.Tick"]), 0.50)
	sendMS, applyMS := msOf(ls.all["shard.SendTick"]), msOf(ls.all["shard.ApplyTick"])
	rp.pct("shard.send_ms_p50", sendMS, 0.50)
	rp.pct("shard.send_ms_p99", sendMS, 0.99)
	rp.pct("shard.apply_ms_p50", applyMS, 0.50)
	rp.pct("shard.apply_ms_p99", applyMS, 0.99)
	exchange := ls.total("shard.SendTick") + ls.total("shard.ApplyTick")
	rp.set("shard.exchange_share", share(exchange, exchange+ls.total("shard.Tick")), n)
	rp.set("shard.imbalance", ls.imbalance("shard.Tick"), n)
	clusterNS := float64(sum64(p.tickNS)) / float64(p.ticks)
	singleNS := float64(sum64(t.sgl.tickNS)) / float64(t.sgl.ticks)
	rp.set("shard.tax_ratio", clusterNS/singleNS, t.sgl.ticks)
	via50, _, err := clientPercentile(p.rttNS, 0.50, t.o.sz.minBeyond)
	dir50, probes, dirErr := clientPercentile(t.dir.rttNS, 0.50, t.o.sz.minBeyond)
	if err == nil {
		err = dirErr
	}
	if err != nil && rp.err == nil {
		rp.err = fmt.Errorf("shard.gateway_add_ms_p50: %w", err)
	}
	rp.set("shard.gateway_add_ms_p50", via50-dir50, probes)

	bots := float64(t.o.sz.players)
	rp.set("protocol.pkts_in_per_tick", p.perTick(int(p.totals.msgsIn))/bots, n)
	rp.set("protocol.kb_in_per_tick", p.perTick(int(p.totals.bytesIn))/1e3/bots, n)
	deliverMS := msOf(ls.all["bot.deliver"])
	rp.pct("protocol.deliver_ms_p50", deliverMS, 0.50)
	rp.pct("protocol.deliver_ms_p90", deliverMS, 0.90)
	via90, probes, err := clientPercentile(p.rttNS, 0.90, t.o.sz.minBeyond)
	if err != nil && rp.err == nil {
		rp.err = fmt.Errorf("protocol.probe_rtt_ms_p90: %w", err)
	}
	rp.set("protocol.probe_rtt_ms_p90", via90, probes)
	var pooledRTT []int64
	for _, c := range p.rttNS {
		pooledRTT = append(pooledRTT, c...)
	}
	rp.pct("protocol.probe_rtt_ms_p99", msOf(pooledRTT), 0.99)
	rp.set("protocol.dropped_batches", float64(p.totals.dropped), n)
	rp.set("protocol.keyframes", float64(p.totals.keyframes), n)
}

// layerSeries indexes a tracer's spans by layer call.
type layerSeries struct {
	roots map[int]int        // root span ID → its position among the roots
	all   map[string][]int64 // every span's duration, by name
	byPos map[string][]int64 // per root: the summed duration of its children of that name
	spans []span
}

func newLayerSeries(tr *tracer) *layerSeries {
	ls := &layerSeries{roots: map[int]int{}, all: map[string][]int64{}, byPos: map[string][]int64{}, spans: tr.spans}
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name == "tick" {
			ls.roots[s.ID] = len(ls.roots)
		}
	}
	for _, s := range tr.spans {
		pos, ok := ls.roots[s.Parent]
		if !ok {
			continue
		}
		ls.all[s.Name] = append(ls.all[s.Name], s.dur())
		if ls.byPos[s.Name] == nil {
			ls.byPos[s.Name] = make([]int64, len(ls.roots))
		}
		ls.byPos[s.Name][pos] += s.dur()
	}
	return ls
}

func (ls *layerSeries) total(name string) int64 { return sum64(ls.all[name]) }

// perTick returns a copy of the per-tick series of name: one value per
// traced tick, 0 where the call did not happen.
func (ls *layerSeries) perTick(name string) []int64 {
	out := make([]int64, len(ls.roots))
	copy(out, ls.byPos[name])
	return out
}

// imbalance is the mean over ticks of the slowest span of that name over the
// tick's mean span of that name (1 = the shards took equally long).
func (ls *layerSeries) imbalance(name string) float64 {
	maxNS := make([]int64, len(ls.roots))
	count := make([]int64, len(ls.roots))
	for _, s := range ls.spans {
		if pos, ok := ls.roots[s.Parent]; ok && s.Name == name {
			maxNS[pos] = max(maxNS[pos], s.dur())
			count[pos]++
		}
	}
	total, n := 0.0, 0
	for pos, sum := range ls.byPos[name] {
		if sum > 0 {
			total += float64(maxNS[pos]) / (float64(sum) / float64(count[pos]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// worldStats is the world layer's own costs, measured on an episode's end
// state.
type worldStats struct {
	chunks        int
	rleUSPerChunk float64
}

func measureWorld(r rig) worldStats {
	var s *server.Server
	switch r := r.(type) {
	case *inprocRig:
		s = r.s
	case *netRig:
		s = r.servers[0]
	}
	refs := s.World().LoadedChunkRefs()
	var buf []byte
	t0 := time.Now()
	for _, c := range refs {
		buf = c.AppendRLE(buf[:0])
	}
	el := time.Since(t0)
	return worldStats{chunks: len(refs), rleUSPerChunk: float64(el) / 1e3 / float64(max(len(refs), 1))}
}

// persistStats are the persist layer's costs on the players world.
type persistStats struct {
	fullMS, incrMS, writeMS, restoreMS []float64
	fullMB, incrKB                     []float64
}

// persistProbe measures the save path and the read beside it on the live
// server A after its window: a full capture, its write, autosaveEvery more
// ticks, an incremental capture against that full, its write, then
// LoadLatest + RestoreSnapshot into a bare server — whose state must equal
// A's. Ten rounds, or three at smoke size.
func persistProbe(r *inprocRig, o options, tr *tracer) (ps persistStats, err error) {
	dir, err := os.MkdirTemp(o.tmp, "mlg-bench-persist-")
	if err != nil {
		return ps, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.NewStore(dir)
	if err != nil {
		return ps, err
	}
	r.twin = nil // B's part is over; only A is ticked between captures
	rounds := 10
	if o.sz.minBeyond < 10 {
		rounds = 3
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	timed := func(name string, root int, fn func()) float64 {
		id := tr.begin(name, root, tr.spans[root-1].Tick)
		fn()
		return ms(tr.end(id))
	}
	size := func(path string) float64 {
		fi, statErr := os.Stat(path)
		if statErr != nil {
			err = statErr
			return 0
		}
		return float64(fi.Size())
	}
	scratch := newEpisodeData(0, len(r.players), 0)
	for i := 0; i < rounds && err == nil; i++ {
		root := tr.begin("persist.probe", 0, int64(i))
		var full, incr *persist.Snapshot
		var path string
		ps.fullMS = append(ps.fullMS, timed("persist.EncodeSnapshot", root, func() { full = r.s.EncodeSnapshot(nil) }))
		base := &server.SnapshotBase{Tick: full.Tick, Revs: r.s.World().ChunkRevisions()}
		ps.writeMS = append(ps.writeMS, timed("persist.Store.Write", root, func() { path, err = st.Write(full) }))
		if err != nil {
			break
		}
		ps.fullMB = append(ps.fullMB, size(path)/1e6)
		for k := 0; k < autosaveEvery; k++ {
			idleRound(r, scratch)
		}
		ps.incrMS = append(ps.incrMS, timed("persist.EncodeSnapshot.incremental", root, func() { incr = r.s.EncodeSnapshot(base) }))
		timed("persist.Store.Write", root, func() { path, err = st.Write(incr) })
		if err != nil {
			break
		}
		ps.incrKB = append(ps.incrKB, size(path)/1e3)
		bare, _ := newInprocServer(o.wl.name, 0, nil)
		ps.restoreMS = append(ps.restoreMS, timed("persist.restore", root, func() {
			var res *persist.Resolved
			if res, err = st.LoadLatest(); err == nil {
				err = bare.RestoreSnapshot(res)
			}
		}))
		tr.end(root)
		if err != nil {
			break
		}
		live, got := r.s.Snapshot(), bare.Snapshot()
		if d := live.Diff(&got); d != "" {
			err = fmt.Errorf("restored server differs from the live one at tick %d: %s", live.Tick, d)
		}
	}
	if err != nil {
		return ps, fmt.Errorf("persist probe: %w", err)
	}
	return ps, nil
}
