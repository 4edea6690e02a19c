package main

import (
	"runtime"
	"time"

	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
)

// rig is one built episode: a fresh world, its server or cluster, and its
// clients, driven in a closed loop by the one goroutine that calls measure.
// Round k+1 starts when round k has returned, so the server is saturated by
// construction — the paper's overload regime.
type rig interface {
	// input hands the server this round's client packets.
	input(ep *episodeData, tr *tracer, root int)
	// tick advances the world one tick and appends its wall time to
	// ep.tickNS. With a tracer it records one span per layer call under root.
	tick(ep *episodeData, tr *tracer, root int) server.TickRecord
	// output collects what came back to the clients this round.
	output(ep *episodeData, tr *tracer, root int)
	// begin marks the start of the measured window on the client side.
	begin()
	// settle, after the window, blocks until everything the clients sent
	// has come back (what has not is counted in ep.lost) and moves the
	// client-side samples into ep. It may tick the world further.
	settle(ep *episodeData)
	// totals reads the servers' cumulative counters.
	totals() totals
	// state fingerprints the simulation state between ticks.
	state() (entitySum uint64, chunks []world.ChunkState)
	// close tears down everything the episode started: listeners, gateway,
	// sessions, connections, snapshot writer, temp dirs. Leaking them drifts
	// later episodes' numbers.
	close()
}

// totals are cumulative server-side counters; measure keeps the difference
// over the window.
type totals struct {
	net                  server.NetTotals
	simFallback          int64 // sim ticks whose parallel attempt was rolled back
	entRetick            int64 // entity ticks that re-ticked an escaped entity
	dropped, keyframes   int64 // outbound batches dropped, keyframe fallbacks
	msgsIn, bytesIn      int64 // what the real-TCP clients read
	snapSkipped, snapErr int   // autosaves skipped (writer busy), writer in error (0/1)
}

// plus returns a + sign×b; snapErr, a state rather than a count, adds but
// never subtracts.
func (a totals) plus(b totals, sign int64) totals {
	a.net.Msgs += sign * b.net.Msgs
	a.net.Bytes += sign * b.net.Bytes
	a.net.EntityMsgs += sign * b.net.EntityMsgs
	a.net.EntityBytes += sign * b.net.EntityBytes
	a.simFallback += sign * b.simFallback
	a.entRetick += sign * b.entRetick
	a.dropped += sign * b.dropped
	a.keyframes += sign * b.keyframes
	a.msgsIn += sign * b.msgsIn
	a.bytesIn += sign * b.bytesIn
	a.snapSkipped += int(sign) * b.snapSkipped
	if sign > 0 {
		a.snapErr += b.snapErr
	}
	return a
}

// setupInfo is what building an episode cost.
type setupInfo struct {
	wallNS    int64   // build world, install, connect, warm
	connectNS []int64 // one per client
	genNS     int64   // timed EnsureArea calls
	genChunks int     // chunks those calls generated
}

// tally is what an episode counts and a run adds up over its episodes.
type tally struct {
	// Sums over the measured ticks' records.
	simRegions, entRegions   int
	simParallel, entParallel int
	entitiesPeak             int
	overBudget               int // ticks over the 50 ms budget, wall time
	crashed                  int // ticks that crashed the server or faulted the exchange

	pktsIn    int // client packets written
	probes    int // chat probes written
	snapshots int // autosave cadence points
	lost      int // probes never echoed + clients that never saw the final tick
	totals    totals

	diverged bool // twin rig: B's counters or end state differed from A's
}

func (t *tally) merge(o tally) {
	t.simRegions += o.simRegions
	t.entRegions += o.entRegions
	t.simParallel += o.simParallel
	t.entParallel += o.entParallel
	t.entitiesPeak = max(t.entitiesPeak, o.entitiesPeak)
	t.overBudget += o.overBudget
	t.crashed += o.crashed
	t.pktsIn += o.pktsIn
	t.probes += o.probes
	t.snapshots += o.snapshots
	t.lost += o.lost
	t.totals = t.totals.plus(o.totals, 1)
	t.diverged = t.diverged || o.diverged
}

// episodeData is one episode's samples.
type episodeData struct {
	setup setupInfo

	tickNS   []int64 // wall time of each Tick call
	counters []tickCounters
	rttNS    [][]int64 // per client, chat probe: client write → own echo read
	windowNS int64     // whole closed loop, clients included
	mallocs  uint64
	allocB   uint64

	tally

	digest uint64
	// halfDigest fingerprints the state after the first half of the window;
	// the traced run's half-length comparison episodes must reproduce it.
	halfDigest uint64
}

func newEpisodeData(ticks, clients, probesEach int) *episodeData {
	ep := &episodeData{
		tickNS:   make([]int64, 0, ticks),
		counters: make([]tickCounters, 0, ticks),
		rttNS:    make([][]int64, clients),
	}
	for i := range ep.rttNS {
		ep.rttNS[i] = make([]int64, 0, probesEach)
	}
	return ep
}

// echoed is how many probes came back.
func (ep *episodeData) echoed() int {
	n := 0
	for _, c := range ep.rttNS {
		n += len(c)
	}
	return n
}

func (ep *episodeData) note(rec server.TickRecord) {
	ep.counters = append(ep.counters, tickCounters{rec.Sim, rec.Ent})
	ep.simRegions += rec.SimRegions
	ep.entRegions += rec.EntRegions
	if rec.SimParallel {
		ep.simParallel++
	}
	if rec.EntParallel {
		ep.entParallel++
	}
	ep.entitiesPeak = max(ep.entitiesPeak, rec.Entities)
	if rec.Crashed {
		ep.crashed++
	}
	if time.Duration(ep.tickNS[len(ep.tickNS)-1]) > server.TickBudget {
		ep.overBudget++
	}
}

// tickSpan is the Tick field of an episode's spans: episode number and
// closed-loop round, so spans of one round share one identifier.
func tickSpan(episode, round int) int64 { return int64(episode)*100000 + int64(round) }

// measure drives r through one measured window of ticks closed-loop rounds.
// half > 0 also fingerprints the state after that many rounds (the window's
// clock stops for it; only the traced run asks).
func measure(r rig, sz size, episode, ticks, half int, tr *tracer) *episodeData {
	r.begin()
	ep := newEpisodeData(ticks, sz.players, ticks/sz.probeEvery+1)
	t0 := r.totals()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var paused time.Duration
	for k := 0; k < ticks; k++ {
		root := 0
		if tr != nil {
			root = tr.begin("tick", 0, tickSpan(episode, k+1))
		}
		r.input(ep, tr, root)
		rec := r.tick(ep, tr, root)
		r.output(ep, tr, root)
		if tr != nil {
			tr.end(root)
		}
		ep.note(rec)
		if k+1 == half {
			p0 := time.Now()
			ep.halfDigest = digestOf(r, ep.counters)
			paused = time.Since(p0)
		}
	}
	ep.windowNS = int64(time.Since(start) - paused)
	runtime.ReadMemStats(&m1)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.allocB = m1.TotalAlloc - m0.TotalAlloc

	ep.digest = digestOf(r, ep.counters)
	ep.totals = r.totals().plus(t0, -1)
	r.settle(ep)
	return ep
}

func digestOf(r rig, counters []tickCounters) uint64 {
	d := newStateDigest()
	d.ticks(counters)
	d.state(r.state())
	return d.sum()
}

// idleRound runs one unmeasured closed-loop round, its samples going to
// scratch: warm-up, and the ticks between persist probes.
func idleRound(r rig, scratch *episodeData) server.TickRecord {
	scratch.tickNS = scratch.tickNS[:0]
	r.input(scratch, nil, 0)
	rec := r.tick(scratch, nil, 0)
	r.output(scratch, nil, 0)
	return rec
}

// layer runs fn, under a span of the round's root span when tracing.
func layer(tr *tracer, name string, root int, fn func()) {
	if tr == nil {
		fn()
		return
	}
	id := tr.begin(name, root, tr.spans[root-1].Tick)
	fn()
	tr.end(id)
}
