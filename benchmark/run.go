package main

import (
	"fmt"
	"io"
)

// options selects one run of one workload.
type options struct {
	wl      *workloadDef
	sz      size
	seed    int64
	seconds float64 // how long to measure, to the nearest whole episode
	trace   bool
	out     io.Writer // the human-readable report
	tmp     string    // where snapshot stores and the trace file go
}

// metricValue and result are the run's last output line, in the shape the
// driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// episodeTimes is one episode's own end-to-end timings. Episodes of a run are
// identical work, so what differs between them is the host; the untraced run
// reports each timing as the quiet quartile over its episodes.
type episodeTimes struct {
	ticksPerS        float64 // ticks over the wall time inside Tick calls
	tickP50, tickP99 float64 // ms
	rttP50           float64 // ms, per client, averaged over clients
}

// pooled is the samples of all episodes of one kind in a run.
type pooled struct {
	episodes  int
	times     []episodeTimes
	ticks     int
	tickNS    []int64
	rttNS     [][]int64 // per client
	setupS    []float64
	connectNS []int64
	windowNS  int64
	mallocs   uint64
	allocB    uint64
	// firstHalfNS is the tick time of each episode's first half-window, what
	// the half-length comparison episodes are compared with.
	firstHalfNS, firstHalfTicks int64

	genNS     int64
	genChunks int

	tally

	blockUpdates, explosionBlocks   int
	entitySteps, inactive, pathNode int
}

func (p *pooled) add(ep *episodeData) {
	p.episodes++
	p.ticks += len(ep.tickNS)
	p.tickNS = append(p.tickNS, ep.tickNS...)
	if p.rttNS == nil {
		p.rttNS = make([][]int64, len(ep.rttNS))
	}
	for i, c := range ep.rttNS {
		p.rttNS[i] = append(p.rttNS[i], c...)
	}
	p.times = append(p.times, ep.times())
	p.setupS = append(p.setupS, float64(ep.setup.wallNS)/1e9)
	p.connectNS = append(p.connectNS, ep.setup.connectNS...)
	p.windowNS += ep.windowNS
	p.mallocs += ep.mallocs
	p.allocB += ep.allocB
	half := len(ep.tickNS) / 2
	p.firstHalfNS += sum64(ep.tickNS[:half])
	p.firstHalfTicks += int64(half)
	p.genNS += ep.setup.genNS
	p.genChunks += ep.setup.genChunks
	p.tally.merge(ep.tally)
	for _, c := range ep.counters {
		p.blockUpdates += c.Sim.BlockUpdates
		p.explosionBlocks += c.Sim.ExplosionBlocks
		p.entitySteps += c.Ent.MobTicks + c.Ent.ItemTicks + c.Ent.TNTTicks
		p.inactive += c.Ent.InactiveSkips
		p.pathNode += c.Ent.PathNodes
	}
}

// ticksPerS is measured ticks over the wall time spent inside Tick calls.
func ticksPerS(tickNS []int64) float64 {
	if t := sum64(tickNS); t > 0 {
		return float64(len(tickNS)) / (float64(t) / 1e9)
	}
	return 0
}

func (p *pooled) ticksPerS() float64 { return ticksPerS(p.tickNS) }

// times takes the episode's own percentiles, whatever its sample count: the
// percentile rule is kept on the run's pooled count (report.quiet).
func (ep *episodeData) times() episodeTimes {
	t := episodeTimes{ticksPerS: ticksPerS(ep.tickNS)}
	ms := msOf(ep.tickNS)
	t.tickP50, _ = percentile(ms, 0.50, 0)
	t.tickP99, _ = percentile(ms, 0.99, 0)
	t.rttP50, _, _ = clientPercentile(ep.rttNS, 0.50, 0)
	return t
}

// series is one timing over the run's episodes, in episode order.
func (p *pooled) series(of func(episodeTimes) float64) []float64 {
	out := make([]float64, len(p.times))
	for i, t := range p.times {
		out[i] = of(t)
	}
	return out
}

func (p *pooled) perTick(v int) float64 {
	if p.ticks == 0 {
		return 0
	}
	return float64(v) / float64(p.ticks)
}

// report collects a run's metrics and prints each by name and unit with its
// sample count.
type report struct {
	o       options
	defs    []metricDef
	metrics map[string]metricValue
	err     error
}

func (rp *report) def(name string) metricDef {
	for _, d := range rp.defs {
		if d.name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func (rp *report) set(name string, v float64, n int) {
	unit := rp.def(name).unit
	rp.metrics[name] = metricValue{Value: v, Unit: unit}
	fmt.Fprintf(rp.o.out, "%-8s %-32s %14.4f %-6s n=%d\n", rp.o.wl.name, name, v, unit, n)
}

// pct reports the q-quantile of sorted ms samples; an empty series (a layer
// the workload does not use) reads 0, too few samples fail the run.
func (rp *report) pct(name string, sortedMS []float64, q float64) {
	if len(sortedMS) == 0 {
		rp.set(name, 0, 0)
		return
	}
	v, err := percentile(sortedMS, q, rp.o.sz.minBeyond)
	if err != nil && rp.err == nil {
		rp.err = fmt.Errorf("%s: %w (measure longer: raise -seconds)", name, err)
	}
	rp.set(name, v, len(sortedMS))
}

// clientPercentile takes the q-quantile of each client's own samples (ms) and
// averages over the clients. Clients are not interchangeable — in cluster the
// bot whose shard ticks first waits a round longer for every echo — and a
// percentile of the pooled, bimodal samples sits on the edge between the
// modes, where it jumps from run to run. n is the total sample count.
func clientPercentile(perClient [][]int64, q float64, minBeyond int) (v float64, n int, err error) {
	for _, c := range perClient {
		one, perr := percentile(msOf(c), q, minBeyond)
		if perr != nil && err == nil {
			err = perr
		}
		v += one / float64(len(perClient))
		n += len(c)
	}
	return v, n, err
}

// quiet reports the quiet quartile of a timing over the run's episodes. A
// percentile (q > 0) is each episode's own; the percentile rule is kept on
// the run's pooled count of pooledN samples.
func (rp *report) quiet(name string, perEpisode []float64, q float64, pooledN int) {
	if q > 0 {
		if err := enough(pooledN, q, rp.o.sz.minBeyond); err != nil && rp.err == nil {
			rp.err = fmt.Errorf("%s: %w (measure longer: raise -seconds)", name, err)
		}
	}
	rp.set(name, quietQuartile(perEpisode, rp.def(name).higherBetter), pooledN)
}

// finish fills layers the workload never touched with 0 and checks nothing
// declared is missing.
func (rp *report) finish() {
	for _, d := range rp.defs {
		if _, ok := rp.metrics[d.name]; !ok {
			rp.set(d.name, 0, 0)
		}
	}
}

func build(o options, workers int, traced bool, topo topology) (rig, setupInfo, error) {
	if o.wl.name == "cluster" {
		return buildNet(o.sz, o.seed, workers, topo, traced)
	}
	return buildInproc(o.wl.name, o.sz, o.seed, workers, traced, o.tmp)
}

// moreEpisodes decides whether to measure another whole episode after n of
// them took windowNS: always up to atLeast, then while the total stays nearer
// to the target with one more than without.
func moreEpisodes(n, atLeast int, windowNS int64, seconds float64) bool {
	if n < atLeast {
		return true
	}
	perEpisode := float64(windowNS) / 1e9 / float64(max(n, 1))
	return float64(windowNS)/1e9+perEpisode/2 < seconds
}

// episode builds, measures and tears down one episode.
func episode(o options, n int, workers int, traced bool, topo topology, ticks, half int, tr *tracer,
	after func(rig, *episodeData) error) (*episodeData, error) {
	r, info, err := build(o, workers, traced, topo)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ep := measure(r, o.sz, n, ticks, half, tr)
	ep.setup = info
	if after != nil {
		if err := after(r, ep); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics), prints the report and returns the result and
// the state digest. A failed output check is an error.
func runWorkload(o options) (result, uint64, error) {
	if o.trace {
		return runTraced(o)
	}
	return runUntraced(o)
}

// minRepeats is the least number of episodes in an untraced run: setup_s is
// their median and every timing their quiet quartile, and a quartile of fewer
// than four is nobody's quartile.
const minRepeats = 4

func runUntraced(o options) (result, uint64, error) {
	var p pooled
	var digest uint64
	for n := 0; moreEpisodes(n, max(o.sz.minEpisodes, minRepeats), p.windowNS, o.seconds); n++ {
		ep, err := episode(o, n, 0, false, viaGateway, o.sz.ticks, 0, nil, nil)
		if err != nil {
			return result{}, 0, err
		}
		if n == 0 {
			digest = ep.digest
		} else if ep.digest != digest {
			return result{}, 0, fmt.Errorf("episode %d ended in state %#x, episode 0 in %#x: the same inputs gave different output", n, ep.digest, digest)
		}
		p.add(ep)
		t := p.times[n]
		fmt.Fprintf(o.out, "%-8s episode %d: setup_s=%.4f ticks_per_s=%.2f tick_ms_p50=%.4f tick_ms_p99=%.3f probe_rtt_ms_p50=%.4f\n",
			o.wl.name, n, p.setupS[n], t.ticksPerS, t.tickP50, t.tickP99, t.rttP50)
	}
	fmt.Fprintf(o.out, "%-8s episodes=%d ticks=%d window_s=%.2f digest=%#x\n",
		o.wl.name, p.episodes, p.ticks, float64(p.windowNS)/1e9, digest)

	rp := &report{o: o, defs: endToEnd, metrics: map[string]metricValue{}}
	rp.set("setup_s", median(p.setupS), len(p.setupS))
	rp.quiet("ticks_per_s", p.series(func(t episodeTimes) float64 { return t.ticksPerS }), 0, p.ticks)
	rp.quiet("tick_ms_p50", p.series(func(t episodeTimes) float64 { return t.tickP50 }), 0.50, p.ticks)
	rp.quiet("tick_ms_p99", p.series(func(t episodeTimes) float64 { return t.tickP99 }), 0.99, p.ticks)
	rp.set("allocs_per_tick", float64(p.mallocs)/float64(p.ticks), p.ticks)
	rp.set("alloc_kb_per_tick", float64(p.allocB)/1e3/float64(p.ticks), p.ticks)
	rss, err := rssPeakMB()
	if err != nil {
		return result{}, 0, err
	}
	rp.set("rss_peak_mb", rss, 1)
	probesEach := len(p.rttNS[0]) // every client probes as often
	rp.quiet("probe_rtt_ms_p50", p.series(func(t episodeTimes) float64 { return t.rttP50 }), 0.50, probesEach)
	rp.finish()
	if rp.err != nil {
		return result{}, 0, rp.err
	}
	return p.result(o, rp.metrics), digest, nil
}

// result counts what was attempted — ticks, probes, autosaves, and one
// delivery per real-TCP bot per tick — and what failed: crashed or faulted
// ticks, probes never echoed, bots that never saw the final tick, a
// snapshot writer in error, outbound batches dropped.
func (p *pooled) result(o options, metrics map[string]metricValue) result {
	res := result{Correct: true, Metrics: metrics}
	res.Attempted = int64(p.ticks + p.probes + p.snapshots)
	if o.wl.name == "cluster" {
		res.Attempted += int64(p.ticks * o.sz.players)
	}
	res.Failed = int64(p.crashed+p.lost+p.totals.snapErr) + p.totals.dropped
	fmt.Fprintf(o.out, "%-8s attempted=%d failed=%d fail_share=%g (bad ticks %d, lost probes and deliveries %d, dropped batches %d, snapshot writer errors %d)\n",
		o.wl.name, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted),
		p.crashed, p.lost, p.totals.dropped, p.totals.snapErr)
	return res
}
