// Package swarm is the reusable real-TCP load generator behind cmd/botswarm
// and the outbound-path benchmarks: it ramps a configurable swarm of
// emulated players onto an MLG server (an external address, or a self-hosted
// in-process server on a loopback listener), optionally injects peer faults
// — readers that stall mid-run, readers that drain slowly, connection churn
// — and reports tail latency: chat-probe response time for every mode, plus
// tick-duration percentiles, ISR and outbound fault counters when the
// server is self-hosted.
package swarm

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
)

// Config parameterizes one swarm run.
type Config struct {
	// Addr is the target server address. Empty self-hosts an in-process
	// server on a loopback listener (the benchmark configuration).
	Addr string

	// Bots is the swarm size.
	Bots int
	// Behavior selects what bots do each tick (default bot.RandomWalk).
	Behavior bot.Behavior
	// ProbeEvery is the chat response-time probe interval per bot; zero
	// disables probing.
	ProbeEvery time.Duration
	// Area is the random-walk square side in blocks (default 32).
	Area float64

	// RampChunk bots connect per ramp step, RampEvery apart (defaults: 25
	// per step, back to back). Yardstick-style pacing so a connection burst
	// does not masquerade as tick load.
	RampChunk int
	RampEvery time.Duration

	// Settle is how long to wait between the last connection and the start
	// of the measured window, so join bursts (owed chunks, first keyframes)
	// drain before tail percentiles are recorded.
	Settle time.Duration

	// Duration is the measured window after the ramp completes.
	Duration time.Duration

	// StallReaders bots stop reading their sockets StallAfter into the
	// measured window and never resume — the dead-peer fault. The server
	// must drop their batches and eventually disconnect them without the
	// tick noticing.
	StallReaders int
	StallAfter   time.Duration
	// SlowReaders bots throttle to one read per ReadDelay — the slow-peer
	// fault that exercises backpressure without a write-deadline kill.
	SlowReaders int
	ReadDelay   time.Duration
	// ChurnEvery, when > 0, disconnects one bot and connects a replacement
	// every ChurnEvery during the measured window.
	ChurnEvery time.Duration

	// Mobs spawns a mob herd at the walk area before the run (self-hosted
	// only): ambient entity traffic for every connected bot.
	Mobs int

	// ReadBuffer shrinks every bot's TCP receive buffer (bytes; zero keeps
	// the OS default). Fault-injection runs set it small so paused readers
	// push backpressure onto the server within the test window instead of
	// hiding behind kernel buffering.
	ReadBuffer int

	// Seed makes bot behaviour (and the self-hosted world) deterministic.
	Seed int64

	// Server overrides the self-hosted server configuration; nil uses
	// server.DefaultConfig(server.Vanilla).
	Server *server.Config
}

func (c Config) withDefaults() Config {
	if c.Bots <= 0 {
		c.Bots = 25
	}
	if c.Area <= 0 {
		c.Area = 32
	}
	if c.RampChunk <= 0 {
		c.RampChunk = 25
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one swarm run's measurements. Tick-side fields (TickMS,
// P99TickMS, ISR, Outbound, FinalPlayers) are populated only for self-hosted
// runs; against an external address only the client-side views are known.
type Result struct {
	Bots      int // requested swarm size
	Connected int // bots that completed login
	Dropped   int // bots whose connection ended before the run did

	Probes int             // completed chat probes
	RTTMS  metrics.Summary // probe response time, milliseconds

	Ticks     int
	TickMS    metrics.Summary // tick busy duration, milliseconds
	P99TickMS float64
	// ISR is the Instability Ratio (Equation 1) of the measured window's
	// start-to-start tick periods.
	ISR float64
	// Outbound covers the self-hosted server's whole life, ramp included.
	Outbound     server.OutboundStats
	FinalPlayers int

	Elapsed time.Duration
}

// Run executes one swarm run and blocks until it completes.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Bots: cfg.Bots}

	addr := cfg.Addr
	var srv *server.Server
	var win window
	if addr == "" {
		var ln net.Listener
		var err error
		srv, ln, err = selfHost(cfg, win.observe)
		if err != nil {
			return res, err
		}
		defer func() { srv.Stop(); ln.Close() }()
		addr = ln.Addr().String()
	}

	// Ramp the swarm on. Faulty readers are picked from the tail of the
	// swarm so bot-00..bot-NN stay the healthy measurement population.
	start := time.Now()
	clients := make([]*bot.Client, 0, cfg.Bots)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < cfg.Bots; i++ {
		if cfg.RampEvery > 0 && i > 0 && i%cfg.RampChunk == 0 {
			time.Sleep(cfg.RampEvery)
		}
		c, err := bot.Connect(addr, botConfig(cfg, i))
		if err != nil {
			return res, fmt.Errorf("swarm: connect bot %d: %w", i, err)
		}
		clients = append(clients, c)
	}
	res.Connected = len(clients)
	nSlow := min(cfg.SlowReaders, len(clients))
	nStall := min(cfg.StallReaders, len(clients)-nSlow)
	slow := clients[len(clients)-nSlow:]
	stalled := clients[len(clients)-nSlow-nStall : len(clients)-nSlow]
	for _, c := range slow {
		c.SetReadDelay(cfg.ReadDelay)
	}

	// Measured window: the ramp's join bursts and settling stay outside it
	// so they do not pollute the tail percentiles.
	if cfg.Settle > 0 {
		time.Sleep(cfg.Settle)
	}
	win.setOpen(true)
	var stallTimer *time.Timer
	if len(stalled) > 0 {
		stallTimer = time.AfterFunc(cfg.StallAfter, func() {
			for _, c := range stalled {
				c.PauseReads()
			}
		})
		defer stallTimer.Stop()
	}

	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	if cfg.ChurnEvery > 0 {
		go churn(addr, cfg, clients[:len(clients)-nSlow-nStall], churnStop, churnDone)
	} else {
		close(churnDone)
	}

	time.Sleep(cfg.Duration)
	win.setOpen(false)

	// Quiesce the churner before touching the client slots it owns.
	close(churnStop)
	<-churnDone

	// Collect client-side measurements.
	var rtts []float64
	for _, c := range clients {
		select {
		case <-c.Done():
			res.Dropped++
		default:
		}
		for _, p := range c.Probes() {
			rtts = append(rtts, float64(p.RTT)/float64(time.Millisecond))
		}
	}
	res.Probes = len(rtts)
	res.RTTMS = metrics.Summarize(rtts)
	res.Elapsed = time.Since(start)

	// Collect server-side measurements (self-hosted only).
	if srv != nil {
		res.Ticks = len(win.busyMS)
		res.TickMS = metrics.Summarize(win.busyMS)
		res.P99TickMS = metrics.Percentile(win.busyMS, 99)
		res.ISR = win.isr(cfg.Duration)
		res.Outbound = srv.Outbound()
		res.FinalPlayers = srv.PlayerCount()
	}
	return res, nil
}

// window folds the self-hosted server's tick records over the measured
// window: observe runs on the tick goroutine (AfterTick), and Run reads the
// fold once the window is closed.
type window struct {
	mu     sync.Mutex
	open   bool
	busyMS []float64 // busy Dur per tick
	starts []time.Time
}

func (w *window) observe(rec server.TickRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.open {
		w.busyMS = append(w.busyMS, float64(rec.Dur)/float64(time.Millisecond))
		w.starts = append(w.starts, rec.Start)
	}
}

func (w *window) setOpen(open bool) {
	w.mu.Lock()
	w.open = open
	w.mu.Unlock()
}

// isr is Equation 1 over the window. Each t_i is the period from one tick
// start to the next, so a tick stretched past the budget counts with its
// overrun; Ne is the tick count the window would hold at 20 Hz.
func (w *window) isr(length time.Duration) float64 {
	periods := make([]float64, 0, len(w.starts))
	for i := 1; i < len(w.starts); i++ {
		periods = append(periods, float64(w.starts[i].Sub(w.starts[i-1]))/float64(time.Millisecond))
	}
	return metrics.ISR(periods, metrics.TickBudgetMS, metrics.ExpectedTicks(length, server.TickBudget))
}

// selfHost starts an in-process server on a loopback listener: a flat world
// (terrain cost is not what this harness measures), wall-clock ticks, and a
// mob herd inside the swarm's walk area. observe sees every tick record,
// after any AfterTick hook cfg.Server set.
func selfHost(cfg Config, observe func(server.TickRecord)) (*server.Server, net.Listener, error) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	scfg := server.DefaultConfig(server.Vanilla)
	if cfg.Server != nil {
		scfg = *cfg.Server
	}
	prev := scfg.Hooks.AfterTick
	scfg.Hooks.AfterTick = func(rec server.TickRecord) {
		if prev != nil {
			prev(rec)
		}
		observe(rec)
	}
	s := server.New(w, scfg, nil, env.RealClock{})
	for i := 0; i < cfg.Mobs; i++ {
		s.EntityWorld().SpawnMob(world.Pos{
			X: 2 + i%int(cfg.Area), Y: 11, Z: 2 + (i/int(cfg.Area))%int(cfg.Area),
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("swarm: listen: %w", err)
	}
	go s.Serve(ln)
	go s.Run()
	return s, ln, nil
}

func botConfig(cfg Config, i int) bot.Config {
	return bot.Config{
		Name:     fmt.Sprintf("bot-%03d", i),
		Behavior: cfg.Behavior,
		AreaSide: cfg.Area, BaseY: 11,
		ProbeEvery: cfg.ProbeEvery,
		Seed:       cfg.Seed + int64(i)*7919,
		ReadBuffer: cfg.ReadBuffer,
	}
}

// churn cycles connections: every ChurnEvery one healthy bot disconnects
// and a fresh one takes its slot, exercising writer shutdown and join
// bursts concurrently with steady-state streaming.
func churn(addr string, cfg Config, pool []*bot.Client, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if len(pool) == 0 {
		return
	}
	t := time.NewTicker(cfg.ChurnEvery)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		slot := i % len(pool)
		pool[slot].Close()
		c, err := bot.Connect(addr, botConfig(cfg, cfg.Bots+i))
		if err != nil {
			continue // server may be tearing down; the run is ending
		}
		pool[slot] = c
	}
}
