package env

import (
	"math"
	"math/rand"
	"time"
)

// Work describes the compute demand of one game tick in reference-core
// microseconds, split by the operation categories the paper's tick-
// distribution analysis uses (Figure 11). The game engine produces a Work
// value per tick from its instrumented operation counts; a Machine converts
// it into a compute time under the environment's conditions.
type Work struct {
	// PlayerUS is player-handler work: movement validation, action
	// processing, chat.
	PlayerUS float64
	// BlockUpdateUS is terrain-simulation rule work: redstone, fluids,
	// growth, scheduled and random ticks ("Block Update" in Figure 11).
	BlockUpdateUS float64
	// BlockAddRemoveUS is block creation/destruction work, including
	// explosion block removal ("Block Add/Remove" in Figure 11).
	BlockAddRemoveUS float64
	// EntityUS is entity simulation work: physics, AI, pathfinding,
	// spawning ("Entities" in Figure 11).
	EntityUS float64
	// LightUS is lighting recomputation work (folded into "Other").
	LightUS float64
	// NetworkUS is state-update serialization and dissemination work
	// (folded into "Other").
	NetworkUS float64
	// UpkeepUS is fixed per-tick world upkeep: loaded-chunk bookkeeping,
	// autosave amortization (folded into "Other").
	UpkeepUS float64

	// ParallelFraction is the fraction of this tick's work the MLG flavor
	// can push off the main thread (PaperMC's async scheduler raises it).
	ParallelFraction float64
	// Threads is the number of OS threads the flavor keeps active; more
	// threads than vCPUs costs contention on shared tenancy.
	Threads int
}

// TotalUS returns the total reference-core microseconds of the tick.
func (w Work) TotalUS() float64 {
	return w.PlayerUS + w.BlockUpdateUS + w.BlockAddRemoveUS + w.EntityUS +
		w.LightUS + w.NetworkUS + w.UpkeepUS
}

// OtherUS returns the microseconds Figure 11 groups under "Other".
func (w Work) OtherUS() float64 { return w.LightUS + w.NetworkUS + w.UpkeepUS }

// Add accumulates another Work's category costs into w (fractions and thread
// counts are taken from w).
func (w *Work) Add(o Work) {
	w.PlayerUS += o.PlayerUS
	w.BlockUpdateUS += o.BlockUpdateUS
	w.BlockAddRemoveUS += o.BlockAddRemoveUS
	w.EntityUS += o.EntityUS
	w.LightUS += o.LightUS
	w.NetworkUS += o.NetworkUS
	w.UpkeepUS += o.UpkeepUS
}

// Machine is one provisioned node for one benchmark iteration: a Profile
// plus the per-iteration random state (placement luck, CPU-credit balance,
// steal process). Machines are deterministic given their seed, making every
// experiment reproducible.
type Machine struct {
	prof      Profile
	rng       *rand.Rand
	placement float64 // per-iteration multiplier on all compute time
	busyHost  bool    // landed on an oversubscribed host (Azure bimodal)
	credits   float64 // CPU-seconds of burst budget remaining (burstable only)
	throttled bool    // credits exhausted; running at baseline
}

// NewMachine provisions a machine under the profile with a deterministic
// seed. Per-iteration placement and the initial credit balance are sampled
// immediately, so two machines with the same profile and seed behave
// identically.
func NewMachine(p Profile, seed int64) *Machine {
	rng := rand.New(rand.NewSource(seed))
	m := &Machine{prof: p, rng: rng}
	m.placement = lognormal(rng, p.PlacementSigma)
	if p.BusyHostProb > 0 && rng.Float64() < p.BusyHostProb {
		m.busyHost = true
	}
	if p.Burstable {
		m.credits = p.InitialCreditsMin +
			rng.Float64()*(p.InitialCreditsMax-p.InitialCreditsMin)
	}
	return m
}

// BusyHost reports whether this iteration landed on an oversubscribed host.
func (m *Machine) BusyHost() bool { return m.busyHost }

// Throttled reports whether a burstable machine has exhausted its CPU
// credits and is running at its baseline fraction.
func (m *Machine) Throttled() bool { return m.throttled }

// TickComputeTime converts one tick's Work into the compute time the tick
// occupies on this machine, applying in order: Amdahl speedup over the
// machine's vCPUs, thread-contention penalty, placement factor, busy-host
// degradation of the parallel portion, lognormal scheduling jitter,
// CPU-steal bursts, and burstable-credit throttling. It also updates the
// machine's credit balance using the wall time the tick (plus any wait up to
// the 50 ms budget) occupies.
func (m *Machine) TickComputeTime(w Work) time.Duration {
	p := m.prof
	totalUS := w.TotalUS()
	if totalUS <= 0 {
		return 0
	}

	// Amdahl: the parallel fraction spreads over the vCPUs (bounded by the
	// threads the flavor actually runs); the rest is serial.
	cores := float64(p.VCPUs)
	if w.Threads > 0 && float64(w.Threads) < cores {
		cores = float64(w.Threads)
	}
	if cores < 1 {
		cores = 1
	}
	pf := w.ParallelFraction
	if pf < 0 {
		pf = 0
	}
	if pf > 1 {
		pf = 1
	}
	parallelUS := totalUS * pf
	if m.busyHost {
		// Busy hosts have their spare cores consumed by neighbours: the
		// parallel portion runs as if capacity were divided by the factor.
		parallelUS *= p.BusyHostFactor
	}
	us := totalUS*(1-pf) + parallelUS/cores

	// Per-core speed relative to the reference core.
	us /= p.CoreSpeed

	// Contention: more runnable threads than vCPUs on shared tenancy.
	if w.Threads > p.VCPUs && p.ContentionPenalty > 0 {
		over := float64(w.Threads)/float64(p.VCPUs) - 1
		us *= 1 + p.ContentionPenalty*over
	}

	// Placement luck, scheduling jitter, steal bursts.
	us *= m.placement
	us *= lognormal(m.rng, p.JitterSigma)
	if p.StealProb > 0 && m.rng.Float64() < p.StealProb {
		us *= p.StealSeverity
	}

	// JVM garbage-collection pauses stall the tick outright.
	if p.GCPauseProb > 0 && m.rng.Float64() < p.GCPauseProb {
		us += (p.GCPauseMinMS + m.rng.Float64()*(p.GCPauseMaxMS-p.GCPauseMinMS)) * 1000
	}

	// Burstable credit accounting. Demand is the CPU-seconds this tick
	// wants; the instance earns credits at its baseline rate over the wall
	// time the tick occupies (at least the 50 ms budget, since an idle
	// remainder still earns).
	if p.Burstable {
		if m.throttled {
			us /= p.BaselineFraction
		}
		demandSec := us / 1e6 * math.Min(cores, float64(p.VCPUs)) // CPU-seconds consumed
		wallSec := math.Max(us/1e6, 0.050)
		earnSec := p.BaselineFraction * float64(p.VCPUs) * wallSec
		m.credits += earnSec - demandSec
		if m.credits <= 0 {
			m.credits = 0
			m.throttled = true
		} else if m.throttled && m.credits > 1.0 {
			// A small replenished buffer lets the instance burst again.
			m.throttled = false
		}
	}

	return time.Duration(us * float64(time.Microsecond))
}

// NetOneWay samples a one-way client<->server network latency.
func (m *Machine) NetOneWay() time.Duration {
	rtt := float64(m.prof.NetBaseRTT) * lognormal(m.rng, m.prof.NetJitterSigma)
	return time.Duration(rtt / 2)
}

// NetRTT samples a full round-trip network latency.
func (m *Machine) NetRTT() time.Duration {
	return m.NetOneWay() + m.NetOneWay()
}

// lognormal samples exp(N(0, sigma²)), i.e. a multiplicative noise factor
// with median 1. sigma <= 0 yields exactly 1.
func lognormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}
