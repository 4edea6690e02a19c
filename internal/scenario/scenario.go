// Package scenario is the engine's scenario-simulation harness: a
// declarative layer over the virtual-time server that scripts adversarial
// multi-tick situations — join/leave waves, teleport storms, TNT griefing
// bursts, chunk-border chases, restarts at another SimWorkers — and
// model-checks the region-parallel simulation against them.
//
// A Scenario is a typed script of per-tick Steps. The runner executes it
// against several twin servers in lockstep — identical except for their
// SimWorkers (by default 1, 2 and 4: the serial paths versus two
// region-parallel schedules) — with zero real I/O, and asserts invariants
// after every tick and every step:
//
//   - serial-vs-parallel equivalence: per-tick counters, work, entity state
//     fingerprints and chunk contents identical across all worker counts
//     (server.Snapshot is the shared comparison path);
//   - interest-set correctness: every delivered entity update's chunk lies
//     within the receiving player's view distance;
//   - revision consistency: revisions never decrease, and every chunk's
//     memoized content sum matches a fresh encode (content written without
//     a revision bump would leave the chunk's encoding memo stale);
//   - tick-duration and end-of-run ISR bounds;
//   - no crash (Server.Crashed).
//
// Scenarios come from the curated library (library.go) or from the seeded
// random generator (rand.go), which turns the harness into a model checker:
// failures shrink to the shortest failing step prefix and print a seed that
// replays them exactly (go test -run TestScenarioRandom -scenario.seed=N).
package scenario

import (
	"fmt"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/entity"
	"repro/internal/mlg/mrand"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// Scenario is one declarative script: a workload world, a flavor, and a
// sequence of steps driven identically against every twin server.
type Scenario struct {
	Name     string
	Workload workload.Kind
	// Scale multiplies construct counts (Scale >= 2 lays out separated
	// clusters, so the region partitioners actually fan out).
	Scale  int
	Flavor server.Flavor
	// Seed seeds the servers' simulation RNGs.
	Seed int64
	// Warmup ticks run before the first step (workload settling). Invariants
	// are checked during warmup too.
	Warmup int
	// IgniteAfterTicks, when > 0, arms the workload's scheduled trigger (TNT
	// ignition) with this delay at scenario start.
	IgniteAfterTicks int
	// ClientTimeout, when > 0, enables the crash-on-starvation semantics.
	ClientTimeout time.Duration
	// SnapshotEvery, when > 0, attaches a persistence store to every twin
	// but the reference and snapshots each one every N ticks (synchronously,
	// into a per-twin temp directory). Required by Crash and Reconfigure
	// steps; SnapshotEvery=1 guarantees a clean restart restores onto the
	// exact crash tick with no replay gap.
	SnapshotEvery int
	Steps         []Step
	// MaxTickDur bounds every tick's busy duration (0 = 5s: a runaway
	// guard). MaxISR bounds the end-of-run Instability Ratio (0 = 0.9).
	MaxTickDur time.Duration
	MaxISR     float64
	// Expect, when set, runs after the last step with the full twin set and
	// returns "" or a failure description — curated scenarios use it to
	// assert they actually exercised the schedule they target (e.g. that the
	// parallel twin drained terrain in parallel).
	Expect func(twins []*Twin) string
}

// TotalTicks returns the scripted tick count (warmup plus steps).
func (sc *Scenario) TotalTicks() int {
	n := sc.Warmup
	for _, st := range sc.Steps {
		n += st.Ticks
	}
	return n
}

// Step is one scripted phase: an optional one-shot action, an optional
// per-tick action, and the number of ticks the phase lasts. Actions are
// applied identically to every twin; any randomness must be baked into the
// closure at construction time so twins cannot diverge.
type Step struct {
	Name string
	// Ticks is how many server ticks the step runs (>= 1 for invariants to
	// observe its effects; 0 applies Before and asserts without ticking).
	Ticks int
	// Before runs once per twin, before the step's first tick.
	Before func(tw *Twin)
	// EachTick runs once per twin before each of the step's ticks.
	EachTick func(tw *Twin, tick int)
}

// delivery is one recorded entity-update delivery decision.
type delivery struct {
	player int64
	chunk  world.ChunkPos
}

// Twin is one server instance under scenario execution. All twins run the
// same script in tick lockstep; they differ only in SimWorkers.
type Twin struct {
	// Index is the twin's position in Options.Workers; Workers is the
	// SimWorkers of its current server (a Reconfigure step restarts it at
	// another).
	Index   int
	Workers int
	S       *server.Server
	Clock   env.Clock

	// Records accumulates every tick record in order; StepOfTick holds the
	// step index each tick ran under (-1 = warmup). Expect hooks scan these.
	Records    []server.TickRecord
	StepOfTick []int

	allWorkers []int
	players    []int64 // scenario-connected player IDs, join order
	joined     int     // total joins so far (names stay unique)
	deliveries []delivery
	prevRevs   map[world.ChunkPos]uint64

	// Persistence plumbing: the twin's snapshot directory (set when
	// Scenario.SnapshotEvery > 0; each server built over it snapshots on that
	// cadence itself), and the constructor Crash steps use to stand up the
	// replacement server after a simulated crash.
	store   *persist.Store
	rebuild func(workers int) (*server.Server, env.Clock)
	fail    string // set by a step that failed inside Before (e.g. Crash)
}

// Players returns the live scenario-connected player IDs in join order.
func (tw *Twin) Players() []int64 { return tw.players }

// enqueue queues a client packet arriving now (processed by the next tick).
func (tw *Twin) enqueue(pid int64, pkt protocol.Packet) {
	tw.S.Enqueue(pid, pkt, tw.Clock.Now())
}

// groundY returns the Y just above the highest solid block of the column,
// generating the chunk if needed — identical across twins, since their
// worlds are identical.
func (tw *Twin) groundY(x, z int) int {
	return tw.S.World().HighestSolidY(x, z) + 1
}

// anchor returns a deterministic reference position: the i-th live player
// (mod population), or world spawn when nobody is connected.
func (tw *Twin) anchor(i int) entity.Vec3 {
	if len(tw.players) == 0 {
		return entity.Vec3{X: 8.5, Y: float64(tw.groundY(8, 8)), Z: 8.5}
	}
	p := tw.S.PlayerByID(tw.players[i%len(tw.players)])
	return p.Pos
}

// connect joins one deterministically named player.
func (tw *Twin) connect() {
	tw.joined++
	p := tw.S.Connect(fmt.Sprintf("sc-%03d", tw.joined))
	tw.players = append(tw.players, p.ID)
}

// disconnect removes the oldest scenario player, if any.
func (tw *Twin) disconnect() {
	if len(tw.players) == 0 {
		return
	}
	tw.S.Disconnect(tw.players[0])
	tw.players = tw.players[1:]
}

// --- Step constructors -------------------------------------------------

// JoinWave connects n players in one step and runs ticks ticks, covering
// the join burst (chunk sends, view-area generation).
func JoinWave(n, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("join-wave(%d)", n),
		Ticks: ticks,
		Before: func(tw *Twin) {
			for i := 0; i < n; i++ {
				tw.connect()
			}
		},
	}
}

// LeaveWave disconnects the n oldest players.
func LeaveWave(n, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("leave-wave(%d)", n),
		Ticks: ticks,
		Before: func(tw *Twin) {
			for i := 0; i < n; i++ {
				tw.disconnect()
			}
		},
	}
}

// Churn connects join players and disconnects leave players on the same
// tick — the join/disconnect-during-exclusive-phase case: the very next tick
// runs its parallel drains against the churned player set.
func Churn(join, leave, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("churn(+%d/-%d)", join, leave),
		Ticks: ticks,
		Before: func(tw *Twin) {
			for i := 0; i < join; i++ {
				tw.connect()
			}
			for i := 0; i < leave; i++ {
				tw.disconnect()
			}
		},
	}
}

// TeleportStorm teleports every player to an independent pseudo-random
// offset within radius blocks of spawn, derived from seed — interest sets
// churn wholesale and view areas land on ungenerated terrain.
func TeleportStorm(seed uint64, radius, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("teleport-storm(r=%d)", radius),
		Ticks: ticks,
		Before: func(tw *Twin) {
			r := rng{mrand.New(seed)}
			for _, pid := range tw.players {
				x := float64(r.intn(2*radius)-radius) + 8.5
				z := float64(r.intn(2*radius)-radius) + 8.5
				y := float64(tw.groundY(int(x), int(z)))
				tw.enqueue(pid, &protocol.PlayerMove{X: x, Y: y, Z: z})
			}
		},
	}
}

// Chase walks one player (dx, dz) blocks per tick for ticks ticks — a
// chunk-border chase: the player repeatedly crosses chunk boundaries,
// dragging its interest set and the spawn/activation neighbourhood along,
// eventually into ungenerated terrain.
func Chase(player, dx, dz, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("chase(%+d,%+d)", dx, dz),
		Ticks: ticks,
		EachTick: func(tw *Twin, _ int) {
			if len(tw.players) == 0 {
				return
			}
			pid := tw.players[player%len(tw.players)]
			pos := tw.S.PlayerByID(pid).Pos
			x, z := pos.X+float64(dx), pos.Z+float64(dz)
			y := float64(tw.groundY(int(x), int(z)))
			tw.enqueue(pid, &protocol.PlayerMove{X: x, Y: y, Z: z})
		},
	}
}

// TNTBurst builds a size³ TNT cube on the surface at (ox, oz) relative to
// spawn and schedules its ignition fuse ticks out — the griefing burst:
// detonations, blast waves, item storms and cross-chunk craters.
func TNTBurst(ox, oz, size, fuse, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("tnt-burst(%d³@%d,%d)", size, ox, oz),
		Ticks: ticks,
		Before: func(tw *Twin) {
			w := tw.S.World()
			baseY := tw.groundY(8+ox, 8+oz)
			for dy := 0; dy < size; dy++ {
				for dz := 0; dz < size; dz++ {
					for dx := 0; dx < size; dx++ {
						w.SetBlock(world.Pos{X: 8 + ox + dx, Y: baseY + dy, Z: 8 + oz + dz},
							world.B(world.TNT))
					}
				}
			}
			tw.S.Engine().ScheduleIgnite(world.Pos{X: 8 + ox, Y: baseY, Z: 8 + oz}, fuse)
		},
	}
}

// DigStorm digs n surface blocks at pseudo-random offsets within radius of
// the anchor player, via PlayerAction packets — player-driven terrain
// mutation feeding the update queues and lighting recomputation.
func DigStorm(seed uint64, n, radius, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("dig-storm(%d)", n),
		Ticks: ticks,
		Before: func(tw *Twin) {
			if len(tw.players) == 0 {
				return
			}
			r := rng{mrand.New(seed)}
			a := tw.anchor(0)
			pid := tw.players[0]
			for i := 0; i < n; i++ {
				x := int(a.X) + r.intn(2*radius) - radius
				z := int(a.Z) + r.intn(2*radius) - radius
				y := tw.groundY(x, z) - 1
				tw.enqueue(pid, &protocol.PlayerAction{
					Action: protocol.ActionDig, X: int32(x), Y: int32(y), Z: int32(z),
				})
			}
		},
	}
}

// MobWave spawns n mobs at pseudo-random surface offsets within radius of
// the anchor — wandering AI, pathfinding over mutable terrain, and (near
// the generation frontier) the choosePath terrain-generation escape path.
func MobWave(seed uint64, n, radius, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("mob-wave(%d)", n),
		Ticks: ticks,
		Before: func(tw *Twin) {
			r := rng{mrand.New(seed)}
			a := tw.anchor(0)
			for i := 0; i < n; i++ {
				x := int(a.X) + r.intn(2*radius) - radius
				z := int(a.Z) + r.intn(2*radius) - radius
				tw.S.EntityWorld().SpawnMob(world.Pos{X: x, Y: tw.groundY(x, z), Z: z})
			}
		},
	}
}

// Reconfigure restarts every non-reference twin from its newest snapshot
// with the SimWorkers shift positions ahead of its own in the worker set —
// a parallel twin comes back serial or at another width — the way a
// deployment changes its worker count. The restart must be invisible
// against the reference, which keeps running at its own worker count.
// Requires Scenario.SnapshotEvery = 1, so the restore lands on the restart
// tick whatever inputs preceded it.
func Reconfigure(shift, ticks int) Step {
	return Step{
		Name:  fmt.Sprintf("reconfigure(shift=%d)", shift),
		Ticks: ticks,
		Before: func(tw *Twin) {
			n := tw.allWorkers[(tw.Index+shift)%len(tw.allWorkers)]
			if err := tw.CrashRestart(CrashClean, n); err != nil {
				tw.fail = fmt.Sprintf("reconfigure (workers=%d): %v", n, err)
			}
		},
	}
}

// Quiet runs ticks ticks with no new inputs — cascades settle, schedules
// fire, despawns age out.
func Quiet(ticks int) Step {
	return Step{Name: fmt.Sprintf("quiet(%d)", ticks), Ticks: ticks}
}
