// Package core orchestrates Meterstick benchmark runs: it holds the user
// configuration (the Table 4 parameter set), provisions the environment,
// server and player emulation for each iteration, executes the run on a
// virtual clock, and collects the Table 5 metrics into RunResults.
package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/workload"
)

// FlavorSeed derives a run seed from the flavor name via FNV-1a. Seeding
// from len(name) gave flavors with equal-length names identical seeds and
// therefore correlated runs; hashing the name keeps seeds deterministic but
// distinct per flavor.
func FlavorSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Config is Meterstick's user-facing configuration: one field per Table 4
// parameter. Fields that configure real remote deployments (IPs, SSL keys,
// ports, JMX) are used by the control-plane path; the virtual-time
// reproduction path needs only the experiment parameters.
type Config struct {
	// IPs lists the nodes used (Table 4 "IPs"; typical value none).
	IPs []string
	// SSLKeys is the authentication key path (Table 4 "SSL Keys").
	SSLKeys string
	// Servers lists the MLGs under test ("V, F, P" — Vanilla, Forge,
	// PaperMC).
	Servers []string
	// World selects the workload world (typical value Control).
	World string
	// OutputDir is where results land (Table 4 "File Locations").
	OutputDir string
	// Resume continues a previous experiment (Table 4 "Resume").
	Resume bool
	// ControlPort and GamePort are the network configuration (Table 4
	// "Ports"; typical 25555/25565).
	ControlPort int
	GamePort    int
	// JMXURLs and JMXPorts configure metric collection endpoints.
	JMXURLs  []string
	JMXPorts []int
	// RAMGB is the heap limit handed to the MLG (JVM -Xmx analogue).
	RAMGB int
	// Affinity is the CPU affinity mask for the MLG process.
	Affinity uint64
	// NumberOfBots is the player count (typical 25).
	NumberOfBots int
	// Behavior is the player behaviour ("idle" or "bounded random").
	Behavior string
	// Duration is the iteration length (typical 60 seconds).
	Duration time.Duration
	// Iterations is the iteration count (typical 1).
	Iterations int
	// Scale is the workload intensity multiplier (typical 1).
	Scale int
	// Environment selects the deployment-environment profile by name.
	Environment string
	// SimWorkers is the terrain-drain parallelism of the servers under test:
	// 0 = GOMAXPROCS, 1 = the serial drain. Output is worker-count
	// independent — the region-parallel drain replays the serial pop order —
	// so every value produces identical results (see internal/mlg/sim).
	SimWorkers int
}

// DefaultConfig returns the Table 4 typical values.
func DefaultConfig() Config {
	return Config{
		Servers:      []string{"Minecraft", "Forge", "PaperMC"},
		World:        "Control",
		OutputDir:    "results",
		ControlPort:  25555,
		GamePort:     25565,
		RAMGB:        4,
		Affinity:     0xFFFFFFFF,
		NumberOfBots: 25,
		Behavior:     "bounded random",
		Duration:     60 * time.Second,
		Iterations:   1,
		Scale:        1,
		Environment:  env.DAS5TwoCore.Name,
	}
}

// Validate checks the configuration's experiment parameters.
func (c Config) Validate() error {
	if len(c.Servers) == 0 {
		return fmt.Errorf("config: no servers selected")
	}
	for _, s := range c.Servers {
		if _, err := server.FlavorByName(s); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	if _, err := workload.ByName(c.World); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if _, ok := env.StandardProfiles()[c.Environment]; !ok {
		return fmt.Errorf("config: unknown environment %q", c.Environment)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("config: non-positive duration")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("config: iterations must be >= 1")
	}
	if c.NumberOfBots < 0 {
		return fmt.Errorf("config: negative bot count")
	}
	if c.Scale < 1 {
		return fmt.Errorf("config: scale must be >= 1")
	}
	if c.SimWorkers < 0 {
		return fmt.Errorf("config: negative sim workers")
	}
	return nil
}

// Specs expands the configuration into one RunSpec per (server, iteration)
// pair, seeded deterministically.
func (c Config) Specs() ([]RunSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	kind, _ := workload.ByName(c.World)
	profile := env.StandardProfiles()[c.Environment]
	var specs []RunSpec
	for _, name := range c.Servers {
		flavor, _ := server.FlavorByName(name)
		for it := 0; it < c.Iterations; it++ {
			ws := kind.DefaultSpec()
			ws.Scale = c.Scale
			if c.NumberOfBots > 0 {
				ws.Bots = c.NumberOfBots
			}
			if c.Behavior == "idle" {
				ws.BotsMove = false
			}
			specs = append(specs, RunSpec{
				Flavor:     flavor,
				Workload:   ws,
				Env:        profile,
				Duration:   c.Duration,
				Iteration:  it,
				Seed:       int64(1000*it) + FlavorSeed(name),
				SimWorkers: c.SimWorkers,
			})
		}
	}
	return specs, nil
}
