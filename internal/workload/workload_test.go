package workload

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
)

func newServerFor(t *testing.T, k Kind, f server.Flavor) *server.Server {
	t.Helper()
	w := NewWorld(k, world.PaperControlSeed)
	clock := env.NewVirtualClock(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
	m := env.NewMachine(env.DAS5TwoCore, 11)
	s := server.New(w, server.DefaultConfig(f), m, clock)
	if err := Install(s, k.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKindNamesAndLookup(t *testing.T) {
	for _, k := range All() {
		got, err := ByName(k.String())
		if err != nil || got != k {
			t.Errorf("ByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ByName("Chaos"); err == nil {
		t.Error("expected error for unknown workload")
	}
	if len(All()) != 5 {
		t.Error("expected the five Figure 8 workloads")
	}
}

func TestDefaultSpecs(t *testing.T) {
	for _, k := range All() {
		s := k.DefaultSpec()
		if k == Players {
			if s.Bots != 25 || !s.BotsMove || s.MoveArea != 32 {
				t.Errorf("Players spec wrong: %+v", s)
			}
		} else if s.Bots != 1 || s.BotsMove {
			// Environment-based workloads connect a single idle player
			// (§3.3.1).
			t.Errorf("%v spec wrong: %+v", k, s)
		}
	}
}

func TestTable3Inventory(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("Table 3 rows = %d, want 4", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Amount
	}
	if total != 21 {
		t.Fatalf("total constructs = %d, want 21 (12+4+4+1)", total)
	}
}

func TestNewWorldGenerators(t *testing.T) {
	if w := NewWorld(Control, 1); w.HighestSolidY(100, 100) == 10 && w.HighestSolidY(200, -50) == 10 {
		t.Error("Control world looks flat; expected noise terrain")
	}
	w := NewWorld(TNT, 1)
	if w.HighestSolidY(100, 100) != 10 || w.HighestSolidY(-5, 7) != 10 {
		t.Error("construct world should be flat")
	}
}

func TestTNTWorkloadExplodes(t *testing.T) {
	s := newServerFor(t, TNT, server.Vanilla)
	s.Connect("probe")
	Arm(s, TNT.DefaultSpec())
	w := s.World()

	// TNT cuboid present before ignition.
	tntBefore := countBlocks(w, world.TNT)
	if tntBefore != 16*16*14 {
		t.Fatalf("TNT blocks = %d, want %d", tntBefore, 16*16*14)
	}

	var peak time.Duration
	spec := TNT.DefaultSpec()
	for i := 0; i < spec.IgniteAfterTicks+1200; i++ {
		rec := s.Tick()
		if rec.Dur > peak {
			peak = rec.Dur
		}
	}
	tntAfter := countBlocks(w, world.TNT)
	if tntAfter > tntBefore/10 {
		t.Fatalf("chain reaction incomplete: %d of %d TNT left", tntAfter, tntBefore)
	}
	// The chain must overload the server hard (paper: multi-hundred-ms to
	// second-scale spikes).
	if peak < 200*time.Millisecond {
		t.Fatalf("TNT peak tick %v, want overload > 200ms", peak)
	}
}

func TestTNTQuietBeforeIgnition(t *testing.T) {
	s := newServerFor(t, TNT, server.Vanilla)
	s.Connect("probe")
	s.Tick() // join burst
	for i := 0; i < 100; i++ {
		rec := s.Tick()
		if rec.Dur > server.TickBudget {
			t.Fatalf("tick %d overloaded before ignition: %v", i, rec.Dur)
		}
	}
}

func TestFarmWorkloadProduces(t *testing.T) {
	s := newServerFor(t, Farm, server.Vanilla)
	s.Connect("probe")
	for i := 0; i < 2400; i++ { // two minutes of game time
		s.Tick()
	}
	if got := s.Engine().ItemsCollected; got == 0 {
		t.Fatal("farms collected no items in 2 minutes")
	}
	if s.EntityWorld().Count() == 0 {
		t.Fatal("no live entities in the farm world")
	}
}

func TestFarmClockPeriodRoughly4s(t *testing.T) {
	// Track cobblestone harvests over time: the stone farms fire every
	// ~80 ticks, so 2400 ticks should yield roughly 2400/80 × 4 farms
	// harvests; accept a broad band.
	s := newServerFor(t, Farm, server.Vanilla)
	s.Connect("probe")
	for i := 0; i < 2400; i++ {
		s.Tick()
	}
	collected := s.Engine().ItemsCollected
	if collected < 20 {
		t.Fatalf("harvest throughput too low: %d items", collected)
	}
}

func TestLagWorkloadAlternatesTicks(t *testing.T) {
	s := newServerFor(t, Lag, server.Vanilla)
	s.Connect("probe")
	// Warm up past the join burst and initial cascade.
	for i := 0; i < 60; i++ {
		s.Tick()
	}
	var evenBusy, oddBusy time.Duration
	var evenN, oddN int
	for i := 0; i < 200; i++ {
		rec := s.Tick()
		if rec.Tick%2 == 0 {
			evenBusy += rec.Dur
			evenN++
		} else {
			oddBusy += rec.Dur
			oddN++
		}
	}
	evenAvg := evenBusy / time.Duration(evenN)
	oddAvg := oddBusy / time.Duration(oddN)
	if evenAvg < 5*oddAvg {
		t.Fatalf("no heavy/light alternation: even avg %v, odd avg %v", evenAvg, oddAvg)
	}
	// Heavy ticks must be seriously overloaded.
	if evenAvg < 500*time.Millisecond {
		t.Fatalf("lag machine heavy ticks too light: %v", evenAvg)
	}
}

func TestLagSelfSustains(t *testing.T) {
	s := newServerFor(t, Lag, server.Vanilla)
	s.Connect("probe")
	for i := 0; i < 400; i++ {
		s.Tick()
	}
	// After 400 ticks the machine must still be producing updates.
	rec := s.Tick()
	if rec.Tick%2 == 1 {
		rec = s.Tick()
	}
	if rec.Work.BlockUpdateUS < 1000 {
		t.Fatalf("lag machine died out: redstone work %v µs", rec.Work.BlockUpdateUS)
	}
}

func TestControlStaysUnderBudget(t *testing.T) {
	s := newServerFor(t, Control, server.Vanilla)
	s.Connect("probe")
	s.Tick() // join burst may spike
	over := 0
	for i := 0; i < 300; i++ {
		if rec := s.Tick(); rec.Dur > server.TickBudget {
			over++
		}
	}
	if over > 15 {
		t.Fatalf("Control overloaded %d/300 ticks on the reference node", over)
	}
}

func TestInstallUnknownKind(t *testing.T) {
	s := newServerFor(t, Control, server.Vanilla)
	if err := Install(s, Spec{Kind: Kind(99)}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func countBlocks(w *world.World, id world.BlockID) int {
	n := 0
	for _, c := range w.LoadedChunkRefs() {
		for y := 0; y < world.Height; y++ {
			for z := 0; z < world.ChunkSize; z++ {
				for x := 0; x < world.ChunkSize; x++ {
					if c.At(x, y, z).ID == id {
						n++
					}
				}
			}
		}
	}
	return n
}
