package telemetry

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
)

func TestTable5Inventory(t *testing.T) {
	rows := Table5()
	if len(rows) != 9 {
		t.Fatalf("Table 5 rows = %d, want 9", len(rows))
	}
	types := map[string]int{}
	for _, r := range rows {
		types[r.Type]++
		if r.Name == "" || r.Description == "" {
			t.Errorf("incomplete row: %+v", r)
		}
	}
	if types["D"] != 1 || types["A"] != 3 || types["S"] != 5 {
		t.Fatalf("type split = %v, want D:1 A:3 S:5", types)
	}
}

func TestExternalizer(t *testing.T) {
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	clock := env.NewVirtualClock(time.Unix(0, 0))
	m := env.NewMachine(env.DAS5TwoCore, 7)
	ex := NewExternalizer()
	cfg := server.DefaultConfig(server.Vanilla)
	cfg.Hooks.AfterTick = ex.Observe
	s := server.New(w, cfg, m, clock)
	s.Connect("probe")
	var want []float64
	for i := 0; i < 40; i++ {
		want = append(want, float64(s.Tick().Dur)/float64(time.Millisecond))
	}
	if got := ex.Ticks(); got != 40 {
		t.Fatalf("ticks = %d", got)
	}
	got := ex.RecentMS()
	if len(got) != 40 || got[0] <= 0 {
		t.Fatal("ms trace wrong")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recent[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if ex.OverloadedTicks() < 0 || ex.OverloadedTicks() > 40 {
		t.Fatal("overloaded count out of range")
	}
	d := ex.Distribution()
	if d.OtherUS <= 0 {
		t.Fatal("no distribution data")
	}
}

// An externalizer on a long-running server keeps counting every tick but
// holds only the last Window durations, newest last. Observe runs on its
// own goroutine while this one reads, as the tick goroutine and
// mlgserver's stats loop do.
func TestExternalizerBoundedWindow(t *testing.T) {
	ex := NewExternalizer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 10000; i++ {
			d := time.Duration(i) * time.Millisecond / 100 // i/100 ms; > 50 ms from i = 5001
			ex.Observe(server.TickRecord{Tick: int64(i), Dur: d})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if n := len(ex.RecentMS()); n > Window || n > ex.Ticks() {
			t.Fatalf("holds %d durations mid-run", n)
		}
	}
	if got := ex.Ticks(); got != 10000 {
		t.Fatalf("ticks = %d, want 10000", got)
	}
	if got := ex.OverloadedTicks(); got != 5000 {
		t.Fatalf("overloaded = %d, want 5000", got)
	}
	recent := ex.RecentMS()
	if len(recent) != Window {
		t.Fatalf("holds %d durations, want %d", len(recent), Window)
	}
	if recent[0] != 98.01 || recent[Window-1] != 100 {
		t.Fatalf("window spans %v..%v ms, want 98.01..100", recent[0], recent[Window-1])
	}
}

func TestSystemCollectorSamples(t *testing.T) {
	c := NewSystemCollector()
	// Burn a little CPU so utilization is measurable.
	x := 0.0
	for i := 0; i < 5_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	s := c.Sample(123, 456)
	if s.HeapAllocBytes == 0 || s.SysBytes == 0 {
		t.Error("memory stats missing")
	}
	if s.Goroutines <= 0 {
		t.Error("goroutine count missing")
	}
	if s.NetSentBytes != 123 || s.NetRecvBytes != 456 {
		t.Error("net counters not passed through")
	}
	if s.CPUPercent < 0 {
		t.Error("negative CPU percent")
	}
	if got := len(c.Samples()); got != 1 {
		t.Fatalf("samples = %d", got)
	}
	// On Linux, /proc readings should be present.
	if s.Threads == 0 {
		t.Log("threads unavailable (non-Linux?); fallback accepted")
	}
}

func TestProcReaders(t *testing.T) {
	// These must never panic and return non-negative values regardless of
	// platform.
	if d := processCPUTime(); d < 0 {
		t.Error("negative CPU time")
	}
	if n := processThreads(); n < 0 {
		t.Error("negative thread count")
	}
	r, w := processDiskIO()
	if r < 0 || w < 0 {
		t.Error("negative disk IO")
	}
}
