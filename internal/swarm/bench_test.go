package swarm

import (
	"testing"
	"time"

	"repro/internal/bot"
)

// BenchmarkSwarmTail is the outbound-path tail-latency benchmark: a real-TCP
// swarm with chat-probe traffic and one injected stalled reader, reporting
// the server's p99 tick duration and ISR over the measured window alongside
// the usual ns/op (which here is just the wall cost of one run). Nothing
// gates its numbers: its allocations scale with goroutine and connection
// scheduling, not with the hot path, and the tail-latency bound is asserted
// by TestSwarmStalledPeerTailLatency. Run with -benchtime 1x — each
// iteration is a full multi-second swarm run.
func BenchmarkSwarmTail(b *testing.B) {
	cfg := Config{
		Bots:         25,
		Behavior:     bot.RandomWalk,
		ProbeEvery:   100 * time.Millisecond,
		Mobs:         60,
		Settle:       500 * time.Millisecond,
		Duration:     2 * time.Second,
		StallReaders: 1,
		StallAfter:   250 * time.Millisecond,
		ReadBuffer:   4 << 10,
		Seed:         5,
		Server:       faultTunedServer(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ticks == 0 {
			b.Fatal("no ticks recorded")
		}
		b.ReportMetric(res.P99TickMS*1e6, "p99-tick-ns")
		b.ReportMetric(res.ISR, "isr")
	}
}
