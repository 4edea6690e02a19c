package entity

// BenchmarkEntityTickParallel is the entity-phase Workers sweep recorded in
// BENCH.json: store-level ticks over multi-cluster populations (items,
// mobs, slow TNT) at Workers 1/2/4. Workers=1 is the legacy serial loop —
// the fixed baseline engine-level optimizations compare against; speedup at
// Workers=N needs >= N cores and >= N clusters, so interpret alongside the
// host cpu count like the BenchmarkTickParallel sweep.

import (
	"fmt"
	"runtime"
	"testing"
)

func BenchmarkEntityTickParallel(b *testing.B) {
	for _, sc := range []struct {
		name     string
		clusters int
	}{
		{"Clusters2", 2},
		{"Clusters4", 4},
	} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers%d", sc.name, workers), func(b *testing.B) {
				players := twinPlayers(sc.clusters)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ew := buildTwinWorld(b, workers, sc.clusters)
					for w := 0; w < 5; w++ {
						ew.Tick(players) // settle spawn bursts off the timer
						ew.DrainChunkUpdates()
					}
					runtime.GC() // reproducible heap for 1x gate samples
					b.StartTimer()
					for t := 0; t < 60; t++ {
						ew.Tick(players)
					}
				}
			})
		}
	}
}
