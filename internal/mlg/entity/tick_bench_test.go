package entity

// BenchmarkEntityTick is the entity-phase cost: 60 store-level ticks over
// multi-cluster populations (items, pathing mobs, slow TNT).
// TestEntityTickAllocs bounds the allocations of one such tick.

import (
	"runtime"
	"testing"
)

func BenchmarkEntityTick(b *testing.B) {
	for _, sc := range []struct {
		name     string
		clusters int
	}{
		{"Clusters2", 2},
		{"Clusters4", 4},
	} {
		b.Run(sc.name, func(b *testing.B) {
			players := clusterPlayers(sc.clusters)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ew := buildClusterWorld(b, sc.clusters)
				for w := 0; w < 5; w++ {
					ew.Tick(players) // settle spawn bursts off the timer
					ew.DrainChunkUpdates()
				}
				runtime.GC() // reproducible heap for single-iteration samples
				b.StartTimer()
				for t := 0; t < 60; t++ {
					ew.Tick(players)
				}
			}
		})
	}
}
