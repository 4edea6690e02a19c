//go:build race

package shard_test

// raceEnabled reports that this binary runs under the race detector. Its
// slowdown turns the cluster allocation window into seconds of Farm ticks
// that the race suite's cluster differentials already cover, and the count
// it pins is taken without it.
const raceEnabled = true
