//go:build race

package server_test

// raceEnabled reports that this binary runs under the race detector. Its
// 5-20x slowdown turns the allocation tests' paper-scale tick windows into
// minutes of ticks the race suite's own tick tests already cover, and the
// counts they pin are the same without it.
const raceEnabled = true
