// Package mrand is the engine's one random stream: splitmix64, whose entire
// state is a single uint64. Two uses share it.
//
//   - Keyed streams: a value Source seeded from a hash of the simulation
//     state that caused the draws (chunk or block position, tick, world
//     seed), advanced by draw index within that event. The terrain engine's
//     random ticks and explosion rolls, entity decisions and item spawn
//     velocities all draw this way, so every value is a pure function of
//     simulation state, independent of worker count and shard layout.
//   - The entity store's natural-spawn stream: a *Source behind rand.Rand.
//     The standard library's rand.Rand hides its generator state, which makes
//     a world snapshot impossible to restore exactly; this one's state moves
//     in and out of snapshots through State/SetState, so a restored stream
//     continues bit-for-bit where the saved one stopped.
package mrand

import "math/bits"

// Source is a splitmix64 rand.Source64. Its whole state is one word.
type Source struct{ state uint64 }

// New returns a source whose state word is state, by value: keyed streams
// live on the stack for the duration of one event.
func New(state uint64) Source { return Source{state: state} }

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Seed resets the source to the given seed (rand.Source interface).
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next value of the splitmix64 stream (rand.Source64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix(s.state)
}

// Int63 returns the top 63 bits of the next stream value (rand.Source).
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns a draw in [0, n) as the next value modulo n. The modulo bias
// at the engine's small ranges (n <= 256) is below 2^-55.
func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Float64 returns a draw in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// State returns the generator state for persistence.
func (s *Source) State() uint64 { return s.state }

// SetState restores a generator state captured by State.
func (s *Source) SetState(v uint64) { s.state = v }

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PosHash hashes a block position into a stream key component.
func PosHash(x, y, z int) uint64 {
	return uint64(int64(x))*0x9e3779b97f4a7c15 ^
		bits.RotateLeft64(uint64(int64(y)), 21)*0xbf58476d1ce4e5b9 ^
		bits.RotateLeft64(uint64(int64(z)), 42)*0x94d049bb133111eb
}
