// Package mrand provides a serializable random source for the entity
// store. The standard library's rand.Rand hides its generator state, which
// makes a world snapshot impossible to restore exactly: a restored server
// would draw a different natural-spawn sequence and immediately diverge
// from the uninterrupted run. Source is a splitmix64 generator whose entire
// state is a single uint64, so persistence is trivial and a restored stream
// continues bit-for-bit where the saved one stopped.
package mrand

// Source is a splitmix64 rand.Source64. Its whole state is one word:
// State/SetState move it in and out of world snapshots.
type Source struct{ state uint64 }

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Seed resets the source to the given seed (rand.Source interface).
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next value of the splitmix64 stream (rand.Source64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns the top 63 bits of the next stream value (rand.Source).
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// State returns the generator state for persistence.
func (s *Source) State() uint64 { return s.state }

// SetState restores a generator state captured by State.
func (s *Source) SetState(v uint64) { s.state = v }
