package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mlg/entity"
	"repro/internal/mlg/sim"
	"repro/internal/mlg/world"
)

// rankOf is the index of the nearest-rank q-quantile among n sorted samples.
func rankOf(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// enough refuses a q-quantile of n samples with fewer than minBeyond of them
// beyond it: a p99 of 300 ticks is three samples, not a tail.
func enough(n int, q float64, minBeyond int) error {
	if n == 0 {
		return fmt.Errorf("p%g of no samples", q*100)
	}
	if beyond := n - 1 - rankOf(n, q); beyond < minBeyond {
		return fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of sorted (ascending), or
// the error of enough.
func percentile(sorted []float64, q float64, minBeyond int) (float64, error) {
	if err := enough(len(sorted), q, minBeyond); err != nil {
		return 0, err
	}
	return sorted[rankOf(len(sorted), q)], nil
}

// median returns the interpolated median of xs (unsorted; xs is not
// modified). It is for small sets such as per-episode set-up times, where
// the percentile rule above does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// -compare reports the same spread the driver does. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quietQuartile reduces one timing, taken once per episode over a run's
// identical episodes, to the quartile on its quiet side: the first for a
// cost, the third for a rate. What a shared host adds to an episode — a
// neighbour on the other hardware thread, a halted vCPU that has to be woken
// for every parallel tick — it only ever adds, for seconds at a time, so a
// median over episodes follows the host and the quiet quartile the program,
// as long as a quarter of the run was left alone.
func quietQuartile(xs []float64, higherBetter bool) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	q1, q3 := quartiles(xs)
	if higherBetter {
		return q3
	}
	return q1
}

// msOf converts nanosecond samples to sorted milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sum64(xs []int64) int64 {
	var t int64
	for _, v := range xs {
		t += v
	}
	return t
}

// tickCounters is the part of a tick's record the state digest covers.
type tickCounters struct {
	Sim sim.Counters
	Ent entity.Counters
}

// stateDigest fingerprints one episode's simulation output: every tick's
// terrain and entity counters, then the final entity state sum and chunk
// content sums. It is a self-consistency check (all episodes of a workload,
// traced or not, at any worker count, must agree), printed but not pinned,
// so an intentional change of simulation output still passes.
type stateDigest struct{ h hash.Hash64 }

func newStateDigest() *stateDigest { return &stateDigest{h: fnv.New64a()} }

func (d *stateDigest) ticks(cs []tickCounters) {
	for i := range cs {
		fmt.Fprintf(d.h, "%v|%v\n", cs[i].Sim, cs[i].Ent)
	}
}

// state adds the end state. Chunk revisions are left out: they are cache
// keys that a rolled-back parallel attempt advances without changing content.
func (d *stateDigest) state(entitySum uint64, chunks []world.ChunkState) {
	fmt.Fprintf(d.h, "entities %#x\n", entitySum)
	for _, c := range chunks {
		fmt.Fprintf(d.h, "%d,%d %d %#x\n", c.Pos.X, c.Pos.Z, c.NonAir, c.Sum)
	}
}

func (d *stateDigest) sum() uint64 { return d.h.Sum64() }

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
