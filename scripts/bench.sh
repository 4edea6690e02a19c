#!/usr/bin/env bash
# bench.sh — run the tick + network benchmarks and record the perf
# trajectory into a JSON file (default BENCH.json): one entry per
# benchmark with name, ns/op, allocs/op and cpus. Two passes:
#
#   1. the full pinned set at -cpu 1 (GOMAXPROCS=1): the serial per-
#      workload tick windows, the serial entity tick (BenchmarkEntityTick),
#      one warmed mob-sized A* search (BenchmarkFindPath), the warmed
#      autosave path (BenchmarkSnapshotter),
#      the terrain-drain workers sweep (BenchmarkTickParallel) pinned
#      single-core so its alloc trajectory stays machine-independent, and
#      the shard handoff;
#   2. BenchmarkSwarmTail at -cpu 4, always one iteration — a real-TCP
#      swarm run with an injected stalled reader. Its ns/op is just the
#      fixed wall budget of one run; the interesting fields are the extra
#      metrics it reports (p99-tick-ns, isr), recorded as p99_tick_ns / isr
#      in the JSON. Swarm entries are presence-pinned but exempt from the
#      gate (see bench_compare.sh).
#
# cpus is parsed from go test's -N GOMAXPROCS name suffix (absent at 1), so
# it records what the measurement actually ran under — NOT the host's
# physical core count.
#
# BENCH.json is the committed baseline the CI allocation gate diffs fresh
# runs against: scripts/bench_compare.sh keys entries on (name, cpus) and
# fails the build on a missing pinned entry or an allocs/op regression (see
# its header for the exact rules). ns/op is recorded for the record only.
# Re-record the whole file in the same change as any intentional shift
# (git holds the history) — and ALWAYS with BENCHTIME=1x, the mode CI
# measures in: multi-iteration runs amortize setup allocations (e.g.
# BenchmarkSendReal reports ~99 allocs/op at 20x vs ~640 at 1x), so a
# 1s-recorded baseline makes the 1x alloc gate fail spuriously.
#
#   BENCHTIME=1x scripts/bench.sh                # re-record the gate baseline
#
# Usage:
#   scripts/bench.sh [out.json]                  # default out: BENCH.json
#   BENCHTIME=1x scripts/bench.sh fresh.json     # CI: one iteration each
#   scripts/bench.sh /tmp/profile.json           # local profiling (1s each)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
benchtime="${BENCHTIME:-1s}"

full='BenchmarkTick$|BenchmarkTickParallel$|BenchmarkEntityTick$|BenchmarkFindPath$|BenchmarkSendReal$|BenchmarkSerializeChunk$|BenchmarkSnapshotSave$|BenchmarkSnapshotter$|BenchmarkRestore$'

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$full" \
  -benchmem -benchtime "$benchtime" -cpu 1 \
  ./internal/mlg/server ./internal/mlg/entity | tee "$raw"

# Shard handoff benchmark: the inter-shard entity migration path (departure
# sweep, packet codec round trip, arrival insert) — the hot cost a sharded
# deployment adds per boundary crossing. Pinned at -cpu 1 with the rest of
# the serial set.
go test -run '^$' -bench 'BenchmarkShardHandoff$' \
  -benchmem -benchtime "$benchtime" -cpu 1 \
  ./internal/shard | tee -a "$raw"

# Swarm tail benchmark: always 1x — each iteration is a full multi-second
# real-TCP run, so -benchtime only multiplies wall clock, not resolution.
# Pinned to -cpu 4 so the recorded (name, cpus) key is host-independent:
# without it the benchmark name carries the host's GOMAXPROCS suffix and a
# baseline recorded on one core count would read as missing on another.
go test -run '^$' -bench 'BenchmarkSwarmTail$' \
  -benchmem -benchtime 1x -cpu 4 \
  ./internal/swarm | tee -a "$raw"

awk '
  /^Benchmark/ {
    name = $1; cpus = 1
    if (match(name, /-[0-9]+$/)) {       # go test suffixes -GOMAXPROCS when != 1
      cpus = substr(name, RSTART + 1)
      name = substr(name, 1, RSTART - 1)
    }
    ns = "null"; allocs = "null"; p99 = "null"; isr = "null"
    for (i = 2; i <= NF; i++) {
      if ($(i + 1) == "ns/op")       ns = $i
      if ($(i + 1) == "allocs/op")   allocs = $i
      if ($(i + 1) == "p99-tick-ns") p99 = $i
      if ($(i + 1) == "isr")         isr = $i
    }
    printf "%s  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"cpus\": %s, \"p99_tick_ns\": %s, \"isr\": %s}", sep, name, ns, allocs, cpus, p99, isr
    sep = ",\n"
  }
  BEGIN { print "[" }
  END   { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"
