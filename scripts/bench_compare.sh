#!/usr/bin/env bash
# bench_compare.sh — the CI allocation gate over the recorded benchmark
# trajectory.
#
#   scripts/bench_compare.sh fresh.json [baseline.json]
#
# The baseline defaults to the committed BENCH.json. Entries are keyed on
# (name, cpus), and the pinned set is exactly the baseline's keys:
#
#   - a pinned benchmark missing from the fresh trajectory fails the gate
#     (the set may only shrink by editing the committed baseline in the
#     same change);
#   - allocs/op is machine-independent, so it gates near-absolutely: fresh
#     above base*1.10 + 32 fails (the headroom covers scheduler-dependent
#     allocation jitter in the workers>=2 rows);
#   - ns/op is recorded, not gated: single -benchtime=1x samples cannot
#     resolve a timing change under 20%. Timing claims are made with the
#     wall-clock benchmark in benchmark/;
#   - Swarm-named benchmarks (BenchmarkSwarmTail) are exempt from the gate,
#     and their absence from a fresh trajectory only warns, because hosts
#     that skip the swarm bench entirely (no loopback budget, constrained
#     runners) legitimately produce no Swarm entry: each iteration is a full
#     real-TCP swarm run whose allocs scale with live goroutine/connection
#     scheduling, not with the hot path. Their recorded p99_tick_ns / isr
#     fields are the trajectory of interest, tracked in the committed
#     BENCH.json rather than gated.
set -euo pipefail
cd "$(dirname "$0")/.."

fresh="${1:?usage: scripts/bench_compare.sh fresh.json [baseline.json]}"
baseline="${2:-BENCH.json}"

out=$(jq -s -r '
  def key: "\(.name)@\(.cpus)";
  (.[0] | map({key: key, value: .}) | from_entries) as $fresh
  | .[1] as $base
  | ($base | map(. + {f: $fresh[key]})) as $rows
  | ($rows | map(select(.f == null and (.name | test("Swarm") | not))
      | "FAIL missing: pinned benchmark \(key) absent from fresh trajectory")) as $missing
  | ($rows | map(select(.f == null and (.name | test("Swarm")))
      | "WARN missing: Swarm benchmark \(key) absent from fresh trajectory (swarm bench skipped on this host; skipped)")) as $missing_swarm
  | ($rows | map(select(.f != null and .allocs_per_op != null and .f.allocs_per_op != null
                        and (.name | test("Swarm") | not))
      | select(.f.allocs_per_op > .allocs_per_op * 1.10 + 32)
      | "FAIL allocs: \(key) \(.allocs_per_op) -> \(.f.allocs_per_op) allocs/op")) as $alloc_fails
  | ($missing + $alloc_fails) as $fails
  | (["perf gate: \($rows | length) pinned benchmarks, allocs/op gated"]
     + $missing_swarm
     + $fails
     + [if ($fails | length) == 0 then "perf gate: PASS"
        else "perf gate: \($fails | length) regression(s)" end])
  | .[]
' "$fresh" "$baseline")

echo "$out"
if grep -q '^FAIL' <<<"$out"; then
  exit 1
fi
