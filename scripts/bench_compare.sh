#!/usr/bin/env bash
# bench_compare.sh — the CI perf-regression gate over the recorded benchmark
# trajectory.
#
#   scripts/bench_compare.sh fresh.json [baseline.json]
#
# The baseline defaults to the committed BENCH.json. Entries are keyed on
# (name, cpus), so a cpus:1 measurement is only ever compared against a
# cpus:1 baseline, never against a sweep entry of the same benchmark. The
# pinned set is exactly the baseline's keys:
#
#   - a pinned cpus:1 benchmark missing from the fresh trajectory fails the
#     gate (the set may only shrink by editing the committed baseline in the
#     same change). Pinned cpus>1 entries are skipped with a warning when
#     absent: bench.sh only sweeps the multicore points the host can run, so
#     a 1-core CI runner legitimately produces no cpus:2/4 measurements;
#   - allocs/op is machine-independent, so it gates near-absolutely: fresh
#     above base*1.10 + 32 fails (the headroom covers scheduler-dependent
#     allocation jitter in the workers>=2 sweeps);
#   - ns/op depends on the host, so the gate is relative: per-benchmark
#     fresh/base ratios are calibrated by their median — a uniformly slower
#     CI runner shifts every ratio equally and passes — and any benchmark
#     more than 25% above the calibrated expectation fails. Three classes
#     are exempt from the time gate (alloc-gated only): benchmarks under
#     50 ms/op, where a single -benchtime=1x sample swings with scheduler
#     noise alone; the workers>=2 sweep entries; and every cpus>1 entry.
#     The latter two shift NON-uniformly with the runner's core count
#     relative to a baseline recorded on a different host (a 4-vCPU runner
#     speeds them up 2-4x against a 1-CPU baseline, which would drag the
#     calibration median off the uniform serial shift). The time-gated set
#     is therefore the long serial 60-tick window benches at cpus:1 — the
#     per-workload hot-path cost this gate exists to protect;
#   - Swarm-named benchmarks (BenchmarkSwarmTail) are exempt from BOTH
#     gates, and their absence from a fresh trajectory only warns — at any
#     cpus value, mirroring the cpus>1 downgrade — because hosts that skip
#     the swarm bench entirely (no loopback budget, constrained runners)
#     legitimately produce no Swarm entry: each iteration is a full real-TCP swarm run
#     whose ns/op is a fixed wall budget and whose allocs scale with live
#     goroutine/connection scheduling, not with the hot path. Their recorded
#     p99_tick_ns / isr fields are the trajectory of interest, tracked in
#     the committed BENCH.json rather than gated.
set -euo pipefail
cd "$(dirname "$0")/.."

fresh="${1:?usage: scripts/bench_compare.sh fresh.json [baseline.json]}"
baseline="${2:-BENCH.json}"

out=$(jq -s -r '
  def key: "\(.name)@\(.cpus)";
  (.[0] | map({key: key, value: .}) | from_entries) as $fresh
  | .[1] as $base
  | ($base | map(. + {f: $fresh[key]})) as $rows
  | ($rows | map(select(.f == null and .cpus == 1 and (.name | test("Swarm") | not))
      | "FAIL missing: pinned benchmark \(key) absent from fresh trajectory")) as $missing
  | ($rows | map(select(.f == null and .cpus > 1 and (.name | test("Swarm") | not))
      | "WARN missing: pinned benchmark \(key) absent from fresh trajectory (multicore point not run on this host; skipped)")) as $missing_mc
  | ($rows | map(select(.f == null and (.name | test("Swarm")))
      | "WARN missing: Swarm benchmark \(key) absent from fresh trajectory (swarm bench skipped on this host; skipped)")) as $missing_swarm
  | ($rows | map(select(.f != null and .allocs_per_op != null and .f.allocs_per_op != null
                        and (.name | test("Swarm") | not))
      | select(.f.allocs_per_op > .allocs_per_op * 1.10 + 32)
      | "FAIL allocs: \(key) \(.allocs_per_op) -> \(.f.allocs_per_op) allocs/op")) as $alloc_fails
  | ($rows | map(select(.f != null and .ns_per_op != null and .f.ns_per_op != null
                        and .ns_per_op >= 50000000
                        and .cpus == 1
                        and (.name | test("workers[2-9]") | not)
                        and (.name | test("Swarm") | not))
      | {name: key, r: (.f.ns_per_op / .ns_per_op)})) as $timed
  | (if ($timed | length) == 0 then 1
     else ($timed | map(.r) | sort | .[(length / 2 | floor)]) end) as $cal
  | ($timed | map(select(.r > $cal * 1.25)
      | "FAIL ns/op: \(.name) ratio \((.r * 100 | round) / 100) vs calibrated median \((($cal) * 100 | round) / 100) (> +25%)")) as $time_fails
  | ($missing + $alloc_fails + $time_fails) as $fails
  | (["perf gate: \($rows | length) pinned benchmarks, \($timed | length) time-gated, median speed ratio \((($cal) * 1000 | round) / 1000)"]
     + $missing_mc
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
