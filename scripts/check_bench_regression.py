#!/usr/bin/env python3
"""Cross-PR perf regression gate for the benchmark probes.

Compares the `wall_ms` of freshly measured probe JSONs against their
committed baselines and fails (exit 1) when a measurement is more than
--max-slowdown times its baseline. The committed baselines are recorded on
the development container; CI runners differ in absolute speed, which is
why the gate is a generous ratio rather than a tight budget — it exists to
catch order-of-magnitude regressions (a disabled cache, an accidentally
quadratic loop), not scheduling noise.

Several probes are gated in one invocation by repeating --current/--baseline
(pairs are matched positionally). Every pair's "benchmark" name must match
between current and baseline, and every sub-benchmark present in a current
file must exist in its baseline — unmatched names are hard errors, so a
probe silently renamed or missing from the committed baselines can never
slip through green.

Usage:
  check_bench_regression.py \
      --current BENCH_mapping.json --baseline bench/baselines/BENCH_mapping.json \
      --current BENCH_exploration.json --baseline bench/baselines/BENCH_exploration.json \
      [--max-slowdown 2.0]
"""

import argparse
import json
import sys

# Correctness invariants recorded alongside the timings, when present: the
# probes' mapping costs, candidate counts, bit-identity flags, the
# incremental floorplanner's 2x acceptance bar, and the transactional
# annealing win (bit-identical SA with incremental floorplan deltas on
# accept AND reject, >= 2x where the delta-vs-rebuild machinery is
# isolated), and the fault-evaluation pair (an empty fault set leaves the
# mapping search bit-identical; degraded re-evaluation through prebuilt
# per-scenario BFS tables is >= 2x the from-scratch masked searches) are
# part of the contract and must not drift as the engine gets faster. The
# distributed-sweep probe adds two more: a merged multi-process report and
# a checkpoint-resumed report must both stay bit-identical to the
# single-process explorer. The routing probe adds the transactional
# incremental-routing pair: every speculative split-all RoutingSession
# solve is bit-identical to the from-scratch canonical loop, and the gated
# exploration legs keep the >= 2x session speedup (minimum-path routing has
# no session; it routes from scratch). The simulation probe adds the engine pair: the
# event-driven engine is bit-identical to the cycle-stepped reference on
# every leg (the full SimStats record, verdict paths included), and the
# light-load legs keep the >= 3x aggregate event speedup. The simulator
# hot-path overhaul adds two more: the overhauled event engine stays
# bit-identical to the frozen in-binary pre-overhaul baseline while keeping
# the >= 1.3x aggregate speedup over it, and the explorer's parallel
# finalist tier merges simulation scores bit-identically to the serial pass
# at every thread count.
INVARIANT_KEYS = ("cost", "evaluated_mappings", "pruned_mappings",
                  "bit_identical", "restart_never_worse", "incremental_2x",
                  "annealing_incremental", "fault_free_bit_identical",
                  "fault_incremental_2x", "merge_bit_identical",
                  "resume_bit_identical", "routing_bit_identical",
                  "routing_incremental_2x", "sim_bit_identical",
                  "sim_event_3x", "sim_hot_path_1p3x",
                  "finalist_parallel_identical")


def check_pair(current_path: str, baseline_path: str,
               max_slowdown: float) -> bool:
    with open(current_path) as f:
        current = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    ok = True
    current_name = current.get("benchmark")
    baseline_name = baseline.get("benchmark")
    if current_name != baseline_name:
        print(f"FAIL: benchmark name mismatch: {current_path} is "
              f"{current_name!r} but {baseline_path} is {baseline_name!r}")
        return False

    def gate(label: str, current_ms: float, baseline_ms: float) -> bool:
        if baseline_ms <= 0:
            print(f"FAIL: {label}: baseline wall_ms is {baseline_ms}; "
                  f"nothing to compare")
            return False
        ratio = current_ms / baseline_ms
        print(f"{label}: current {current_ms:.1f} ms vs baseline "
              f"{baseline_ms:.1f} ms (ratio {ratio:.2f}, "
              f"limit {max_slowdown:.2f})")
        if ratio > max_slowdown:
            print(f"FAIL: {label} slowed beyond the regression limit")
            return False
        return True

    ok &= gate(str(current_name), float(current["wall_ms"]),
               float(baseline["wall_ms"]))

    # Sub-benchmarks: every name measured now must have a committed
    # baseline; a missing one is a hard error, not a silent pass.
    current_subs = current.get("sub_benchmarks", {})
    baseline_subs = baseline.get("sub_benchmarks", {})
    for name, current_ms in current_subs.items():
        if name not in baseline_subs:
            print(f"FAIL: {current_name}/{name} has no baseline in "
                  f"{baseline_path} — refresh the committed baselines")
            ok = False
            continue
        ok &= gate(f"{current_name}/{name}", float(current_ms),
                   float(baseline_subs[name]))
    for name in baseline_subs:
        if name not in current_subs:
            print(f"warning: baseline sub-benchmark {current_name}/{name} "
                  f"was not measured in this run")

    for key in INVARIANT_KEYS:
        if key in baseline and key in current and current[key] != baseline[key]:
            print(f"FAIL: {current_name}: {key} drifted: "
                  f"baseline {baseline[key]} vs current {current[key]}")
            ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", action="append", required=True,
                        help="probe JSON produced by this run (repeatable)")
    parser.add_argument("--baseline", action="append", required=True,
                        help="committed baseline JSON (repeatable, paired "
                             "positionally with --current)")
    parser.add_argument("--max-slowdown", type=float, default=2.0,
                        help="fail when current/baseline exceeds this ratio")
    args = parser.parse_args()

    if len(args.current) != len(args.baseline):
        print(f"FAIL: {len(args.current)} --current file(s) but "
              f"{len(args.baseline)} --baseline file(s)")
        return 1

    ok = True
    for current_path, baseline_path in zip(args.current, args.baseline):
        ok &= check_pair(current_path, baseline_path, args.max_slowdown)
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
