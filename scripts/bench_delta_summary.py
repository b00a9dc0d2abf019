#!/usr/bin/env python3
"""Markdown delta summary between a fresh probe JSON and its baseline.

Used by the refresh-baselines CI job to surface what a merge just did to
the tracked benchmarks (BENCH_search.json in particular) in the GitHub job
summary, before the fresh numbers overwrite the committed baselines:

  bench_delta_summary.py --current BENCH_search.json \
      --baseline bench/baselines/BENCH_search.json >> "$GITHUB_STEP_SUMMARY"

Prints the top-level wall clock, every sub-benchmark's old/new/delta, and
any recorded invariant flags (bit_identical, annealing_incremental, ...).
Missing baselines render as "new" rows instead of failing — this is a
reporting tool; the hard gate is check_bench_regression.py.
"""

import argparse
import json
import os
import sys

# The hard gate owns the invariant list; the summary reports those plus the
# informational speedup/fraction scalars the probes record alongside them.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_regression import INVARIANT_KEYS as GATED_INVARIANT_KEYS

INVARIANT_KEYS = GATED_INVARIANT_KEYS + (
    "annealing_txn_speedup_rigid", "annealing_txn_speedup_sized",
    "aggregate_speedup", "min_prune_fraction", "min_area_prune_fraction",
    "min_power_prune_fraction", "session_speedup_splitall",
    "event_speedup_light_load", "finalist_speedup_2t")


def fmt_ms(value) -> str:
    return f"{float(value):.1f}"


def delta_cell(current: float, baseline) -> str:
    if baseline is None or float(baseline) <= 0.0:
        return "new"
    ratio = float(current) / float(baseline)
    sign = "+" if ratio >= 1.0 else ""
    return f"{sign}{100.0 * (ratio - 1.0):.0f}%"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        baseline = {}

    name = current.get("benchmark", args.current)
    print(f"### {name} baseline refresh\n")
    print("| benchmark | baseline ms | fresh ms | delta |")
    print("|---|---|---|---|")
    base_wall = baseline.get("wall_ms")
    print(f"| {name} (total) | "
          f"{fmt_ms(base_wall) if base_wall is not None else '—'} | "
          f"{fmt_ms(current['wall_ms'])} | "
          f"{delta_cell(current['wall_ms'], base_wall)} |")
    baseline_subs = baseline.get("sub_benchmarks", {})
    for sub, ms in current.get("sub_benchmarks", {}).items():
        base_ms = baseline_subs.get(sub)
        print(f"| {sub} | "
              f"{fmt_ms(base_ms) if base_ms is not None else '—'} | "
              f"{fmt_ms(ms)} | {delta_cell(ms, base_ms)} |")

    flags = [(key, baseline.get(key), current.get(key))
             for key in INVARIANT_KEYS if key in current]
    if flags:
        print("\n| invariant | baseline | fresh |")
        print("|---|---|---|")
        for key, old, new in flags:
            marker = "" if old in (None, new) else " ⚠️"
            print(f"| {key} | {old if old is not None else '—'} | "
                  f"{new}{marker} |")

    # The distributed probe records how the sweep scales with forked worker
    # processes against the single-process explorer; render it the same way
    # so the fork/merge overhead trend stays visible across runners.
    scaling = current.get("worker_scaling")
    if scaling:
        baseline_scaling = {point.get("workers"): point
                            for point in baseline.get("worker_scaling", [])}
        print("\n| workers | wall ms | speedup vs single | "
              "baseline speedup |")
        print("|---|---|---|---|")
        for point in scaling:
            old = baseline_scaling.get(point.get("workers"), {})
            old_speedup = old.get("speedup")
            print(f"| {point['workers']} | "
                  f"{fmt_ms(point['ms'])} | "
                  f"{float(point['speedup']):.2f}x | "
                  f"{f'{float(old_speedup):.2f}x' if old_speedup is not None else '—'} |")
    # The simulation probe records each (topology, traffic) leg run by both
    # engines; render cycle-vs-event and the events/sec the event engine
    # sustains so the light-load win stays visible as the router model grows.
    probe = current.get("engine_probe")
    if probe:
        baseline_probe = {row.get("run"): row
                          for row in baseline.get("engine_probe", [])}
        print("\n| leg | cycle ms | event ms | speedup | "
              "baseline speedup | Mevents/s |")
        print("|---|---|---|---|---|---|")
        for row in probe:
            old = baseline_probe.get(row.get("run"), {})
            old_speedup = old.get("speedup")
            print(f"| {row['run']} | "
                  f"{fmt_ms(row['cycle_ms'])} | "
                  f"{fmt_ms(row['event_ms'])} | "
                  f"{float(row['speedup']):.2f}x | "
                  f"{f'{float(old_speedup):.2f}x' if old_speedup is not None else '—'} | "
                  f"{float(row['event_events_per_sec']) / 1e6:.2f} |")

    # And how the parallel finalist tier scales with worker threads (the
    # 2-thread bar is gated on multi-core machines only).
    scaling = current.get("finalist_scaling")
    if scaling:
        baseline_scaling = {point.get("threads"): point
                            for point in baseline.get("finalist_scaling", [])}
        print("\n| finalist threads | wall ms | speedup vs serial | "
              "baseline speedup |")
        print("|---|---|---|---|")
        for point in scaling:
            old = baseline_scaling.get(point.get("threads"), {})
            old_speedup = old.get("speedup")
            print(f"| {point['threads']} | "
                  f"{fmt_ms(point['ms'])} | "
                  f"{float(point['speedup']):.2f}x | "
                  f"{f'{float(old_speedup):.2f}x' if old_speedup is not None else '—'} |")
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
