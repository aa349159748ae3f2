#!/usr/bin/env python3
"""Compare benchmark JSON against a baseline and fail on regressions.

Supports three input shapes:
  * google-benchmark JSON ("benchmarks" entries with "real_time", in ns
    unless "time_unit" says otherwise) — BENCH_maxmin.json
  * our engine-bench JSON ("benchmarks" entries with "wall_time_s") —
    BENCH_engine.json, BENCH_fault_churn.json; this includes the multi-
    zone churn series (sharded_churn/*, sharded_hotzone/* and
    sharded_scaleout/*), whose wall times gate like every other engine
    benchmark
  * memory metrics ("benchmarks" entries with "bytes") — the bytes-per-
    action, bytes-per-flow and routing_bytes_per_host records in
    BENCH_engine.json
  * throughput rates ("benchmarks" entries whose primary metric is
    "events_per_sec", with no wall_time_s/bytes; no bench writes them now,
    but older baselines may hold them). These gate HIGHER-is-better: the
    job fails when current < baseline * (1 - threshold).

Entries may also carry secondary metrics (events_per_sec, us_per_event,
ns_per_route, sim_time_s, ...). Those are informational: they are printed
alongside the tracked metric as "name#key" rows but never fail the job —
the primary wall time / bytes value is what gates. Ratios of metrics named
in HIGHER_IS_BETTER are inverted on display so every printed ratio reads
the same way (above 1.00 = worse).

Tracked time/bytes metrics are lower-is-better: a benchmark regresses
when current > baseline * (1 + threshold). Tracked rate metrics are
higher-is-better: they regress when current < baseline * (1 - threshold). Benchmarks present on only one side
are reported but never fail the job, and a missing baseline file skips the
comparison entirely (first run on a branch, expired artifact, ...).

A timing regresses only when its total measured time is above a 1 ms
absolute floor, so scheduler noise on shared CI runners cannot fail the job
on a run too short to time. For google-benchmark rows the total is
real_time x iterations: the floor applies to the whole measurement, not to
one iteration, so a sub-millisecond microbenchmark still gates. For engine-
bench rows the wall time already is the total. Memory metrics are
deterministic, so no floor applies to them.

Usage: compare_bench.py BASELINE CURRENT [--threshold 0.25]
"""

import argparse
import json
import os
import sys

ABS_FLOOR_S = 1e-3


PRIMARY_KEYS = ("bytes", "wall_time_s", "real_time", "time_unit", "name")

# Informational metrics where larger is better; their display ratio is
# inverted so the table reads uniformly (above 1.00 = worse).
HIGHER_IS_BETTER = {"events_per_sec", "spawn_per_sec", "wakeups_per_sec"}


def load_metrics(path):
    """name -> (value, kind, total): kind 'time' (seconds), 'bytes' or 'rate'
    (events/s, higher is better) gates; 'info' rows are printed but
    never fail. total is the whole measured time of a 'time' row (what the
    noise floor applies to) and the value itself otherwise."""
    with open(path) as fh:
        data = json.load(fh)
    metrics = {}
    unit_scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    for entry in data.get("benchmarks", []):
        name = entry.get("name")
        if name is None:
            continue
        if "bytes" in entry:
            value = float(entry["bytes"])
            metrics[name] = (value, "bytes", value)
        elif "wall_time_s" not in entry and "events_per_sec" in entry:
            value = float(entry["events_per_sec"])
            metrics[name] = (value, "rate", value)
        elif "wall_time_s" in entry:
            value = float(entry["wall_time_s"])
            metrics[name] = (value, "time", value)
        elif "real_time" in entry:
            scale = unit_scale.get(entry.get("time_unit", "ns"), 1e-9)
            value = float(entry["real_time"]) * scale
            metrics[name] = (value, "time", value * float(entry.get("iterations", 1)))
        # Secondary metrics only exist in the engine-bench shape; google-
        # benchmark entries carry bookkeeping numbers (family_index,
        # iterations, cpu_time, ...) that would drown the table.
        if "wall_time_s" not in entry and "bytes" not in entry \
                and metrics.get(name, (0, "", 0))[1] != "rate":
            continue
        for key, value in entry.items():
            if key in PRIMARY_KEYS or not isinstance(value, (int, float)):
                continue
            if metrics.get(name, (0, "", 0))[1] == "rate" and key == "events_per_sec":
                continue  # already the primary metric of this entry
            metrics[f"{name}#{key}"] = (float(value), "info", float(value))
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional increase that fails the job (default 0.25)")
    args = parser.parse_args()

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline} — skipping comparison "
              "(first run, or the main artifact expired)")
        return 0
    if not os.path.exists(args.current):
        print(f"error: current results missing at {args.current}")
        return 1

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)

    regressions = []
    print(f"{'benchmark':50s} {'baseline':>14s} {'current':>14s} {'ratio':>8s}")
    for name in sorted(current):
        cur, kind, cur_total = current[name]
        if name not in baseline:
            print(f"{name:50s} {'(new)':>14s} {cur:14.6g} {'':>8s}")
            continue
        base = baseline[name][0]
        ratio = cur / base if base > 0 else float("inf")
        if kind == "rate" or (kind == "info"
                              and name.rsplit("#", 1)[-1] in HIGHER_IS_BETTER and cur > 0):
            # Invert so every printed ratio reads "above 1.00 = worse".
            ratio = base / cur if cur > 0 else float("inf")
        noise_floor = ABS_FLOOR_S if kind == "time" else 0.0
        flag = ""
        if kind in ("time", "bytes") and cur > base * (1.0 + args.threshold) \
                and cur_total > noise_floor:
            flag = "  REGRESSED"
            regressions.append((name, base, cur, ratio))
        elif kind == "rate" and cur < base * (1.0 - args.threshold):
            flag = "  REGRESSED"
            regressions.append((name, base, cur, ratio))
        print(f"{name:50s} {base:14.6g} {cur:14.6g} {ratio:8.2f}{flag}")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:50s} {baseline[name][0]:14.6g} {'(gone)':>14s}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} vs the main baseline:")
        for name, base, cur, ratio in regressions:
            print(f"  {name}: {base:.6g} -> {cur:.6g} ({ratio:.2f}x)")
        return 1
    print("\nno benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
