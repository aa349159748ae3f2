#!/usr/bin/env python3
"""Compare two source trees on the repo benchmark, in interleaved pairs.

    python3 tools/ab_bench.py PARENT_TREE CHANGE_TREE [--workloads a,b] \
        [--seeds 1,7] [--pairs 6] [--seconds 3] [--trace 0]

Each tree is a full source checkout. For every workload and seed the script
runs `python3 perfbench/run.py` in PARENT_TREE and in CHANGE_TREE one after
the other, PAIRS times, swapping which tree goes first on every pair, so
slow drift of the machine hits both sides alike. perfbench/run.py builds its
tree on its first call (the first pair absorbs that). The script prints, per
workload, seed and metric, the parent's and the change's median [q1, q3],
the ratio of the medians and the number of pairs the change won (direction
from the change tree's BENCHMARK.json), plus whether both trees printed the
same event-log digest and final clock. Exits non-zero when a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit("ab_bench: %s failed in %s (exit %d)" % (" ".join(cmd), tree, proc.returncode))
    result = json.loads(lines[-1])
    digest = next((l.strip() for l in lines if l.startswith("event-log digest:")), "")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed"] = result.get("failed", 0)
    return metrics, digest, result.get("correct", False)


def directions(tree):
    """Metric name -> "higher" or "lower", from the tree's BENCHMARK.json."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    out["failed"] = "lower"
    return out


def spread(xs):
    """(median, q1, q3) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", default="zones_spread,master_worker,waxman_coupled")
    ap.add_argument("--seeds", default="1,7")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    better = directions(trees["change"])

    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            samples = {"parent": [], "change": []}
            digests = {"parent": set(), "change": set()}
            correct = True
            for i in range(args.pairs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    metrics, digest, ok = run(trees[side], workload, seed, args.seconds, args.trace)
                    samples[side].append(metrics)
                    digests[side].add(digest)
                    correct = correct and ok
            print("== %s seed %d: %d pairs, %.3g s each; correct %s; digests %s" %
                  (workload, seed, args.pairs, args.seconds, correct,
                   "identical" if digests["parent"] == digests["change"] and
                   len(digests["parent"]) == 1 else "DIFFER %s" % digests))
            for d in sorted(digests["change"]):
                print("   change  " + d)
            if digests["parent"] != digests["change"]:
                for d in sorted(digests["parent"]):
                    print("   parent  " + d)
            print("   %-28s %-34s %-34s %7s %5s" % ("metric", "parent median [q1, q3]",
                                                   "change median [q1, q3]", "ratio", "wins"))
            for name in samples["parent"][0]:
                p = [m[name] for m in samples["parent"]]
                c = [m[name] for m in samples["change"]]
                pm, pq1, pq3 = spread(p)
                cm, cq1, cq3 = spread(c)
                way = better.get(name)
                wins = ("%d/%d" % (sum((b > a) if way == "higher" else (b < a)
                                       for a, b in zip(p, c)), len(p)) if way else "-")
                ratio = "%.3f" % (cm / pm) if pm else "-"
                print("   %-28s %-34s %-34s %7s %5s" % (
                    name, "%.4g [%.4g, %.4g]" % (pm, pq1, pq3), "%.4g [%.4g, %.4g]" % (cm, cq1, cq3),
                    ratio, wins))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
