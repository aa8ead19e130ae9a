#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/bench_diff.py BASE NEW [--trace 0|1] [--spec BENCHMARK.json]

BASE and NEW are JSON-lines files written by perfbench/run.py (default
.bench_out/runs.jsonl), or directories holding such files; take BASE on
the parent commit and NEW on the change, with the same run length. For
each (workload, metric) it prints both medians with their quartiles, the
ratio new/base with the base it divides by, and a verdict:

  improved    the change wins at least 9 of 10 paired runs (ties count for
              neither; at least 10 pairs) and the medians differ by more
              than the parent's interquartile distance
  same        the change's median is not worse than the parent's by more
              than the metric's bound, and both spreads are within it
  worse       the change's median is worse by more than the bound
  unresolved  a spread (interquartile distance / median) is wider than
              the bound, unless every run of the change reads better than
              every run of the parent; or too few runs to decide

Runs are paired by seed where both sides ran the same seeds, else in run
order. Per-layer metrics (--trace 1) have no bound: only medians, ratios
and the improved test are reported. Exit status 1 when any verdict is
`worse` or a result failed its output checks.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path, trace):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".jsonl"))
    runs = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line:
                    record = json.loads(line)
                    if record.get("trace") == trace:
                        runs.append(record)
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return median, q1, q3


def pairs(base, new):
    """(base value, new value) pairs: by seed when the seed sets match."""
    base_seeds = [seed for seed, _ in base]
    new_seeds = [seed for seed, _ in new]
    if sorted(base_seeds) == sorted(new_seeds):
        by_seed = {}
        for seed, value in base:
            by_seed.setdefault(seed, []).append(value)
        out = []
        for seed, value in new:
            out.append((by_seed[seed].pop(0), value))
        return out
    return [(b, n) for (_, b), (_, n) in zip(base, new)]


def verdict(base, new, better, bound):
    b_values = [v for _, v in base]
    n_values = [v for _, v in new]
    b_med, b_q1, b_q3 = summary(b_values)
    n_med, n_q1, n_q3 = summary(n_values)
    sign = 1.0 if better == "higher" else -1.0
    matched = pairs(base, new)
    wins = sum(1 for b, n in matched if sign * (n - b) > 0)
    improved = (len(matched) >= 10 and wins >= 0.9 * len(matched)
                and sign * (n_med - b_med) > abs(b_q3 - b_q1))
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    n_spread = (n_q3 - n_q1) / abs(n_med) if n_med else float("inf")
    worse_by = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (n - b) > 0 for n in n_values for b in b_values)
    if improved:
        word = "improved"
    elif bound is None:
        word = "-"
    elif len(b_values) < 2 or len(n_values) < 2:
        word = "unresolved"
    elif max(b_spread, n_spread) > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "same"
    return {"base": (b_med, b_q1, b_q3, len(b_values)),
            "new": (n_med, n_q1, n_q3, len(n_values)),
            "wins": (wins, len(matched)), "spreads": (b_spread, n_spread),
            "verdict": word}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"base": load_runs(args.base, args.trace),
             "new": load_runs(args.new, args.trace)}
    bad = 0
    for name, runs in sides.items():
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        incorrect = sum(1 for r in runs if not r["result"]["correct"])
        bad += incorrect
        print(f"{name}: {len(runs)} runs, {failed}/{attempted} operations "
              f"failed, {incorrect} runs failed their output checks")

    print(f"\n{'workload':<16} {'metric':<24} {'base median [q1, q3] n':>34} "
          f"{'new median [q1, q3] n':>34}  {'new/base':<34} "
          f"{'spread b/n':<13} {'wins':<7} verdict")
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in metrics:
            series = {}
            for side, runs in sides.items():
                series[side] = [(r["seed"], r["result"]["metrics"][
                    metric["name"]]["value"]) for r in runs
                    if r["workload"] == workload
                    and metric["name"] in r["result"]["metrics"]]
            if not series["base"] or not series["new"]:
                continue
            v = verdict(series["base"], series["new"], metric["better"],
                        metric.get("bound"))
            worse += v["verdict"] == "worse"
            b, n = v["base"], v["new"]
            ratio = n[0] / b[0] if b[0] else float("nan")
            unit = metric["unit"]
            print(f"{workload:<16} {metric['name']:<24} "
                  f"{b[0]:>12.5g} [{b[1]:.5g}, {b[2]:.5g}] {b[3]:<3} "
                  f"{n[0]:>12.5g} [{n[1]:.5g}, {n[2]:.5g}] {n[3]:<3} "
                  f"{ratio:<6.4f} = {n[0]:.5g}/{b[0]:.5g} {unit:<8} "
                  f"{v['spreads'][0]:.3f}/{v['spreads'][1]:.3f}  "
                  f"{v['wins'][0]}/{v['wins'][1]:<4} {v['verdict']}")
    sys.exit(1 if worse or bad else 0)


if __name__ == "__main__":
    main()
