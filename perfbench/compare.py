#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a JSONL file written by `run.py --out FILE` (one run
per line) or a directory of such files. For every workload and end-to-end
metric it prints each set's median and quartiles, the change of the median
(positive = better) and a verdict against the
metric's bound in the repository's BENCHMARK.json:

  regressed    NEW's median is worse than BASE's by more than the bound
  improved     NEW's median is better by more than the bound
  within       the medians differ by less than the bound
  unresolved   either set's quartile spread is wider than the bound, so the
               sets cannot show a change of that size -- unless every NEW
               run is better (or worse) than every BASE run
  unchanged    the metric reads the same in every run of both sets

The exact metrics (ok_pct, top1_pct, top5_pct, valid_loss) are the same in
every run of the same code, so for them any difference at all is reported,
whatever the bound: "regressed" if NEW's median is worse, else "changed".

Runs whose correctness checks failed ("correct": false) are left out of the
statistics and counted per set.

Exits 1 if any metric regressed, an exact metric changed, or a run failed
its checks; else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
EXACT = ("ok_pct", "top1_pct", "top5_pct", "valid_loss")


def load_runs(path):
    """Untraced runs from a JSONL file or a directory of them."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".jsonl") or name.endswith(".json"))
    runs = []
    for name in files:
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    run = json.loads(line)
                    if not run.get("trace") and "result" in run:
                        runs.append(run)
    return runs


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def change(base, new, better):
    """Relative change of the median from BASE to NEW; positive = better."""
    base_med, new_med = quartiles(base)[1], quartiles(new)[1]
    if not base_med:
        return 0.0
    sign = 1.0 if better == "higher" else -1.0
    return sign * (new_med - base_med) / abs(base_med)


def verdict(base, new, better, bound, exact=False):
    """Verdict for one metric from its BASE and NEW values."""
    if min(base) == max(base) == min(new) == max(new):
        return "unchanged"
    sign = 1.0 if better == "higher" else -1.0
    if exact:
        worse = sign * (quartiles(new)[1] - quartiles(base)[1]) < 0
        return "regressed" if worse else "changed"
    if all(sign * (n - b) > 0 for n in new for b in base):
        every = "improved"
    elif all(sign * (n - b) < 0 for n in new for b in base):
        every = "regressed"
    else:
        every = None
    if spread(base) > bound or spread(new) > bound:
        return every or "unresolved"
    moved = change(base, new, better)
    if moved < -bound:
        return "regressed"
    if moved > bound:
        return "improved"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in new_runs})
    if not workloads:
        print("no workload has runs in both sets", file=sys.stderr)
        return 2
    bad = False
    for workload in workloads:
        sets = []
        for label, runs in (("base", base_runs), ("new", new_runs)):
            mine = [r for r in runs if r["workload"] == workload]
            good = [r for r in mine if r["result"]["correct"]]
            failed = sum(r["result"]["failed"] for r in mine)
            print("%s %s: %d runs, %d failed their checks (left out), %d failed requests" % (
                workload, label, len(mine), len(mine) - len(good), failed))
            bad |= len(good) < len(mine)
            sets.append(good)
        base, new = sets
        if not base or not new:
            print("  no correct runs to compare")
            continue
        print("  %-20s %-6s %32s %32s %8s %6s  %s" % (
            "metric", "unit", "base q1 / median / q3", "new q1 / median / q3", "change",
            "bound", "verdict"))
        for metric in metrics:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base if name in r["result"]["metrics"]]
            n = [r["result"]["metrics"][name]["value"] for r in new if name in r["result"]["metrics"]]
            if not b or not n:
                continue
            result = verdict(b, n, metric["better"], metric["bound"], name in EXACT)
            bad |= result in ("regressed", "changed")
            print("  %-20s %-6s %32s %32s %+7.1f%% %6.2f  %s" % (
                name, metric["unit"],
                "%.4g / %.4g / %.4g" % quartiles(b),
                "%.4g / %.4g / %.4g" % quartiles(n),
                100.0 * change(b, n, metric["better"]), metric["bound"], result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
