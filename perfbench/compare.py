#!/usr/bin/env python3
"""Compares two sets of benchmark runs (README.md "Comparing runs").

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the reports `run.py --out DIR` saved. For every
workload and end-to-end metric of BENCHMARK.json the table shows each
side's median and quartiles, the change of the medians, and a verdict:

    worse       the new median is worse than the base by more than the
                metric's bound
    unresolved  the run-to-run spread (interquartile range over median)
                of either side is wider than the bound, so a change of
                that size cannot be told from noise
    ok          neither

Exits 1 when any metric is worse, else 0. Fingerprint fields that differ
between the two sets are listed first: a comparison across machines or
build configurations is not a regression test.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: [report, ...]} of the untraced reports in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            report = json.load(f)
        if report.get("trace"):
            continue
        runs.setdefault(report["workload"], []).append(report)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def fingerprint_diff(base, new):
    def fields(runs):
        seen = {}
        for reports in runs.values():
            for r in reports:
                for k, v in r.get("fingerprint", {}).items():
                    seen.setdefault(k, set()).add(json.dumps(v))
        return seen
    a, b = fields(base), fields(new)
    return {k: (sorted(a.get(k, [])), sorted(b.get(k, [])))
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)

    for key, (a, b) in fingerprint_diff(base, new).items():
        print("fingerprint differs: %s base=%s new=%s" % (key, a, b))

    worse = 0
    header = "%-16s %-16s %5s %30s %30s %8s  %s" % (
        "workload", "metric", "runs", "base q1/median/q3",
        "new q1/median/q3", "change", "verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["e2e"][name] for r in base[workload] if name in r["e2e"]]
            b = [r["e2e"][name] for r in new[workload] if name in r["e2e"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
            got_worse = (change > bound if metric["better"] == "lower"
                         else change < -bound)
            verdict = ("worse" if got_worse else
                       "unresolved" if spread > bound else "ok")
            worse += verdict == "worse"
            print("%-16s %-16s %2d/%-2d %30s %30s %+7.1f%%  %s (bound %.0f%%, "
                  "spread %.1f%%)" % (
                      workload, name, len(a), len(b),
                      "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                      100.0 * change, verdict, 100.0 * bound, 100.0 * spread))
    for workload in sorted(set(base) ^ set(new)):
        print("%-16s only in %s" % (workload,
                                    "base" if workload in base else "new"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
