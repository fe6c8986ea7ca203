"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (``.perfbench/results``
of a checkout, copied aside).  For every workload and end-to-end metric
it prints each side's median and quartiles over the runs, the change of
the median, the runs paired by seed in which the change read better
(``wins``), and a verdict against the bound in BENCHMARK.json:

  unresolved   the base's quartile spread is wider than the bound, and
               neither side's runs all read better than the other's
  better       the change won nine tenths of the seed pairs and its median
               moved by more than the base's quartile spread
  worse        the median got worse by more than the bound
  same         none of these

Per-layer metrics (``--trace 1``) have no bound; they are exact counts or
trace totals and read ``same`` only when the medians are equal.  A move
away from a zero base counts as a change.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory, trace):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        if res.get("trace") != trace:
            continue
        metrics = res["layer"] if trace else res["metrics"]
        runs.setdefault(res["workload"], {})[res["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_change(base, change):
    if base:
        return (change - base) / base
    return 0.0 if change == base else math.copysign(math.inf, change - base)


def verdict(bound, sign, b, c, wins, pairs, bq, cq, rel):
    """Verdict for one metric; ``sign`` is +1 when higher is better, so
    ``sign * x`` grows as x gets better."""
    if bound is None:
        return "same" if rel == 0 else ("better" if sign * rel > 0 else "worse")
    spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else math.inf
    if spread > bound:
        if min(sign * x for x in c) > max(sign * x for x in b):
            return "better"
        if max(sign * x for x in c) < min(sign * x for x in b):
            return "worse"
        return "unresolved"
    if pairs and wins >= 0.9 * pairs and sign * (cq[1] - bq[1]) > bq[2] - bq[0]:
        return "better"
    if sign * rel < -bound:
        return "worse"
    return "same"


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        base, change = load(argv[0], trace), load(argv[1], trace)
        for workload in sorted(set(base) & set(change)):
            b_runs, c_runs = base[workload], change[workload]
            print(f"\n{workload} (trace {trace}): {len(b_runs)} base runs, "
                  f"{len(c_runs)} change runs")
            print(f"  {'metric':<40} {'base q1/med/q3':>32} {'change q1/med/q3':>32}"
                  f" {'change':>8} {'wins':>6}  verdict")
            for d in defs:
                name = d["name"]
                b = {s: r[name] for s, r in b_runs.items() if name in r}
                c = {s: r[name] for s, r in c_runs.items() if name in r}
                if not b or not c:
                    continue
                b_vals, c_vals = list(b.values()), list(c.values())
                bq, cq = quartiles(b_vals), quartiles(c_vals)
                rel = relative_change(bq[1], cq[1])
                seeds = sorted(set(b) & set(c))
                sign = 1.0 if d["better"] == "higher" else -1.0
                wins = sum(1 for s in seeds if sign * (c[s] - b[s]) > 0)
                v = verdict(d.get("bound"), sign, b_vals, c_vals, wins, len(seeds), bq, cq, rel)
                print(f"  {name:<40} {bq[0]:>10.4g}/{bq[1]:<10.4g}/{bq[2]:<10.4g}"
                      f" {cq[0]:>10.4g}/{cq[1]:<10.4g}/{cq[2]:<10.4g}"
                      f" {rel:>+8.2%} {wins:>2}/{len(seeds):<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
