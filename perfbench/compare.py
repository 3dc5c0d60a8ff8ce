"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py DIR_A DIR_B

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
run.py writes to perfbench/results/ (copy them aside between the two
commits).  A is the baseline.  For every end-to-end metric named in
BENCHMARK.json the row shows each side's median and quartiles and one
verdict:

* improved: B wins at least 9 of 10 seed-matched pairs and the medians
  differ by more than A's quartile spread;
* within bound: B's median is not worse than A's by more than the bound;
* regressed: it is worse by more than the bound;
* unresolved: either side's quartile spread, as a share of its median,
  exceeds the bound, so the run-to-run noise hides the difference.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: {metric: value}}} from one result directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        ctx = rec["context"]
        out.setdefault(ctx["workload"], {})[ctx["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound):
    """a, b: {seed: value}.  Returns the verdict and both quartile triples."""
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (qa[1] - qb[1])  # > 0 when B is better
    pairs = [s for s in a if s in b]
    wins = sum(sign * (a[s] - b[s]) > 0 for s in pairs)
    won = bool(pairs) and wins >= 0.9 * len(pairs)
    if won and gain > qa[2] - qa[0]:
        return "improved", qa, qb
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        return "unresolved", qa, qb
    if -gain > bound * abs(qa[1]):
        return "regressed", qa, qb
    return "within bound", qa, qb


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    side_a, side_b = load(argv[0]), load(argv[1])
    print(f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s}  bound  verdict")
    for wl in (w["name"] for w in bench["workloads"]):
        if wl not in side_a or wl not in side_b:
            print(f"{wl:16s} (missing on {'A' if wl not in side_a else 'B'})")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = {s: m[name] for s, m in side_a[wl].items() if name in m}
            b = {s: m[name] for s, m in side_b[wl].items() if name in m}
            if not a or not b:
                continue
            v, qa, qb = verdict(a, b, metric["better"], metric["bound"])

            def fmt(q, n):
                return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={n}"

            print(f"{wl:16s} {name:14s} {fmt(qa, len(a)):>34s} {fmt(qb, len(b)):>34s}"
                  f"  {metric['bound']:.2f}  {v}  ({metric['unit']}, {metric['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
