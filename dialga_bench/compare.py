#!/usr/bin/env python3
"""Compare two sets of dialga_bench results (stdlib only).

    python3 dialga_bench/compare.py BASE_DIR CHANGE_DIR [--layers]

Each directory holds result JSONs as run.py stores them under
.bench_out/results/ (one file per run). For every workload and every
end-to-end metric the runs hold, it prints each side's median and
quartiles, the fraction of run pairs the change wins, and a verdict.
The metrics BENCHMARK.json lists are gated by their bounds:

  regressed   the change's median is worse than the base's by more than
              the metric's bound, and the base's own spread (quartile
              distance / median) is within the bound or every change
              run reads worse than every base run;
  improved    at least ten pairs, the change wins at least 9 in 10 of
              them (ties count for neither side), and the medians
              differ by more than the base's quartile distance;
  unresolved  the base's spread is wider than the bound and not every
              change run reads better than every base run (or a
              regression could not be told from that spread);
  unchanged   otherwise.

The other end-to-end metrics the binary prints (latency percentiles,
read rates) have no bound; their verdict is improved or worse by the
same pair rule, else same, and never fails the comparison. A rate
(unit ending in /s) is better higher, everything else lower.

Runs pair up in the order they were made (run.py starts each file name
with the run's time), so alternate the two sets when you make them. A change
that fails more operations than the base regresses on `failed`.
--layers also prints the per-layer metrics of traced runs, without
verdicts (they have no bounds).

Exit: 0 no regression, 1 a regression, 2 the two sets (or runs inside
one) were recorded in different environments or settings, or a
directory holds no results.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def setting(run):
    """What must match for two runs to be comparable."""
    return {"env": run["env"], "seconds": run["seconds"], "smoke": run["smoke"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Verdict of change runs `b` against base runs `a` (bound None: not gated)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, ma, q3 = quartiles(a)
    mb = statistics.median(b)
    worse_by = sign * (ma - mb) / ma if ma else 0.0
    spread = (q3 - q1) / ma if ma else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    clear = len(pairs) >= 10 and abs(mb - ma) > q3 - q1
    if bound is None:
        if clear and wins >= 0.9 * len(pairs):
            v = "improved"
        elif clear and losses >= 0.9 * len(pairs):
            v = "worse"
        else:
            v = "same"
    elif worse_by > bound:
        all_worse = all(sign * (y - x) < 0 for x in a for y in b)
        v = "regressed" if spread <= bound or all_worse else "unresolved"
    elif clear and wins >= 0.9 * len(pairs):
        v = "improved"
    elif spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        v = "unresolved"
    else:
        v = "unchanged"
    return v, (q1, ma, q3), quartiles(b), -worse_by, wins / len(pairs) if pairs else 0.0, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    ap.add_argument("--layers", action="store_true", help="also print per-layer medians")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("compare: a directory holds no results", file=sys.stderr)
        return 2

    reference = setting(base[0])
    for run in base + change:
        if setting(run) != reference:
            mine, theirs = setting(run), reference
            keys = sorted(k for k in set(mine["env"]) | set(theirs["env"])
                          if mine["env"].get(k) != theirs["env"].get(k))
            keys += [k for k in ("seconds", "smoke") if mine[k] != theirs[k]]
            print(f"compare: refusing to compare runs recorded in different settings "
                  f"({', '.join(keys)})", file=sys.stderr)
            return 2

    def by_workload(runs, trace):
        out = {}
        for r in runs:
            if r["trace"] == trace:
                out.setdefault(r["workload"], []).append(r)
        return out

    gated = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    a_w, b_w = by_workload(base, 0), by_workload(change, 0)
    print(f"{'workload':20} {'metric':22} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'gain':>8} {'wins':>9}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a_w or w not in b_w:
            continue
        names = list(gated) + [n for n in a_w[w][0]["metrics"] if n not in gated]
        for name in names:
            if any(name not in r["metrics"] for r in a_w[w] + b_w[w]):
                continue
            a = [r["metrics"][name]["value"] for r in a_w[w]]
            b = [r["metrics"][name]["value"] for r in b_w[w]]
            m = gated.get(name)
            unit = a_w[w][0]["metrics"][name]["unit"]
            better = m["better"] if m else ("higher" if unit.endswith("/s") else "lower")
            v, (q1, ma, q3), (bq1, mb, bq3), gain, win, n = verdict(
                a, b, better, m["bound"] if m else None)
            regressed |= v == "regressed"
            print(f"{w:20} {name:22} {ma:12.5g} [{q1:.5g}, {q3:.5g}]".ljust(76) +
                  f"{mb:12.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(32) +
                  f" {gain * 100:+7.1f}% {win:5.2f}/{n:<3} {v}")
        fa = sum(r["failed"] for r in a_w[w])
        fb = sum(r["failed"] for r in b_w[w])
        if fb > fa:
            regressed = True
            print(f"{w:20} {'failed':22} {fa:>12} {fb:>44}  regressed")

    if args.layers:
        a_l, b_l = by_workload(base, 1), by_workload(change, 1)
        for w in sorted(set(a_l) & set(b_l)):
            for m in spec["per_layer"]:
                a = [r["layers"][m["name"]]["value"] for r in a_l[w]]
                b = [r["layers"][m["name"]]["value"] for r in b_l[w]]
                print(f"{w:20} {m['name']:36} {statistics.median(a):12.5g} "
                      f"{statistics.median(b):12.5g} {m['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
