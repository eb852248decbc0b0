#!/usr/bin/env python3
"""Compare end-to-end benchmark results.

Each argument is a result file written by `e2e.exe --out FILE` (one JSON
record per line; a saved stdout with `record {...}` lines works too) or a
directory of such files.

  compare.py BASE...                     one set: median, quartiles, spread
  compare.py BASE... --against CHANGE... two sets: one verdict per metric

Quartiles are Python's statistics.quantiles(values, n=4); spread is the
interquartile distance as a share of the median.  Verdicts, per workload and
metric, follow the rule for measuring in a small sandbox and the bounds in
BENCHMARK.json:

  better       the change wins at least 9 in 10 pairs and the medians differ
               by more than the base's interquartile distance (or, where the
               spread exceeds the bound, every change run beats every base run)
  unresolved   the spread is wider than the bound and no such clean win
  worse        the change's median is worse than the base's by more than the bound
  within bound none of the above
  no claim     metrics without a bound (per-layer) that are not 'better' or
               clearly 'worse' by the pair rule

Pairs match runs of the same seed when both sets hold the same seeds, else
runs in file order.
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    """{(workload, metric): [(seed, value, unit)]} from records."""
    out = {}
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, f) for f in os.listdir(p))
        else:
            files.append(p)
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("record "):
                    line = line[len("record "):]
                if not line.startswith("{"):
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if "workload" not in rec:
                    continue
                for section in ("metrics", "layers"):
                    for name, m in rec.get(section, {}).items():
                        if isinstance(m.get("value"), (int, float)):
                            out.setdefault((rec["workload"], name), []).append(
                                (rec.get("seed"), float(m["value"]), m.get("unit", "")))
    return out


def bench_spec(path):
    try:
        with open(path) as fh:
            b = json.load(fh)
    except (OSError, ValueError):
        return {}
    spec = {}
    for m in b.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m["bound"])
    for m in b.get("per_layer", []):
        spec[m["name"]] = (m["better"], None)
    return spec


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 > q1 else 0.0
    return med, q1, q3, spread


def pairs(base, change):
    bs = {s: v for s, v, _ in base}
    cs = {s: v for s, v, _ in change}
    if len(bs) == len(base) and bs.keys() == cs.keys() and len(cs) == len(change):
        return [(bs[s], cs[s]) for s in sorted(bs, key=str)]
    return list(zip([v for _, v, _ in base], [v for _, v, _ in change]))


def verdict(base, change, better, bound):
    bv = [v for _, v, _ in base]
    cv = [v for _, v, _ in change]
    bmed, bq1, bq3, bspread = summary(bv)
    cmed, _, _, _ = summary(cv)
    sign = 1.0 if better == "higher" else -1.0
    ps = pairs(base, change)
    won = sum(1 for b, c in ps if sign * (c - b) > 0)
    lost = sum(1 for b, c in ps if sign * (c - b) < 0)
    n = max(1, len(ps))
    gain = sign * (cmed - bmed)
    clean_win = min(cv) > max(bv) if sign > 0 else max(cv) < min(bv)
    if won >= 0.9 * n and gain > (bq3 - bq1):
        v = "better"
    elif bound is None:
        v = "worse" if lost >= 0.9 * n and -gain > (bq3 - bq1) else "no claim"
    elif bspread > bound:
        v = "better" if clean_win else "unresolved"
    elif bmed and -gain / abs(bmed) > bound:
        v = "worse"
    else:
        v = "within bound"
    return won / n, v


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="+")
    ap.add_argument("--against", nargs="+", default=None)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    a = ap.parse_args()
    spec = bench_spec(a.benchmark)
    base = load(a.base)
    if not base:
        sys.exit("compare: no records in " + " ".join(a.base))
    keys = sorted(base, key=lambda k: (k[0], k[1] not in spec, k[1]))
    if a.against is None:
        print(f"{'workload':<14} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k in keys:
            vals = [v for _, v, _ in base[k]]
            med, q1, q3, spread = summary(vals)
            bound = spec.get(k[1], (None, None))[1]
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  <bound" if spread < bound else "  OVER"))
            print(f"{k[0]:<14} {k[1]:<34} {len(vals):>3} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{spread:>7.2%} {'' if bound is None else f'{bound:.0%}':>6}{flag}")
        return
    change = load(a.against)
    print(f"{'workload':<14} {'metric':<34} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} {'won':>5}  verdict")
    for k in keys:
        if k not in change:
            continue
        better, bound = spec.get(k[1], ("higher" if k[1].endswith("_pps") else "lower", None))
        bv = [v for _, v, _ in base[k]]
        cv = [v for _, v, _ in change[k]]
        bm, bq1, bq3, _ = summary(bv)
        cm, cq1, cq3, _ = summary(cv)
        won, v = verdict(base[k], change[k], better, bound)
        print(f"{k[0]:<14} {k[1]:<34} {fmt(bm) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':>36} "
              f"{fmt(cm) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':>36} {won:>5.0%}  {v}")


if __name__ == "__main__":
    main()
