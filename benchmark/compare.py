#!/usr/bin/env python3
"""Compare benchmark result files of a parent commit and a change.

    python3 benchmark/compare.py parent/*.json change/*.json

Each file is one `run.py --out` result. Files are grouped by directory: the
first directory named holds the parent's runs, the second the change's.
Runs pair up in seed order; run them alternating which side goes first.

For every workload and end-to-end metric in BENCHMARK.json this prints one
verdict, by the rule the benchmark's bounds are set for:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither), there are at least 10 pairs, and the medians differ
              by more than the parent's own spread (its interquartile range)
  worse       the change's median is worse than the parent's by more than
              the metric's bound, or the change fails runs the parent passed
  unresolved  the parent's own spread is wider than the bound, and not every
              change run reads better than every parent run
  no-worse    anything else

With --layers, the per-layer medians of both sides follow, for reading
where a difference comes from (they carry no verdict).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths):
    groups = {}
    for p in paths:
        groups.setdefault(str(Path(p).parent), []).append(p)
    if len(groups) != 2:
        raise SystemExit("expected result files from exactly two directories "
                         f"(parent, change); got {sorted(groups)}")
    sides = []
    for files in groups.values():
        runs = []
        for f in files:
            with open(f) as fh:
                doc = json.load(fh)
            runs.append((doc["host"]["seed"], f, doc))
        runs.sort(key=lambda r: (r[0], r[1]))
        sides.append([doc for _, _, doc in runs])
    return sides


def values(runs, workload, kind, metric):
    out = []
    for doc in runs:
        entry = doc["workloads"].get(workload, {}).get(kind)
        if entry is not None:
            out.append(entry["metrics"][metric]["value"])
    return out


def failures(runs, workload):
    n = 0
    for doc in runs:
        for entry in doc["workloads"].get(workload, {}).values():
            n += (not entry["correct"]) + entry["failed"]
    return n


def iqr(vals):
    if len(vals) < 2:
        return float("inf")
    q = statistics.quantiles(vals, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound, fail_p, fail_c):
    if fail_c > fail_p:
        return "worse"
    sign = -1.0 if better == "lower" else 1.0  # sign * (c - p) > 0: better
    med_p, med_c = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = iqr(parent)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_c - med_p) > spread):
        return "improved"
    if med_p != 0 and spread / abs(med_p) > bound and not all_better:
        return "unresolved"
    worse_by = -sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    if worse_by > bound:
        return "worse"
    return "no-worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians of both sides")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    parent, change = load_runs(args.files)
    print(f"{'workload':10} {'metric':14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'pairs':>5}  verdict")
    worst = 0
    for w in (x["name"] for x in bench["workloads"]):
        fail_p, fail_c = failures(parent, w), failures(change, w)
        for m in bench["end_to_end"]:
            p = values(parent, w, "plain", m["name"])
            c = values(change, w, "plain", m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["better"], m["bound"], fail_p, fail_c)
            worst = max(worst, v == "worse")
            med_p, med_c = statistics.median(p), statistics.median(c)
            delta = (med_c - med_p) / med_p * 100 if med_p else 0.0
            print(f"{w:10} {m['name']:14} {med_p:12.6g} {med_c:12.6g} "
                  f"{delta:+7.2f}% {min(len(p), len(c)):5}  {v}")
        if args.layers:
            for m in bench["per_layer"]:
                p = values(parent, w, "traced", m["name"])
                c = values(change, w, "traced", m["name"])
                if p and c:
                    print(f"{w:10}   {m['name']:34} "
                          f"{statistics.median(p):12.6g} "
                          f"{statistics.median(c):12.6g} {m['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
