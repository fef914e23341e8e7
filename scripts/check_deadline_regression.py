#!/usr/bin/env python3
"""Gate a bench_alloc_deadline JSON against the anytime-search contract.

For every (Scheme, Trace) pair in the file the sweep must contain the
exhaustive reference row (deadline_us == "inf") and the gate row
(deadline_us == GATE_DEADLINE_US, default 100). Two checks:

  * latency: the gate row's allocate() p99 must stay within
    P99_FACTOR x the deadline (default 1.2 — the cooperative expiry
    check runs every 1024 search steps and between candidate probes,
    so the overrun is bounded by one probe, not one pass).
  * quality (Jigsaw rows only, the scheme the acceptance criterion
    names): steady-state utilization on the gate row must stay within
    UTIL_PP percentage points (default 1.0) of the exhaustive row —
    the best-fit-first probe order means cutting the scan tail
    costs latency, not placements.

Rows at other deadlines are printed for the frontier but not gated:
a 25 us deadline legitimately trades more utilization away.

Usage: check_deadline_regression.py RESULTS.json \
           [P99_FACTOR] [UTIL_PP] [GATE_DEADLINE_US]
"""

import json
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows", [])
    if not rows:
        sys.exit(f"{path}: no rows")
    for row in rows:
        for key in ("Scheme", "Trace", "deadline_us", "p99_alloc_us",
                    "util_pct"):
            if key not in row:
                sys.exit(f"{path}: row missing '{key}': {row}")
    return rows


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    path = sys.argv[1]
    p99_factor = float(sys.argv[2]) if len(sys.argv) > 2 else 1.2
    util_pp = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
    gate_us = float(sys.argv[4]) if len(sys.argv) > 4 else 100.0

    rows = load_rows(path)
    groups = {}
    for row in rows:
        groups.setdefault((row["Scheme"], row["Trace"]), []).append(row)

    failures = []
    print(f"{'scheme':<8} {'trace':<10} {'deadline':>9} {'p99_us':>9} "
          f"{'util_pct':>9}  verdict")
    for (scheme, trace), group in sorted(groups.items()):
        inf_row = next((r for r in group if r["deadline_us"] == "inf"),
                       None)
        if inf_row is None:
            failures.append(f"{scheme}/{trace}: no exhaustive (inf) row")
            continue
        gate_row = next(
            (r for r in group
             if r["deadline_us"] != "inf"
             and float(r["deadline_us"]) == gate_us), None)
        if gate_row is None:
            failures.append(
                f"{scheme}/{trace}: no {gate_us:g} us gate row")
            continue
        for row in group:
            verdict = []
            if row is gate_row:
                p99 = float(row["p99_alloc_us"])
                if p99 > p99_factor * gate_us:
                    verdict.append("P99-REGRESSED")
                    failures.append(
                        f"{scheme}/{trace}: p99 {p99:.1f} us > "
                        f"{p99_factor:g} x {gate_us:g} us deadline")
                if scheme == "Jigsaw":
                    lost = (float(inf_row["util_pct"]) -
                            float(row["util_pct"]))
                    if lost > util_pp:
                        verdict.append("UTIL-REGRESSED")
                        failures.append(
                            f"{scheme}/{trace}: utilization lost "
                            f"{lost:.2f} pp > {util_pp:g} pp vs "
                            f"exhaustive")
                if not verdict:
                    verdict.append("ok (gated)")
            else:
                verdict.append("-")
            print(f"{scheme:<8} {trace:<10} {row['deadline_us']:>9} "
                  f"{float(row['p99_alloc_us']):>9.1f} "
                  f"{float(row['util_pct']):>9.2f}  "
                  f"{' '.join(verdict)}")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        sys.exit(1)
    print(f"\nok: p99 within {p99_factor:g}x the {gate_us:g} us deadline, "
          f"Jigsaw utilization within {util_pp:g} pp of exhaustive")


if __name__ == "__main__":
    main()
