#!/usr/bin/env python3
"""Compares two nicmcast_bench reports metric by metric.

    python3 bench/suite/compare.py A.json B.json [--benchmark BENCHMARK.json]

A is the baseline (the parent commit) and B the candidate, both written by
`nicmcast_bench --json` with the same workloads and settings.  For every
workload in both reports and every metric, prints both medians with their
quartiles, the change, and the bound from BENCHMARK.json.  An end-to-end
metric is

  unresolved  when either side's spread, (q3 - q1) / median, exceeds the
              bound, unless B's whole quartile range is better than A's;
  REGRESSION  when B's median is worse than A's by more than the bound;
  ok          otherwise.

Per-layer metrics have no bound; they are listed to attribute a change.
Exits 1 on a regression or on a failed check in B, 2 on unusable input.
"""

import argparse
import json
import sys
from pathlib import Path


def load(path):
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "nicmcast-suite-v1":
        raise ValueError(f"{path}: not a nicmcast_bench report")
    return {w["name"]: w for w in doc["workloads"]}


def spread(m):
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def worse_by(a, b, better):
    """Relative change of B against A; positive means B is worse."""
    if a["value"] == 0:
        return 0.0
    change = (b["value"] - a["value"]) / abs(a["value"])
    return change if better == "lower" else -change


def all_better(a, b, better):
    return b["q3"] < a["q1"] if better == "lower" else b["q1"] > a["q3"]


def fmt(m):
    return f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"


def change_text(a, b, better):
    """B's change against A, positive = better."""
    if a["value"] == 0:
        return "=" if b["value"] == 0 else "from 0"
    return f"{0.0 - worse_by(a, b, better):+.1%}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--benchmark",
                        default=Path(__file__).resolve().parents[2] /
                        "BENCHMARK.json")
    args = parser.parse_args()
    try:
        spec = json.loads(Path(args.benchmark).read_text())
        base, cand = load(args.baseline), load(args.candidate)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    regressions = []
    for name in [w for w in base if w in cand]:
        a, b = base[name], cand[name]
        if "error" in a or "error" in b:
            print(f"\n== {name}: a report has no results "
                  f"({a.get('error') or b.get('error')})")
            regressions.append(f"{name}: no results")
            continue
        failed = b["checks"]["failed"]
        print(f"\n== {name}: checks A {a['checks']['failed']:.0f}/"
              f"{a['checks']['attempted']:.0f} failed, B {failed:.0f}/"
              f"{b['checks']['attempted']:.0f} failed")
        if failed:
            regressions.append(f"{name}: {failed:.0f} failed checks")
        print(f"  {'metric':26s} {'A median [q1, q3]':34s} "
              f"{'B median [q1, q3]':34s} {'change':>8s} {'bound':>6s}  status"
              "   (change > 0: B better)")
        for metric, am in a["end_to_end"].items():
            bm = b["end_to_end"].get(metric)
            if bm is None:
                continue
            rule = bounds.get(metric)
            better = rule["better"] if rule else am["better"]
            worse = worse_by(am, bm, better)
            status, bound = "ok", "-"
            if rule:
                bound = f"{rule['bound']:.2f}"
                if (max(spread(am), spread(bm)) > rule["bound"]
                        and not all_better(am, bm, better)):
                    status = "unresolved"
                elif worse > rule["bound"]:
                    status = "REGRESSION"
                    regressions.append(f"{name} {metric}: {worse:+.1%}")
            print(f"  {metric:26s} {fmt(am):34s} {fmt(bm):34s} "
                  f"{change_text(am, bm, better):>8s} {bound:>6s}  {status}")
        if "per_layer" in a and "per_layer" in b:
            print("  per-layer (no bound)")
            for metric, am in a["per_layer"].items():
                bm = b["per_layer"].get(metric)
                if bm is not None:
                    print(f"  {metric:26s} {fmt(am):34s} {fmt(bm):34s} "
                          f"{change_text(am, bm, am['better']):>8s}")

    if regressions:
        print("\nREGRESSIONS:\n  " + "\n  ".join(regressions))
        return 1
    print("\nno regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
