"""Paired comparison of two sets of benchmark results.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results files that bench/run.py wrote (--results)
for one commit, with --trace 0.  Runs of the same workload and seed form a
pair; run the pairs in alternating order (parent first, then change first),
with the same --seconds on both sides.

For every workload and end-to-end figure the report gives each side's
median and quartiles, the pairs the change won, and a verdict:

* better: the change won at least 9/10 of the pairs (ties count for
  neither), at least 10 pairs ran, the medians differ by more than the
  parent's interquartile range, and the change's runs on the workload fail
  no more than the parent's (median fail_frac, and runs not correct);
* worse: the change's median is worse than the parent's by more than the
  figure's bound;
* unresolved: the parent's runs spread wider than the bound (interquartile
  range over median), unless every change run beats every parent run;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import end_to_end_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory) -> dict:
    """workload -> seed -> results record (trace 0 only; last run wins)."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, may_win=True) -> tuple:
    """(verdict, wins) for paired value lists of one figure; never "better"
    unless `may_win`."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if (may_win and len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and gain > p3 - p1):
        return "better", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    spread = (p3 - p1) / abs(pm) if pm else (0.0 if p3 == p1 else float("inf"))
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved", wins
    return "unchanged", wins


def fails_no_more(parent_runs, change_runs) -> bool:
    """A gain counts only if the change fails no more than the parent."""
    fail = lambda runs: statistics.median(r["end_to_end"]["fail_frac"]["value"] for r in runs)
    wrong = lambda runs: sum(not r["correct"] for r in runs)
    return fail(change_runs) <= fail(parent_runs) and wrong(change_runs) <= wrong(parent_runs)


def compare(parent_runs, change_runs, spec) -> list:
    """Report rows: (workload, figure, unit, pairs, pairs run parent first,
    parent quartiles, change quartiles, pairs the change won, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        p_runs = [parent_runs[workload][s] for s in seeds]
        c_runs = [change_runs[workload][s] for s in seeds]
        first = sum(p["started_at"] < c["started_at"] for p, c in zip(p_runs, c_runs))
        may_win = fails_no_more(p_runs, c_runs)
        for name, (unit, better, bound) in spec.items():
            if any(name not in r["end_to_end"] for r in p_runs + c_runs):
                continue
            p = [r["end_to_end"][name]["value"] for r in p_runs]
            c = [r["end_to_end"][name]["value"] for r in c_runs]
            v, wins = verdict(p, c, better, bound, may_win)
            rows.append((workload, name, unit, len(seeds), first, quartiles(p), quartiles(c),
                         wins, v))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change), end_to_end_spec())
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':9s} {'figure':13s} {'unit':6s} pairs parent-first "
          f"{'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} wins verdict")
    for workload, name, unit, pairs, first, pq, cq, wins, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:9s} {name:13s} {unit:6s} {pairs:5d} {first:12d} "
              f"{fmt(pq):>30s} {fmt(cq):>30s} {wins:4d} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
