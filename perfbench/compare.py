"""Compare two result sets, one row per workload and end-to-end metric.

Each result set is a JSON-lines file written by ``run.py --results``; only
untraced runs count.  Runs of the two sides are paired by seed.  The
verdict follows the rule in README.md: a gain needs the change to win at
least nine tenths of the pairs (ties count for neither) and the medians to
differ by more than the parent's own quartile spread; otherwise the change
is within bound when its median is no worse than the parent's by more than
the metric's bound, regressed when it is worse by more than that, and
unresolved when the runs spread wider than the bound.  No combined score
is printed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of the untraced runs in a results file."""
    out: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace") == 0:
                out.setdefault(record["workload"], {})[record["seed"]] = record["metrics"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float, lower_is_better: bool):
    """(verdict, wins, pairs) for one metric on one workload."""
    sign = 1 if lower_is_better else -1
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    better = sign * (cm - pm) < 0
    if seeds and wins >= 0.9 * len(seeds) and better and abs(cm - pm) > p3 - p1:
        return "improved", wins, len(seeds)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    worst_change = max(change.values()) if lower_is_better else min(change.values())
    best_parent = min(parent.values()) if lower_is_better else max(parent.values())
    if sign * (worst_change - best_parent) < 0:
        return "within bound", wins, len(seeds)  # every change run beats every parent run
    if spread > bound:
        return "unresolved", wins, len(seeds)
    if sign * (cm - pm) > bound * pm:
        return "regressed", wins, len(seeds)
    return "within bound", wins, len(seeds)


def main(parent_path: Path, change_path: Path, spec: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    header = f"{'workload':14s} {'metric':12s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} {'won':>7s}  verdict"
    print(header)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:14s} missing on the {'parent' if not p_runs else 'change'} side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: m[name] for s, m in p_runs.items()}
            c = {s: m[name] for s, m in c_runs.items()}
            word, wins, pairs = verdict(p, c, metric["bound"], metric["better"] == "lower")
            pq = "/".join(f"{v:.4g}" for v in quartiles(list(p.values())))
            cq = "/".join(f"{v:.4g}" for v in quartiles(list(c.values())))
            print(f"{workload:14s} {name:12s} {pq:>32s} {cq:>32s} {wins:>3d}/{pairs:<3d}  {word}")
    return 0
