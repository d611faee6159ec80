"""Compare two sets of benchmark runs, for example parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSON-lines files written by ``run.py --record FILE``.  For every workload and metric
the table shows each side's median with its quartiles, the share of pairs
(runs with the same seed) the change won, and a verdict:

* better: the change wins at least 9 in 10 pairs and the medians differ by
  more than the parent's quartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (metrics without a bound: the mirror of
  the better rule);
* unresolved: neither, and the parent's quartile distance is wider than the
  bound, unless every change run beats every parent run;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def by_seed(runs: list[dict]) -> dict[tuple[str, str], dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, in run order."""
    table: dict = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for metric, entry in run["result"]["metrics"].items():
            table[run["workload"], metric][run["seed"]].append(entry["value"])
    return table


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs won by the change)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (pm - cm)
    spread = p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better", share
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", share
        return ("unchanged" if set(parent) == set(change) and spread == 0 else "unresolved"), share
    scale = abs(pm) or 1.0
    if -gain > bound * scale:
        return "worse", share
    dominated = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound * scale and not dominated:
        return "unresolved", share
    return "unchanged", share


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = by_seed(parent_runs), by_seed(change_runs)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in metrics:
            continue
        pairs = [
            pair
            for seed in sorted(set(parent[key]) & set(change[key]))
            for pair in zip(parent[key][seed], change[key][seed])
        ]
        p_values = [v for values in parent[key].values() for v in values]
        c_values = [v for values in change[key].values() for v in values]
        spec_m = metrics[metric]
        result, share = verdict(p_values, c_values, pairs, spec_m["better"], spec_m.get("bound"))
        rows.append({
            "workload": workload, "metric": metric, "unit": spec_m["unit"],
            "parent": quartiles(p_values), "change": quartiles(c_values),
            "runs": (len(p_values), len(c_values)), "pairs": len(pairs),
            "won": share, "verdict": result,
        })
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        envs = {json.dumps(r["env"], sort_keys=True) for r in runs}
        print(f"{label}: {len(runs)} runs; environment {' | '.join(sorted(envs))}")
    print(f"{'workload':9s} {'metric':26s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'runs':7s} {'won':>6s}  verdict")
    for row in compare(parent_runs, change_runs, spec):
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        print(f"{row['workload']:9s} {row['metric']:26s} {_fmt(row['parent']):34s} "
              f"{_fmt(row['change']):34s} {runs:7s} {row['won']:6.0%}  {row['verdict']} ({row['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
