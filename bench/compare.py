"""Compare two result sets, such as a parent commit and a change.

Each set is a results JSONL file written by bench.py. Runs are paired by
workload and seed (the n-th run of a seed on one side with the n-th on the
other). For each workload and end-to-end metric of BENCHMARK.json:

- gain: the change wins at least 9 of 10 pairs (ties count for neither side)
  and the medians differ by more than the parent's interquartile spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's spread (interquartile range over median) is wider
  than the bound, unless every change run reads better than every parent run;
- unchanged: otherwise.

Fewer than ten pairs, or pairs that do not alternate which side ran first,
give no verdict: a shared machine's speed can drift over minutes, so a set
run after the other can win every pair. A gain does not count when the change
fails more operations than the parent. One row per workload; exit status 1
when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, dict[int, list[dict]]]:
    """{workload: {seed: [untraced records in file order]}}"""
    runs: dict[str, dict[int, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]][record["seed"]].append(record)
    return runs


def pair_up(parent: dict[int, list], change: dict[int, list]) -> list[tuple[dict, dict]]:
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        pairs.extend(zip(parent[seed], change[seed]))
    return pairs


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[str, dict]:
    """Status of one metric over paired parent and change values."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / abs(med_p) if med_p else float("inf")
    worse_by = -sign * (med_c - med_p) / abs(med_p) if med_p else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    facts = {"parent_median": med_p, "change_median": med_c, "parent_q1": q1,
             "parent_q3": q3, "change_quartiles": statistics.quantiles(change, n=4),
             "spread": spread, "wins": wins, "pairs": len(parent), "worse_by": worse_by}
    if wins >= WIN_SHARE * len(parent) and sign * (med_c - med_p) > q3 - q1:
        return "gain", facts
    if spread > spec["bound"] and not all_better:
        return "unresolved", facts
    if worse_by > spec["bound"]:
        return "regression", facts
    return "unchanged", facts


def compare(parent_path: Path, change_path: Path, bench_path: Path) -> tuple[list[str], bool]:
    specs = json.loads(bench_path.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    rows, regressed = [], False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        pairs = pair_up(parent_runs.get(workload, {}), change_runs.get(workload, {}))
        change_first = sum(1 for p, c in pairs if c["started_at"] < p["started_at"])
        head = (f"{workload}: {len(pairs)} pairs "
                f"({change_first} change-first, {len(pairs) - change_first} parent-first)")
        if len(pairs) < MIN_PAIRS:
            rows.append(f"{head}: no verdict, fewer than {MIN_PAIRS} pairs")
            continue
        if abs(2 * change_first - len(pairs)) > 1:
            rows.append(f"{head}: no verdict, the pairs do not alternate")
            continue
        more_failures = sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)
        cells = []
        for spec in specs:
            name = spec["name"]
            status, facts = verdict(spec, [p["metrics"][name]["value"] for p, _ in pairs],
                                    [c["metrics"][name]["value"] for _, c in pairs])
            if status == "gain" and more_failures:
                status = "gain void: more failed operations"
            regressed = regressed or status == "regression"
            cells.append(f"{name} {status} ({facts['parent_median']:.6g} -> "
                         f"{facts['change_median']:.6g} {spec['unit']}, "
                         f"wins {facts['wins']}/{facts['pairs']}, "
                         f"spread {facts['spread']:.3f}, bound {spec['bound']})")
        rows.append(head + " | " + " | ".join(cells))
    return rows, regressed


def main(argv: list[str], bench_path: Path) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows, regressed = compare(args.parent, args.change, bench_path)
    print("\n".join(rows))
    return 1 if regressed else 0
