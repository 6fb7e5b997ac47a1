#!/usr/bin/env python3
"""Compare two sets of ledger runs by the rules in ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py A.jsonl B.jsonl
    python3 benchmarks/ledger/compare.py A.jsonl          # medians, as a table

Each file holds the JSON lines ``run.py --out`` appends, several runs per
workload. A is the parent, B the change. One row is printed per workload
× metric. A metric's change is judged on the two medians, in its declared
direction, against its declared bound:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but the spread between the repeats of either
  side (the distance between the quartiles, as a share of the median)
  exceeds the bound, so "no change" cannot be told from a change that
  size; never reported as unchanged, unless every run of B reads better
  than every run of A, which is ``improved``;
* ``improved``    B's median is better by more than the bound;
* ``unchanged``   otherwise.

Per-layer metrics have no bound and are listed without a verdict. Exits 1
when any row regressed, or when a run in B was incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> Tuple[Runs, int]:
    """``{(workload, metric): values}`` and the number of incorrect runs."""
    runs: Runs = defaultdict(list)
    incorrect = 0
    with open(path) as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            incorrect += not record["correct"]
            for name, metric in record["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
    return runs, incorrect


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(high - low) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if worsening > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "improved" if all_better else "unresolved"
    return "improved" if worsening < -bound else "unchanged"


def declared_metrics() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        declaration = json.load(stream)
    return {
        metric["name"]: metric
        for metric in declaration["end_to_end"] + declaration["per_layer"]
    }


def table(runs: Runs, metrics: Dict[str, dict]) -> None:
    """Medians of one set of runs, as a Markdown table per workload."""
    workloads = sorted({workload for workload, _ in runs})
    names = [name for name in metrics if any((w, name) in runs for w in workloads)]
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---:|" * len(workloads))
    for name in names:
        cells = [
            f"{statistics.median(runs[(w, name)]):.4g}" if (w, name) in runs else ""
            for w in workloads
        ]
        print(f"| `{name}` | {metrics[name]['unit']} | " + " | ".join(cells) + " |")


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = declared_metrics()
    a, _ = load_runs(argv[0])
    if len(argv) == 1:
        table(a, metrics)
        return 0
    b, incorrect = load_runs(argv[1])
    counts: Dict[str, int] = defaultdict(int)
    print(
        f"{'workload':12s} {'metric':34s} {'A median':>14s} {'B median':>14s} "
        f"{'change':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict"
    )
    for (workload, name) in sorted(a):
        if (workload, name) not in b or name not in metrics:
            continue
        va, vb = a[(workload, name)], b[(workload, name)]
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / abs(ma) if ma else 0.0
        bound = metrics[name].get("bound")
        outcome = (
            verdict(va, vb, metrics[name]["better"], bound)
            if bound is not None
            else "-"
        )
        counts[outcome] += 1
        print(
            f"{workload:12s} {name:34s} {ma:14.4f} {mb:14.4f} {change:+8.1%} "
            f"{spread(va):8.3f} {spread(vb):8.3f} "
            f"{'' if bound is None else format(bound, '6.2f'):>6s}  {outcome}"
        )
    print(
        f"{counts['regressed']} regressed, {counts['unresolved']} unresolved, "
        f"{counts['improved']} improved, {counts['unchanged']} unchanged, "
        f"{incorrect} incorrect run(s) in B"
    )
    return 1 if counts["regressed"] or incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
