"""Render a BENCH_wallclock.json report as a markdown summary.

Reads the JSON written by ``benchmarks/bench_wallclock.py`` and prints a
human-readable summary — configuration, per-section timings/ratios and
threshold verdicts — suitable for pasting into a PR description::

    python tools/bench_report.py [BENCH_wallclock.json]

Exits non-zero if the report's recorded ``pass`` flag is false.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_CONFIG_LABELS = [
    ("num_objects", "N"),
    ("signature_bits", "F"),
    ("bits_per_element", "m"),
    ("domain_cardinality", "|D|"),
    ("target_cardinality", "Dt"),
    ("page_size", "page"),
]


def render(report: dict) -> str:
    config = report.get("config", {})
    summary = ", ".join(
        f"{label}={config[key]}" for key, label in _CONFIG_LABELS if key in config
    )
    lines = [f"## Wall-clock benchmark ({report.get('mode', '?')} mode)"]
    if summary:
        lines.extend(["", f"Configuration: {summary}"])
    thresholds = report.get("thresholds", {})
    overhead = report.get("tracer_overhead")
    if overhead:
        ceiling = thresholds.get("tracer_overhead")
        verdict = ""
        if ceiling is not None:
            state = "PASS" if overhead["overhead_ratio"] <= ceiling else "FAIL"
            verdict = f" — {state} (≤{ceiling:g}x)"
        lines.append("")
        lines.append(
            "Active-tracer overhead (BSSF subset sweep): "
            f"off {overhead['off_ms']:.2f} ms → on {overhead['on_ms']:.2f} ms "
            f"({overhead['overhead_ratio']:.2f}x){verdict}"
        )
    sharded = report.get("sharded")
    if sharded:
        floor = thresholds.get("sharded")
        verdict = ""
        if floor is not None:
            state = "PASS" if sharded["sharded_speedup"] >= floor else "FAIL"
            verdict = f" — {state} (≥{floor:g}x)"
        lines.append("")
        lines.append(
            f"Sharded scatter-gather ({int(sharded['shards'])} shards, "
            f"{int(sharded['queries'])} queries): "
            f"{sharded['sequential_ms']:.2f} ms → {sharded['sharded_ms']:.2f} ms "
            f"({sharded['sharded_speedup']:.2f}x){verdict}"
        )
    lsm = report.get("lsm")
    if lsm:
        floor = thresholds.get("lsm_update")
        verdict = ""
        if floor is not None:
            state = "PASS" if lsm["update_speedup"] >= floor else "FAIL"
            verdict = f" — {state} (≥{floor:g}x)"
        ceiling = thresholds.get("lsm_wal_overhead")
        wal_verdict = ""
        if ceiling is not None:
            state = "PASS" if lsm["wal_overhead_ratio"] <= ceiling else "FAIL"
            wal_verdict = f" — {state} (≤{ceiling:g}x)"
        lines.append("")
        lines.append(
            f"LSM update sweep ({int(lsm['updates_per_sweep'])} updates): "
            f"in-place+WAL {lsm['inplace_wal_ms']:.2f} ms → "
            f"LSM+WAL {lsm['lsm_wal_ms']:.2f} ms "
            f"({lsm['update_speedup']:.2f}x){verdict}; "
            f"WAL overhead under LSM {lsm['wal_overhead_ratio']:.2f}x"
            f"{wal_verdict}"
        )
    wal = report.get("wal_overhead")
    if wal:
        lines.append("")
        lines.append(
            "WAL overhead (update sweep, append+fsync per update): "
            f"off {wal['off_ms']:.2f} ms → on {wal['on_ms']:.2f} ms "
            f"({wal['overhead_ratio']:.2f}x)"
        )
    serving = report.get("serving")
    if serving:
        gates = serving.get("thresholds", {})
        floor = gates.get("serving_min_qps")
        ceiling = gates.get("serving_max_p99_ms")
        qps_verdict = ""
        if floor is not None:
            state = "PASS" if serving["qps"] >= floor else "FAIL"
            qps_verdict = f" — {state} (≥{floor:g} qps)"
        p99_verdict = ""
        if ceiling is not None:
            state = "PASS" if serving["p99_ms"] <= ceiling else "FAIL"
            p99_verdict = f" — {state} (≤{ceiling:g} ms)"
        lines.append("")
        lines.append(
            f"Network serving ({int(serving['clients'])} clients, "
            f"{int(serving['workers'])} workers, "
            f"{int(serving['requests'])} requests over "
            f"{serving['duration_s']:.2f} s): "
            f"{serving['qps']:.1f} qps sustained{qps_verdict}; "
            f"p50 {serving['p50_ms']:.2f} ms, "
            f"p99 {serving['p99_ms']:.2f} ms{p99_verdict}"
        )
        if serving.get("errors"):
            lines.append(
                f"  FAIL: {int(serving['errors'])} request error(s)"
            )
    lines.append("")
    lines.append(f"Overall: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        type=Path,
        nargs="?",
        default=REPO_ROOT / "BENCH_wallclock.json",
        help="path to a bench_wallclock JSON report",
    )
    args = parser.parse_args(argv)
    report = json.loads(args.report.read_text())
    print(render(report))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
