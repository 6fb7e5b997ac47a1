#!/usr/bin/env python3
"""The ledger benchmark: one workload per invocation, checked answers.

    python3 benchmarks/ledger/run.py --workload NAME --seed S --seconds T --trace 0|1

``--trace 0`` prints every end-to-end metric ``BENCHMARK.json`` declares,
``--trace 1`` every per-layer metric; the last line of standard output is
one JSON object ``{correct, attempted, failed, metrics}``. The exit code is
non-zero when any op failed or any answer differed from the oracle.

An untraced run sets the system up three times; ``setup_s`` is the
median. A read workload runs, on the first set-up, one *fixed block* of
seeded write cycles, and on the last its closed loop for ``--seconds``. A
churn workload runs a fixed block of whole cycles, writes and queries, on
every set-up, and sets up again until the blocks have lasted ``--seconds``:
what an op costs there depends on how far the files have aged, so only
blocks of one length from one state can be pooled or compared. After the
first block the page and space metrics are read (a fixed op count from a
fixed state, so they repeat exactly for a seed), the state is persisted,
the databases are closed and reopened several times (``recover_s`` is the
median restart) and every live object is read back.

Every timing is reported at the reference speed of ``speed.py``: divided
by the slowdown that the probes run beside it show.

Also: ``--all`` (the five in sequence), ``--list`` (every metric with
unit, direction and bound), ``--smoke`` (small sizes, for the tests) and
``--out FILE`` (append the result as one JSON line, for ``compare.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("ledger: no src/repro in this checkout, so there is nothing to measure")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from repro.objects.oid import OID  # noqa: E402
from repro.objects.serde import encode_object  # noqa: E402
from repro.query.executor import QueryExecutor  # noqa: E402

import drive  # noqa: E402
import layers  # noqa: E402
from oracle import Model, readback_mismatches  # noqa: E402
from speed import REFERENCE_SECONDS, Speed, pin_to_quietest_cpu  # noqa: E402
from workloads import (  # noqa: E402
    ATTRIBUTE,
    CLASS_NAME,
    DT,
    FULL,
    PAGE_SIZE,
    SMOKE,
    SYSTEMS,
    WORKLOADS,
    ChurnStream,
    Fixture,
    Sizes,
    Query,
    build,
    churn_warmup,
    draw_set,
    local_read_epoch,
    served_read_epoch,
)

DEFAULT_SEED = 1993
# recover_s is the median restart: at least 3, and up to 15 while they are short.
MIN_RESTARTS, MAX_RESTARTS, RESTART_BUDGET_S = 3, 15, 1.0
OUT_DIR = os.path.join(HERE, "out")


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


class Inputs:
    """Everything generated from the seed, before anything is set up."""

    def __init__(self, workload: str, seed: int, sizes: Sizes):
        rng = random.Random(seed)
        self.system = SYSTEMS[workload]
        count = sizes.objects_churn if self.system.churns else sizes.objects_read
        self.sets = [draw_set(rng, DT) for _ in range(count)]
        if workload == "local_read":
            self.epoch = local_read_epoch(rng, sizes.per_cell)
        elif self.system.churns:
            self.epoch = churn_warmup(rng, self.sets, sizes.warmup_cycles)
        else:
            self.epoch = served_read_epoch(rng, sizes.mix)
        # Independent streams: the blocks of an untraced run, the traced window.
        self.block_rng = random.Random(rng.getrandbits(64))
        self.window_rng = random.Random(rng.getrandbits(64))


def stored_bytes(fixture: Fixture) -> int:
    """Facility pages + object-file pages, plus WAL and checkpoint bytes."""
    pages = 0
    for db in fixture.dbs:
        pages += db.objects.object_pages(CLASS_NAME)
        for components in db.facility_storage_report().values():
            pages += sum(components.values())
    return pages * PAGE_SIZE + fixture.disk_bytes()


def user_bytes(model: Model) -> int:
    return sum(
        len(encode_object({ATTRIBUTE: set(elements)}))
        for elements in model.sets.values()
    )


def fixed_block(
    fixture: Fixture, model: Model, stream: ChurnStream, cycles: int, speed: Speed
) -> Tuple[drive.Samples, Dict[str, float]]:
    """One fixed block, and the exact metrics read at its end."""
    churns = fixture.wal_dir is not None
    before = [db.io_snapshot() for db in fixture.dbs]
    samples = drive.churn_block(fixture, model, stream, cycles, churns, speed)
    touched = sum(
        (db.io_snapshot() - start).logical_total
        for db, start in zip(fixture.dbs, before)
    )
    exact = {
        "pages_per_write": (touched - samples.query_pages)
        / len(samples.write_seconds),
        "space_amp": stored_bytes(fixture) / user_bytes(model),
    }
    if churns:
        exact["pages_per_query"] = samples.query_pages / len(samples.query_seconds)
    return samples, exact


def restart_and_read_back(
    fixture: Fixture, model: Model, probe: Query, samples: drive.Samples, speed: Speed
) -> float:
    """Persist, restart several times, read everything back; returns ``recover_s``."""
    fixture.persist()

    def restart():
        fixture.restart()
        rows = []
        for db in fixture.dbs:
            rows += QueryExecutor(db).execute_text(probe.text).rows
        return rows

    restarts: List[float] = []
    while len(restarts) < MIN_RESTARTS or (
        len(restarts) < MAX_RESTARTS and sum(restarts) < RESTART_BUDGET_S
    ):
        rows, seconds = speed.timed(restart)
        restarts.append(seconds)
        drive.check_answer(
            samples, probe, rows, model.expected(probe.kind, probe.elements), model
        )
    samples.attempted += len(model)
    wrong = readback_mismatches(
        model, lambda oid: fixture.get(OID.from_int(oid)), ATTRIBUTE
    )
    if sum(db.count(CLASS_NAME) for db in fixture.dbs) != len(model):
        wrong += 1
    for _ in range(wrong):
        samples.fail("object differs from the model after restart")
    return statistics.median(restarts)


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def untraced(inputs: Inputs, seconds: float, sizes: Sizes, scratch: str):
    """Set-ups, fixed blocks, measured window; returns (samples, values, notes)."""
    system = inputs.system
    speed = Speed()
    timed = drive.Samples()
    setup_seconds: List[float] = []
    exact: Dict[str, float] = {}
    expected: List[List[int]] = []
    cycles = sizes.churn_cycles if system.churns else sizes.write_cycles
    lanes = 1
    in_blocks = 0.0
    # A churn workload sets up again while at least half a block's time is left.
    while len(setup_seconds) < sizes.setups or (
        system.churns and in_blocks * (1 + 0.5 / len(setup_seconds)) < seconds
    ):
        first = not setup_seconds
        fixture, took = build(
            system, inputs.sets, inputs.epoch,
            os.path.join(scratch, f"s{len(setup_seconds)}"), speed,
        )
        try:
            setup_seconds.append(took)
            lanes = len(fixture.entries)
            model = drive.model_of(fixture, inputs.sets)
            if first:
                # Every set-up loads the same sets under the same OIDs.
                expected = [model.expected(q.kind, q.elements) for q in inputs.epoch]
            drive.check_warmup(timed, fixture, inputs.epoch, expected, model)
            if system.churns or first:
                stream = ChurnStream(inputs.block_rng, model)
                started = time.perf_counter()
                block, read = fixed_block(fixture, model, stream, cycles, speed)
                in_blocks += time.perf_counter() - started
                timed.merge(block)
                if first:
                    exact = read
                    probe = next(iter(stream.queries()))
                    exact["recover_s"] = restart_and_read_back(
                        fixture, model, probe, timed, speed
                    )
            elif len(setup_seconds) == sizes.setups:
                exact["pages_per_query"] = statistics.fmean(
                    r.statistics.io.logical_total for r in fixture.warmup_results
                )
                timed.merge(
                    drive.read_window(
                        fixture.entries, inputs.epoch, expected, model, seconds, speed
                    )
                )
        finally:
            fixture.close()
            del fixture
            gc.collect()
    queries = speed.at_reference(timed.query_ended, timed.query_seconds)
    writes = speed.at_reference(timed.write_ended, timed.write_seconds)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "query_p50_ms": statistics.median(queries) * 1e3,
        "query_p99_ms": percentile(queries, 0.99) * 1e3,
        # Closed loops: each of ``lanes`` clients is busy for its own sum.
        "query_qps": len(queries) * lanes / sum(queries),
        "write_p50_ms": statistics.median(writes) * 1e3,
        "write_p95_ms": percentile(writes, 0.95) * 1e3,
        "write_ops_s": len(writes) / sum(writes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **exact,
    }
    slowdowns = sorted(taken / REFERENCE_SECONDS for _, taken in speed.readings)
    notes = (
        f"{len(queries)} query samples, {len(writes)} write samples, "
        f"{lanes} closed-loop client(s), set-ups "
        + "/".join(f"{s:.2f}" for s in setup_seconds)
        + f", {len(slowdowns)} probes: slowdown quartiles "
        + "/".join(
            f"{slowdowns[len(slowdowns) * k // 4]:.2f}" for k in (1, 2, 3)
        )
    )
    return timed, values, notes


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    declaration = load_declaration()
    sizes = SMOKE if smoke else FULL
    inputs = Inputs(workload, seed, sizes)
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    affinity = pin_to_quietest_cpu()
    try:
        if trace:
            declared = declaration["per_layer"]
            samples, values, notes = layers.traced(
                inputs, seconds, scratch,
                os.path.join(OUT_DIR, f"{workload}.trace.json"),
                [metric["name"] for metric in declared],
            )
        else:
            samples, values, notes = untraced(inputs, seconds, sizes, scratch)
            declared = declaration["end_to_end"]
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        shutil.rmtree(scratch, ignore_errors=True)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise SystemExit(
            "ledger: measured and declared metrics differ: "
            f"undeclared {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace}: {notes}")
    for name in sorted(values):
        print(f"{name:40s} {values[name]:16.6f} {units[name]}")
    return {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in values
        },
    }


def list_metrics() -> None:
    declaration = load_declaration()
    for metric in declaration["end_to_end"]:
        print(
            f"end_to_end {metric['name']:32s} {metric['unit']:8s} "
            f"{metric['better']:6s} bound {metric['bound']}"
        )
    for metric in declaration["per_layer"]:
        print(
            f"per_layer  {metric['name']:32s} {metric['unit']:8s} "
            f"{metric['better']:6s}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.all:
        status = 0
        for workload in WORKLOADS:
            forwarded = [a for a in (argv or sys.argv[1:]) if a != "--all"]
            status |= subprocess.call(
                [sys.executable, __file__, "--workload", workload, *forwarded]
            )
        return status
    if args.workload is None:
        parser.error("one of --workload, --all or --list is required")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(load_declaration()["run_seconds"])
    result = run_once(args.workload, args.seed, seconds, args.trace, args.smoke)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            **result,
        }
        with open(args.out, "a") as stream:
            stream.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
