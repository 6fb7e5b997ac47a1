"""Closed loops that drive a fixture, time each op and check every answer.

Every op is timed by the caller around the one public call that performs
it. The oracle check runs after the clock has stopped, so it is outside
every latency; an op that raises, or answers wrongly, counts as failed.
Between ops a loop runs the speed probe (``speed.py``), outside every
latency too, so that each timing can be corrected for the machine's state.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import Callable, Iterable, List, Optional

from repro.objects.oid import OID

from oracle import Model, rows_match
from speed import Speed
from workloads import ATTRIBUTE, ChurnStream, Entry, Fixture, Query

_REPORTED_FAILURES = 5
# A read loop probes the machine's speed after this many queries: about 3 %
# of a loop's time on the fastest workload. A churn loop probes once a cycle.
QUERIES_PER_PROBE = 4


class Samples:
    """What one loop observed; loops of several threads are merged."""

    def __init__(self) -> None:
        self.query_seconds: List[float] = []
        self.query_ended: List[float] = []  # perf_counter when each answer came
        self.write_seconds: List[float] = []
        self.write_ended: List[float] = []
        self.query_pages = 0
        self.attempted = 0
        self.failed = 0

    def merge(self, other: "Samples") -> None:
        self.query_seconds += other.query_seconds
        self.query_ended += other.query_ended
        self.write_seconds += other.write_seconds
        self.write_ended += other.write_ended
        self.query_pages += other.query_pages
        self.attempted += other.attempted
        self.failed += other.failed

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= _REPORTED_FAILURES:
            print(f"FAILED {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


def model_of(fixture: Fixture, sets) -> Model:
    """The model of a freshly set-up fixture: what was loaded, under its OIDs."""
    model = Model()
    for oid, elements in zip(fixture.oids, sets):
        model.insert(oid, elements)
    return model


def check_warmup(
    samples: Samples,
    fixture: Fixture,
    epoch: List[Query],
    expected: List[List[int]],
    model: Model,
) -> None:
    """Check the answers of the warm-up pass that set-up made."""
    for query, result, want in zip(epoch, fixture.warmup_results, expected):
        check_answer(samples, query, result.rows, want, model)


def check_answer(
    samples: Samples,
    query: Query,
    rows,
    expected: List[int],
    model: Model,
) -> None:
    """Count one answer as attempted, and as failed if the oracle differs."""
    samples.attempted += 1
    if not rows_match(rows, expected, model, ATTRIBUTE):
        samples.fail(f"wrong answer to {query.text[:96]!r}")


def run_query(
    samples: Samples,
    entry: Entry,
    query: Query,
    expected: List[int],
    model: Model,
):
    """One timed query through ``entry``; returns its result, or ``None``."""
    started = time.perf_counter()
    try:
        result = entry(query.text, query.options)
    except Exception:  # noqa: BLE001 — the loop reports it and keeps going
        samples.attempted += 1
        samples.fail(f"query raised: {query.text[:96]!r}")
        return None
    ended = time.perf_counter()
    samples.query_seconds.append(ended - started)
    samples.query_ended.append(ended)
    samples.query_pages += result.statistics.io.logical_total
    check_answer(samples, query, result.rows, expected, model)
    return result


def run_write(
    samples: Samples,
    fixture: Fixture,
    model: Model,
    stream: ChurnStream,
    position: int,
    timed: Optional[Callable[[str, Callable[[], object]], object]] = None,
):
    """Draw write ``position`` of a cycle, apply it to the database and model.

    ``timed(op, call)`` lets the traced pass wrap the facade call in a span;
    the duration recorded here is always the facade call's own. Returns
    ``(op, oid, old_elements, new_elements)`` for twins to replay, or
    ``None`` if the write failed.
    """
    op, oid_int, elements = stream.write(position)
    samples.attempted += 1
    if op == "insert":
        call = lambda: fixture.insert(elements)  # noqa: E731
    else:
        oid = OID.from_int(oid_int)
        if op == "update":
            call = lambda: fixture.update(oid, elements)  # noqa: E731
        else:
            call = lambda: fixture.delete(oid)  # noqa: E731
    started = time.perf_counter()
    try:
        returned = timed(op, call) if timed is not None else call()
    except Exception:  # noqa: BLE001
        samples.fail(f"{op} raised")
        return None
    ended = time.perf_counter()
    samples.write_seconds.append(ended - started)
    samples.write_ended.append(ended)
    if op == "insert":
        oid_int = returned.to_int()
        model.insert(oid_int, elements)
        return op, oid_int, None, elements
    old = model.sets[oid_int]
    if op == "update":
        model.update(oid_int, elements)
    else:
        model.delete(oid_int)
    return op, oid_int, old, elements


def churn_block(
    fixture: Fixture,
    model: Model,
    stream: ChurnStream,
    cycles: int,
    with_queries: bool,
    speed: Speed,
) -> Samples:
    """``cycles`` × (6 updates, 1 insert, 1 delete, then the two queries).

    A fixed op count from a freshly set-up state: what a write or a query
    costs depends on how far the run files or the in-place pages have
    aged, so only blocks of one length can be compared.
    """
    samples = Samples()
    speed.burst()
    for _ in range(cycles):
        for position in range(ChurnStream.WRITES_PER_CYCLE):
            run_write(samples, fixture, model, stream, position)
        if with_queries:
            for query in stream.queries():
                expected = model.expected(query.kind, query.elements)
                run_query(samples, fixture.entries[0], query, expected, model)
        speed.probe()
    speed.burst()
    return samples


def read_window(
    entries: Iterable[Entry],
    epoch: List[Query],
    expected: List[List[int]],
    model: Model,
    seconds: float,
    speed: Speed,
    each: Optional[Callable[[int, int, Samples, Entry], None]] = None,
) -> Samples:
    """One closed loop per entry over the epoch until ``seconds`` have passed.

    Loop ``i`` of ``n`` takes epoch positions ``i, i+n, …`` and wraps
    around. ``each(lane, step, samples, entry)`` replaces the plain query
    in the traced pass.
    """
    entries = list(entries)
    lanes = len(entries)
    results = [Samples() for _ in entries]
    crashed: List[BaseException] = []
    speed.burst()
    deadline = time.perf_counter() + seconds

    def loop(lane: int) -> None:
        samples, entry = results[lane], entries[lane]
        step = lane
        try:
            while time.perf_counter() < deadline:
                if each is not None:
                    each(lane, step, samples, entry)
                else:
                    position = step % len(epoch)
                    run_query(
                        samples, entry, epoch[position], expected[position], model
                    )
                step += lanes
                if (step // lanes) % QUERIES_PER_PROBE == 0:
                    speed.probe()
        except BaseException as exc:  # a harness bug must not die with its thread
            crashed.append(exc)
            raise

    threads = [
        threading.Thread(target=loop, args=(lane,), name=f"load-{lane}")
        for lane in range(1, lanes)
    ]
    for thread in threads:
        thread.start()
    try:
        loop(0)
    finally:
        for thread in threads:
            thread.join()
    if crashed:
        raise crashed[0]
    speed.burst()
    merged = Samples()
    for samples in results:
        merged.merge(samples)
    return merged
