"""How fast the machine is while the benchmark runs, and timings corrected for it.

The box is a few cores of a shared host. A core here runs in one of two
states, about 1.5× apart, depending on what its neighbours on the host
do, and stays in one for seconds or for an hour. Nothing inside a run can
wait that out, so the benchmark measures it instead: a fixed *probe*, a
third of a millisecond of interpreter work that calls no code of the
program, runs between the ops of every timed loop and around every timed
call. A timing is divided by the slowdown the probes nearest to it show,
``probe time ÷ REFERENCE_SECONDS``, and is so reported at the speed of a
core that runs the probe in ``REFERENCE_SECONDS``: this box when quiet.

The process is pinned to one CPU for the run, the quieter of those it may
use. The interpreter lock lets one thread run at a time anyway, and on one
CPU the probe sees the core that does the work.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import time
from typing import Callable, List, Optional, Set, Tuple

REFERENCE_SECONDS = 380e-6
# A factor is the median of the probes inside an interval plus this many on
# either side of it, so a single op is judged by the eight probes around it.
NEIGHBOURS = 4
BURST = 4

_DOCUMENT = [
    {"oid": i, "values": {"items": list(range(i, i + 10))}, "name": f"x{i}"}
    for i in range(30)
]
_PAGES = [random.Random(i).randbytes(4096) for i in range(60)]


class _Cell:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text


def probe() -> float:
    """Run the fixed probe; returns the seconds it took.

    A JSON round trip of a small document, a scan of 4 KiB pages as
    integers, and the allocation of a few hundred small objects: the kinds
    of work a query or a write is made of, calling none of the program's
    code. The mix was chosen by measurement. Over an hour in which the core
    moved between states, a local and a remote query slowed by as much as
    these three did, within a tenth; a loop of integer arithmetic slowed by
    two thirds as much, and a strided walk over a large list read anything
    from 1× to 3×, depending on what had run just before it.
    """
    started = time.perf_counter()
    json.loads(json.dumps(_DOCUMENT, separators=(",", ":"), sort_keys=True))
    mask = int.from_bytes(_PAGES[0], "little")
    hits = 0
    for page in _PAGES:
        if int.from_bytes(page, "little") & mask:
            hits += 1
    cells = [_Cell(i, str(i)) for i in range(300)]
    hits += sum(cell.key for cell in cells if cell.text)
    return time.perf_counter() - started


def pin_to_quietest_cpu() -> Optional[Set[int]]:
    """Pin this thread (and those it starts) to one CPU; returns the old mask.

    Each CPU the process may use is probed in turn and the one whose probes
    read fastest is kept. Returns ``None`` where affinity cannot be set.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None
    best: Tuple[float, int] = (float("inf"), min(allowed))
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            best = min(best, (statistics.median(probe() for _ in range(15)), cpu))
        os.sched_setaffinity(0, {best[1]})
    except OSError:
        return None
    return allowed


class Speed:
    """The probe readings of one run, and the slowdown over any interval."""

    def __init__(self) -> None:
        # (when it ended, how long it took); appended from every load thread.
        self.readings: List[Tuple[float, float]] = []

    def probe(self) -> None:
        seconds = probe()
        self.readings.append((time.perf_counter(), seconds))

    def burst(self) -> None:
        for _ in range(BURST):
            self.probe()

    def timed(self, call: Callable[[], object]) -> Tuple[object, float]:
        """Run ``call`` between two bursts of probes.

        Returns its result and its duration at the reference speed. For a
        call the benchmark cannot put probes inside: a step of set-up, a
        restart.
        """
        self.burst()
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        self.burst()
        return result, (ended - started) / self.slowdown(started, ended)

    def slowdown(self, started: float, ended: float) -> float:
        """Median probe time around ``[started, ended]`` ÷ the reference."""
        return self.corrector()(started, ended)

    def corrector(self) -> Callable[[float, float], float]:
        """``slowdown`` over the readings so far, sorted once for many calls."""
        readings = sorted(self.readings)
        if not readings:
            raise RuntimeError("no probe has run")
        stamps = [stamp for stamp, _ in readings]
        seconds = [taken for _, taken in readings]

        def slowdown(started: float, ended: float) -> float:
            low = max(0, bisect.bisect_left(stamps, started) - NEIGHBOURS)
            high = bisect.bisect_right(stamps, ended) + NEIGHBOURS
            return statistics.median(seconds[low:high]) / REFERENCE_SECONDS

        return slowdown

    def at_reference(self, ended: List[float], seconds: List[float]) -> List[float]:
        """Each op's duration divided by the slowdown around that op."""
        slowdown = self.corrector()
        return [
            taken / slowdown(stamp - taken, stamp)
            for stamp, taken in zip(ended, seconds)
        ]
