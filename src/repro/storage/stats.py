"""I/O accounting for the paged storage substrate.

The paper's cost model is expressed in *page accesses*. The simulator tracks
two layers of counts per file:

``logical reads / writes``
    Every page the executing algorithm touches, whether or not the buffer
    pool already holds it. This is the quantity the paper's equations
    predict (they assume no buffering between steps).

``physical reads / writes``
    Pages actually moved between the buffer pool and the backing store
    (misses and dirty evictions/flushes). Useful for the buffer-pool
    ablation bench.

Counters are cheap plain ints; snapshots are immutable and subtractable so
an experiment can meter a single query as ``after - before``.

Concurrency: every counter update happens under one lock, so the shared
totals are pure addition and bit-identical to a sequential run of the same
work. A thread that wants *its own* page accesses — one query, one span —
opens :meth:`IOStatistics.metered`: while a meter is open the thread also
appends each ``record_*`` call to a thread-local journal, and the meter's
:meth:`IOMeter.delta` replays its slice of that journal. The journal is
per thread, so a concurrent neighbour's accesses never appear in it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple


@dataclass(frozen=True)
class FileIOCounts:
    """Immutable per-file counters."""

    logical_reads: int = 0
    logical_writes: int = 0
    physical_reads: int = 0
    physical_writes: int = 0

    @property
    def logical_total(self) -> int:
        return self.logical_reads + self.logical_writes

    @property
    def physical_total(self) -> int:
        return self.physical_reads + self.physical_writes

    def __sub__(self, other: "FileIOCounts") -> "FileIOCounts":
        return FileIOCounts(
            self.logical_reads - other.logical_reads,
            self.logical_writes - other.logical_writes,
            self.physical_reads - other.physical_reads,
            self.physical_writes - other.physical_writes,
        )

    def __add__(self, other: "FileIOCounts") -> "FileIOCounts":
        return FileIOCounts(
            self.logical_reads + other.logical_reads,
            self.logical_writes + other.logical_writes,
            self.physical_reads + other.physical_reads,
            self.physical_writes + other.physical_writes,
        )


@dataclass(frozen=True)
class IOSnapshot:
    """A frozen view of every file's counters at one instant."""

    per_file: Mapping[str, FileIOCounts] = field(default_factory=dict)

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        names = set(self.per_file) | set(other.per_file)
        zero = FileIOCounts()
        return IOSnapshot(
            {
                name: self.per_file.get(name, zero) - other.per_file.get(name, zero)
                for name in names
            }
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        names = set(self.per_file) | set(other.per_file)
        zero = FileIOCounts()
        return IOSnapshot(
            {
                name: self.per_file.get(name, zero) + other.per_file.get(name, zero)
                for name in names
            }
        )

    def total(self) -> FileIOCounts:
        result = FileIOCounts()
        for counts in self.per_file.values():
            result = result + counts
        return result

    def for_file(self, name: str) -> FileIOCounts:
        return self.per_file.get(name, FileIOCounts())

    def files(self) -> Iterator[Tuple[str, FileIOCounts]]:
        return iter(sorted(self.per_file.items()))

    @property
    def logical_total(self) -> int:
        return self.total().logical_total

    @property
    def physical_total(self) -> int:
        return self.total().physical_total


def _replay(journal: list, start: int, stop: int) -> IOSnapshot:
    """Fold journal entries ``[start:stop)`` into a sparse snapshot."""
    lr: Dict[str, int] = {}
    lw: Dict[str, int] = {}
    pr: Dict[str, int] = {}
    pw: Dict[str, int] = {}
    # "r" and "w" are an unbuffered access: one logical and one physical count
    single = {
        "lr": (lr,), "lw": (lw,), "pr": (pr,), "pw": (pw,),
        "r": (lr, pr), "w": (lw, pw),
    }
    for kind, payload, pages in journal[start:stop]:
        targets = single.get(kind)
        if targets is not None:
            for counters in targets:
                counters[payload] = counters.get(payload, 0) + pages
        else:  # many-file form: payload is a list of names
            counters = lr if kind == "LR" else pr
            for name in payload:
                counters[name] = counters.get(name, 0) + pages
    names = set(lr) | set(lw) | set(pr) | set(pw)
    return IOSnapshot(
        {
            name: FileIOCounts(
                lr.get(name, 0), lw.get(name, 0), pr.get(name, 0), pw.get(name, 0)
            )
            for name in names
        }
    )


class IOMeter:
    """The page accesses one thread charges while the meter is open.

    Entering costs O(1): it notes the current length of the thread's I/O
    journal, starting the journal if no enclosing meter has. Leaving notes
    the length again, and the outermost meter stops the journal. Meters
    nest freely — a query's meter inside a tracer span, spans inside a
    query's meter — because each is only a pair of positions in the one
    list. :meth:`delta` replays the entries between the two positions, so
    its cost follows the files the thread touched, not the files the store
    holds.
    """

    __slots__ = ("_local", "_journal", "_owned", "_start", "_stop")

    def __init__(self, local) -> None:
        self._local = local
        self._stop = None

    def __enter__(self) -> "IOMeter":
        journal = getattr(self._local, "journal", None)
        self._owned = journal is None
        if self._owned:
            journal = self._local.journal = []
        self._journal = journal
        self._start = len(journal)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stop = len(self._journal)
        if self._owned:
            self._local.journal = None
        return False

    def delta(self) -> IOSnapshot:
        """Per-file counts charged so far (or in total, once closed).

        Sparse: only files this thread touched appear.
        """
        stop = self._stop if self._stop is not None else len(self._journal)
        return _replay(self._journal, self._start, stop)


class IOStatistics:
    """Mutable counter registry shared by a storage manager's files.

    Thread-safe: every counter update happens under one lock. Each
    ``record_*`` first appends to the calling thread's journal when a
    :meth:`metered` block is open on it (one list append per *call*, not
    per file; one attribute read when none is open).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logical_reads: Dict[str, int] = {}
        self._logical_writes: Dict[str, int] = {}
        self._physical_reads: Dict[str, int] = {}
        self._physical_writes: Dict[str, int] = {}

    def metered(self) -> IOMeter:
        """A context manager metering this thread's accesses for its body."""
        return IOMeter(self._local)

    def record_logical_read(self, file_name: str, pages: int = 1) -> None:
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("lr", file_name, pages))
        with self._lock:
            self._logical_reads[file_name] = (
                self._logical_reads.get(file_name, 0) + pages
            )

    def record_logical_write(self, file_name: str, pages: int = 1) -> None:
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("lw", file_name, pages))
        with self._lock:
            self._logical_writes[file_name] = (
                self._logical_writes.get(file_name, 0) + pages
            )

    def record_physical_read(self, file_name: str, pages: int = 1) -> None:
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("pr", file_name, pages))
        with self._lock:
            self._physical_reads[file_name] = (
                self._physical_reads.get(file_name, 0) + pages
            )

    def record_physical_write(self, file_name: str, pages: int = 1) -> None:
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("pw", file_name, pages))
        with self._lock:
            self._physical_writes[file_name] = (
                self._physical_writes.get(file_name, 0) + pages
            )

    def record_unbuffered_read(self, file_name: str, pages: int = 1) -> None:
        """Logical reads that were also physical reads, in one call.

        What fetches past an empty pool cost: the same counts as
        :meth:`record_logical_read` plus :meth:`record_physical_read`,
        under one lock and as one journal entry.
        """
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("r", file_name, pages))
        with self._lock:
            self._logical_reads[file_name] = (
                self._logical_reads.get(file_name, 0) + pages
            )
            self._physical_reads[file_name] = (
                self._physical_reads.get(file_name, 0) + pages
            )

    def record_unbuffered_write(self, file_name: str) -> None:
        """The write twin of :meth:`record_unbuffered_read`."""
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.append(("w", file_name, 1))
        with self._lock:
            self._logical_writes[file_name] = (
                self._logical_writes.get(file_name, 0) + 1
            )
            self._physical_writes[file_name] = (
                self._physical_writes.get(file_name, 0) + 1
            )

    def record_logical_read_many(self, file_names, pages_each: int) -> None:
        """Charge ``pages_each`` logical reads to every named file.

        Equivalent to calling :meth:`record_logical_read` per file, but one
        call for a whole batch — the hot path of packed slice search, which
        charges hundreds of slice files per query.
        """
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            file_names = list(file_names)
            journal.append(("LR", file_names, pages_each))
        with self._lock:
            counters = self._logical_reads
            for name in file_names:
                counters[name] = counters.get(name, 0) + pages_each

    def record_physical_read_many(self, file_names, pages_each: int) -> None:
        """Bulk form of :meth:`record_physical_read` (see above)."""
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            file_names = list(file_names)
            journal.append(("PR", file_names, pages_each))
        with self._lock:
            counters = self._physical_reads
            for name in file_names:
                counters[name] = counters.get(name, 0) + pages_each

    def snapshot(self) -> IOSnapshot:
        """Every file's counters, dense — cost grows with the file count.

        For experiments and tests that meter as ``after - before`` on a
        quiet store; the query path uses :meth:`metered` instead.
        """
        with self._lock:
            names = (
                set(self._logical_reads)
                | set(self._logical_writes)
                | set(self._physical_reads)
                | set(self._physical_writes)
            )
            return IOSnapshot(
                {
                    name: FileIOCounts(
                        self._logical_reads.get(name, 0),
                        self._logical_writes.get(name, 0),
                        self._physical_reads.get(name, 0),
                        self._physical_writes.get(name, 0),
                    )
                    for name in names
                }
            )

    def reset(self) -> None:
        with self._lock:
            self._logical_reads.clear()
            self._logical_writes.clear()
            self._physical_reads.clear()
            self._physical_writes.clear()
