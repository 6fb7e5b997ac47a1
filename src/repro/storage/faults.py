"""Deterministic fault injection for the simulated disk.

A :class:`FaultInjector` wraps a :class:`~repro.storage.disk.DiskStore`
behind the exact same interface (attach it with
:meth:`~repro.storage.paged_file.StorageManager.attach_fault_injector`) and
injects faults at precisely keyed device operations:

* ``transient`` — the read/write raises
  :class:`~repro.errors.TransientIOError`; the operation never reaches the
  store. The buffer pool retries these per its :class:`RetryPolicy`.
* ``torn`` — a write persists only the first half of the new image (the
  rest keeps the old content) while the checksum sidecar records the CRC of
  the *intended* image, exactly like a torn sector write under a
  checksummed page: the caller believes the write succeeded, and the next
  physical read raises :class:`~repro.errors.CorruptPageError`.
* ``bitflip`` — one bit of the stored image is flipped without updating the
  checksum (silent media corruption; detected on next read).
* ``crash`` — raises :class:`~repro.errors.SimulatedCrashError` *before*
  the operation reaches the device, modelling a process death at that
  point. Crash-matrix tests enumerate these points during updates.

Faults are keyed by ``(file, page, op, call-count)`` through
:class:`FaultRule` — the rule's Nth *matching* call triggers — or drawn
from a seeded RNG (``seed=`` plus ``transient_read_rate``) for randomized
smoke runs.
Every injected fault increments the ``storage.faults.injected`` metric and
is appended to :attr:`FaultInjector.injected` for assertions.

All device operations flow through the injector once attached, including
the accounting-free ``peek`` reads decode caches use — the injector sits at
the device, below the accounting layer.
"""

from __future__ import annotations

import fnmatch
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import (
    SimulatedCrashError,
    StorageError,
    TransientIOError,
)
from repro.obs.metrics import REGISTRY
# The retry policy lives in repro.resilience; storage callers import it here.
from repro.resilience import DEFAULT_RETRY_POLICY, RetryPolicy, backoff  # noqa: F401
from repro.storage.disk import DiskStore
from repro.storage.page import Page

_KINDS = ("transient", "torn", "bitflip", "crash")
#: ``wal-append`` targets write-ahead-log appends (the "page" of a matching
#: rule is interpreted as the record's LSN).
_OPS = ("read", "write", "wal-append")

T = TypeVar("T")


def with_retries(operation: Callable[..., T], policy: RetryPolicy, *args) -> T:
    """Run ``operation(*args)``, retrying transient I/O faults per ``policy``.

    Each retry increments the ``storage.retries`` metric; once
    ``max_attempts`` attempts have failed the last
    :class:`~repro.errors.TransientIOError` propagates. The arguments are
    passed through rather than closed over, so a device access builds no
    closure.
    """
    attempt = 1
    while True:
        try:
            return operation(*args)
        except TransientIOError:
            REGISTRY.counter("storage.retries").inc()
            if attempt >= policy.max_attempts:
                raise
            backoff(policy, attempt)
            attempt += 1


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault point.

    Matches device operations by ``op`` (``read``/``write``), file name
    (exact or :mod:`fnmatch` pattern; ``None`` = any file) and page number
    (``None`` = any page). The rule fires on its ``at_call``-th *matching*
    call and keeps firing for ``count`` consecutive matching calls — so
    ``FaultRule("read", "transient", count=2)`` faults twice and then lets
    the retry succeed.
    """

    op: str
    kind: str
    file: Optional[str] = None
    page: Optional[int] = None
    at_call: int = 1
    count: int = 1
    bit: int = 0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise StorageError(f"fault op must be one of {_OPS}, got {self.op!r}")
        if self.kind not in _KINDS:
            raise StorageError(
                f"fault kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind == "torn" and self.op == "read":
            raise StorageError("torn faults only apply to writes")
        if self.op == "wal-append" and self.kind == "bitflip":
            raise StorageError("bitflip faults do not apply to wal appends")
        if self.at_call < 1:
            raise StorageError(f"at_call must be >= 1, got {self.at_call}")
        if self.count < 1:
            raise StorageError(f"count must be >= 1, got {self.count}")
        if self.bit < 0:
            raise StorageError(f"bit must be >= 0, got {self.bit}")

    def matches(self, op: str, name: str, page_no: int) -> bool:
        if op != self.op:
            return False
        if self.page is not None and page_no != self.page:
            return False
        if self.file is not None and not fnmatch.fnmatchcase(name, self.file):
            return False
        return True


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault the injector actually fired."""

    op: str
    kind: str
    file: str
    page: int
    call: int


class FaultInjector:
    """Fault-injecting proxy with the :class:`DiskStore` interface.

    Deterministic rules fire first; when ``seed`` is given, a private RNG
    additionally injects transient read faults at ``transient_read_rate``
    (same seed → same fault sequence, for reproducible randomized smoke
    runs). Operations that don't fault delegate verbatim to the wrapped
    store; everything not overridden here (versions, groups, file table,
    checksum API) is delegated via ``__getattr__``.
    """

    def __init__(
        self,
        store: DiskStore,
        rules: Sequence[FaultRule] = (),
        seed: Optional[int] = None,
        transient_read_rate: float = 0.0,
    ):
        if not 0.0 <= transient_read_rate <= 1.0:
            raise StorageError(
                f"fault rate must be in [0, 1], got {transient_read_rate}"
            )
        self._inner = store
        self._rules: List[FaultRule] = list(rules)
        self._rule_calls: Dict[int, int] = {i: 0 for i in range(len(self._rules))}
        self._rng = random.Random(seed) if seed is not None else None
        self._transient_read_rate = transient_read_rate
        #: set False to pass every operation through untouched
        self.armed = True
        #: every fault fired, in order
        self.injected: List[InjectedFault] = []
        #: device operations seen per op kind (for crash-point enumeration)
        self.op_counts: Dict[str, int] = {"read": 0, "write": 0, "wal-append": 0}
        self._metric_injected = REGISTRY.counter("storage.faults.injected")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def inner(self) -> DiskStore:
        """The wrapped store (used by ``detach_fault_injector``)."""
        return self._inner

    def rule_calls(self, index: int = 0) -> int:
        """Matching device calls rule ``index`` has seen so far.

        Crash-matrix tests dry-run a workload with a never-firing rule
        (huge ``at_call``) to enumerate its crash points: the final count
        is exactly the number of ``at_call`` values worth testing.
        """
        return self._rule_calls[index]

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    # ------------------------------------------------------------------
    # Fault selection
    # ------------------------------------------------------------------
    def _pick(self, op: str, name: str, page_no: int) -> Optional[FaultRule]:
        self.op_counts[op] += 1
        if not self.armed:
            return None
        for index, rule in enumerate(self._rules):
            if not rule.matches(op, name, page_no):
                continue
            self._rule_calls[index] += 1
            seen = self._rule_calls[index]
            if rule.at_call <= seen < rule.at_call + rule.count:
                return rule
        if (
            self._rng is not None
            and op == "read"
            and self._rng.random() < self._transient_read_rate
        ):
            return FaultRule("read", "transient")
        return None

    def _record(self, rule: FaultRule, op: str, name: str, page_no: int) -> None:
        self.injected.append(
            InjectedFault(op, rule.kind, name, page_no, self.op_counts[op])
        )
        self._metric_injected.inc()

    def _flip_bit(self, name: str, page_no: int, bit: int) -> None:
        image = bytearray(self._inner.page_image(name, page_no))
        byte_no = (bit // 8) % len(image)
        image[byte_no] ^= 1 << (bit % 8)
        self._inner._apply_corruption(name, page_no, bytes(image))

    # ------------------------------------------------------------------
    # Intercepted device operations
    # ------------------------------------------------------------------
    def read_page(self, name: str, page_no: int) -> Page:
        rule = self._pick("read", name, page_no)
        if rule is not None:
            self._record(rule, "read", name, page_no)
            if rule.kind == "transient":
                raise TransientIOError(
                    f"injected transient read fault: {name!r} page {page_no}"
                )
            if rule.kind == "crash":
                raise SimulatedCrashError(
                    f"injected crash at read of {name!r} page {page_no}"
                )
            if rule.kind == "bitflip":
                # Silent media corruption surfacing at read time; the
                # store's checksum verification turns it into a
                # CorruptPageError below.
                self._flip_bit(name, page_no, rule.bit)
        return self._inner.read_page(name, page_no)

    def write_page(self, name: str, page_no: int, page: Page) -> None:
        rule = self._pick("write", name, page_no)
        if rule is None:
            self._inner.write_page(name, page_no, page)
            return
        self._record(rule, "write", name, page_no)
        if rule.kind == "transient":
            raise TransientIOError(
                f"injected transient write fault: {name!r} page {page_no}"
            )
        if rule.kind == "crash":
            raise SimulatedCrashError(
                f"injected crash at write of {name!r} page {page_no}"
            )
        if rule.kind == "torn":
            new_image = page.image()
            old_image = self._inner.page_image(name, page_no)
            half = self._inner.page_size // 2
            torn = new_image[:half] + old_image[half:]
            # The checksum records the intended image (as a real
            # checksummed write would); the torn payload mismatches it.
            self._inner._apply_corruption(
                name, page_no, torn, checksum=zlib.crc32(new_image)
            )
            return
        # bitflip: the write lands, then one stored bit silently flips.
        self._inner.write_page(name, page_no, page)
        self._flip_bit(name, page_no, rule.bit)

    def wal_append_fault(self, lsn: int) -> Optional[str]:
        """Fault decision for one WAL append (consulted by the log itself).

        The WAL is a real OS file, not a simulated device, so the injector
        only *decides* here — the log performs the fault (raise transient,
        write half the frame then crash, or crash cleanly). The matching
        rule's ``page`` is compared against the record's LSN. Returns the
        fault kind or ``None``.
        """
        rule = self._pick("wal-append", "wal.log", lsn)
        if rule is None:
            return None
        self._record(rule, "wal-append", "wal.log", lsn)
        return rule.kind
