"""Span-based tracer for the query pipeline and storage substrate.

The paper's evaluation currency is *page accesses*; the tracer makes them
attributable. A :class:`Span` covers one operation (a query, a plan, one
facility search, drop resolution) and records, for its duration:

* the per-file logical/physical page-access delta (an
  :class:`~repro.storage.stats.IOSnapshot` difference),
* the buffer-pool hit/miss delta,
* wall-clock elapsed time (``time.perf_counter``),
* free-form attributes (``slices_read``, ``candidates``, ``decode=hit`` …).

Spans nest: the tracer keeps a stack, so a facility search opened inside a
query span becomes its child, and exclusive ("self") page counts of all
spans in a tree sum to the root's inclusive total.

Tracing is **off by default** and adds near-zero overhead when off: the
per-thread active tracer defaults to a :data:`NULL_TRACER` singleton whose
``span()`` returns one shared no-op context manager — no allocation, no
snapshotting, no accounting side effects. Crucially the tracer only *reads*
the thread's I/O journal (:meth:`IOStatistics.metered`); it never charges
a page access, so logical/physical counts are bit-identical with tracing
on or off (``tests/obs/test_no_overhead.py`` enforces this against the golden
fixed-seed suite).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "activate",
    "annotate",
    "current",
    "span",
    "traced_search",
]


class Span:
    """One traced operation: name, attributes, I/O delta, children."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "elapsed_seconds",
        "pool_hits",
        "pool_misses",
        "_tracer",
        "_started",
        "_meter",
        "_io_cache",
        "_pool_before",
    )

    def __init__(self, name: str, attributes: Dict[str, Any], tracer: "Tracer"):
        self.name = name
        self.attributes = attributes
        self.children: List["Span"] = []
        self.elapsed_seconds = 0.0
        self.pool_hits = 0
        self.pool_misses = 0
        self._tracer = tracer
        self._started = 0.0
        self._meter = None
        self._io_cache = None
        self._pool_before = (0, 0)

    # ------------------------------------------------------------------
    # Context manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def io(self):
        """The span's per-file I/O delta, materialized on first access.

        While the span is open the tracer only holds an
        :class:`~repro.storage.stats.IOMeter` (two journal positions); the
        replay into an :class:`IOSnapshot` happens here, on demand, and is
        cached. Returns ``None`` when the tracer had no I/O source.
        """
        if self._io_cache is None and self._meter is not None:
            self._io_cache = self._meter.delta()
        return self._io_cache

    @property
    def logical_pages(self) -> int:
        """Inclusive logical page accesses during the span."""
        return self.io.logical_total if self.io is not None else 0

    @property
    def physical_pages(self) -> int:
        """Inclusive physical page accesses during the span."""
        return self.io.physical_total if self.io is not None else 0

    @property
    def self_logical_pages(self) -> int:
        """Exclusive logical pages: inclusive minus the children's share.

        Summing ``self_logical_pages`` over a whole span tree reproduces
        the root's inclusive total exactly — this is the invariant the
        ``explain_analyze`` acceptance test checks against the query's
        :class:`IOSnapshot` delta.
        """
        return self.logical_pages - sum(c.logical_pages for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def pages_by_file(self) -> Dict[str, int]:
        """Non-zero logical page counts per file touched during the span."""
        if self.io is None:
            return {}
        return {
            name: counts.logical_total
            for name, counts in self.io.files()
            if counts.logical_total
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the JSON-lines sink)."""
        return {
            "name": self.name,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
            "logical_pages": self.logical_pages,
            "physical_pages": self.physical_pages,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "attributes": {k: _jsonable(v) for k, v in self.attributes.items()},
            "pages_by_file": self.pages_by_file(),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, pages={self.logical_pages}, "
            f"children={len(self.children)})"
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects a tree of spans around one storage manager's counters.

    ``io_source`` is a :class:`~repro.storage.paged_file.StorageManager`
    (its ``stats`` are metered, its ``pool`` read for hits / misses) or a
    bare :class:`~repro.storage.stats.IOStatistics`. ``None`` still traces
    structure and timing, just without I/O deltas (unit tests).

    Finished *root* spans are appended to :attr:`roots` and emitted to
    every sink (objects with an ``emit(span)`` method).
    """

    def __init__(
        self,
        io_source: Any = None,
        sinks: Optional[List[Any]] = None,
        max_roots: int = 1024,
    ):
        self._stats = getattr(io_source, "stats", io_source)
        self.sinks = list(sinks or [])
        self._stack: List[Span] = []
        self._roots: Deque[Span] = deque(maxlen=max_roots)
        self._pool = getattr(io_source, "pool", None)

    @property
    def roots(self) -> List[Span]:
        """Finished root spans, oldest first (bounded ring)."""
        return list(self._roots)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        return Span(name, attributes, tracer=self)

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span, if any."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    @property
    def active_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _enter(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        if self._stats is not None:
            span._meter = self._stats.metered().__enter__()
            pool = self._pool
            if pool is not None:
                span._pool_before = (pool.hits, pool.misses)
        span._started = time.perf_counter()

    def _exit(self, span: Span) -> None:
        span.elapsed_seconds = time.perf_counter() - span._started
        if span._meter is not None:
            span._meter.__exit__(None, None, None)
            pool = self._pool
            if pool is not None:
                span.pool_hits = pool.hits - span._pool_before[0]
                span.pool_misses = pool.misses - span._pool_before[1]
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover — misuse guard
            raise RuntimeError(
                f"span stack corrupted: closing {span.name!r} "
                f"but {popped.name!r} was innermost"
            )
        if not self._stack:
            self._roots.append(span)
            for sink in self.sinks:
                sink.emit(span)

    @property
    def last_root(self) -> Optional[Span]:
        return self._roots[-1] if self._roots else None


class _NullSpan:
    """Shared no-op span: the entire cost of tracing-off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; the default active tracer."""

    __slots__ = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attributes: Any) -> None:
        pass

    @property
    def active_span(self) -> None:
        return None


NULL_TRACER = NullTracer()

# ----------------------------------------------------------------------
# Thread-level active tracer
# ----------------------------------------------------------------------
# The active tracer is *per thread*: a span stack shared across the query
# service's worker pool would interleave unrelated queries into one tree
# (and corrupt the stack invariant outright). A ``threading.local`` slot
# costs one attribute load on the hot search paths — measurably cheaper
# than a contextvar and safe under concurrency; each worker activates its
# own tracer and other threads stay on the null singleton.
_local = threading.local()


def current():
    """This thread's active tracer (the :data:`NULL_TRACER` when off)."""
    return getattr(_local, "tracer", NULL_TRACER)


def span(name: str, **attributes: Any):
    """Open a span on the active tracer (no-op when tracing is off)."""
    return getattr(_local, "tracer", NULL_TRACER).span(name, **attributes)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the innermost active span (no-op when off)."""
    getattr(_local, "tracer", NULL_TRACER).annotate(**attributes)


@contextmanager
def activate(tracer: Tracer):
    """Install ``tracer`` as this thread's active tracer for the body."""
    previous = getattr(_local, "tracer", NULL_TRACER)
    _local.tracer = tracer
    try:
        yield tracer
    finally:
        _local.tracer = previous


def traced_search(span_name: str) -> Callable:
    """Wrap a facility ``search_*`` method in a span named ``span_name``.

    When tracing is off the wrapper costs one global read and one identity
    check. When on, it opens a span, runs the search, and copies the
    result's ``detail`` dict plus the candidate count into span attributes
    — giving every facility a uniform trace surface without touching the
    search bodies (whose page-access behaviour is golden-frozen).
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, query, *args, **kwargs):
            active = getattr(_local, "tracer", NULL_TRACER)
            if active is NULL_TRACER:
                return fn(self, query, *args, **kwargs)
            with active.span(span_name, query_cardinality=len(query)) as sp:
                result = fn(self, query, *args, **kwargs)
                for key, value in result.detail.items():
                    if isinstance(value, (str, int, float, bool)):
                        sp.set(key, value)
                sp.set("candidates", len(result))
                sp.set("exact", result.exact)
                return result

        return wrapper

    return decorate
