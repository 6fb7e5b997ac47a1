"""Execution options: one object instead of keyword sprawl.

``QueryExecutor.execute`` / ``execute_text`` / ``explain`` historically
grew a keyword per feature (``context``, ``prefer_facility``, ``smart``,
and now ``trace``). :class:`ExecutionOptions` collapses them into a single
immutable dataclass::

    executor.execute_text(text, ExecutionOptions(prefer_facility="bssf"))
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (planner imports us not)
    from repro.obs.tracer import Tracer
    from repro.query.planner import CostContext

__all__ = ["ExecutionMode", "ExecutionOptions", "coerce_options"]


class ExecutionMode(enum.Enum):
    """How :meth:`QueryExecutor.execute_many` distributes a batch.

    ``SERIAL``
        Run on the calling thread, one query at a time.
    ``THREAD``
        Serve through a transient thread-pool
        :class:`~repro.server.QueryService` — wins when simulated device
        latency dominates (I/O-bound).
    ``PROCESS``
        Serve through a :class:`~repro.server.ProcessQueryService`
        (worker processes over a read-only snapshot) — wins when matching
        is CPU-bound and the GIL serializes threads.
    ``REMOTE``
        Serve through a :class:`~repro.client.RemoteClient` against the
        ``remote_url`` server — the networked backend
        (``sigfile-repro serve``).
    """

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"
    REMOTE = "remote"


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything that shapes how one query is planned and executed.

    ``context``
        Workload statistics for the cost model; ``None`` falls back to the
        database's ANALYZE cache.
    ``prefer_facility``
        Force one facility name ("ssf" / "bssf" / "nix") instead of
        letting the cost model choose.
    ``smart``
        Enable the Section 5 smart-retrieval strategies (default on).
    ``trace``
        Record a span tree for the execution (off by default; the no-op
        tracer costs nothing). The finished tree is attached to
        ``QueryResult.trace``.
    ``tracer``
        Use this exact :class:`~repro.obs.tracer.Tracer` (with its sinks)
        instead of a fresh one; implies ``trace``.
    ``max_workers``
        Worker-pool width for batch entry points
        (:meth:`QueryExecutor.execute_many`,
        :class:`~repro.server.QueryService`). ``None`` means serve
        sequentially on the calling thread; single-query execution ignores
        it.
    ``execution_mode``
        Backend for :meth:`QueryExecutor.execute_many`. ``None`` infers:
        ``REMOTE`` when ``remote_url`` is set, ``THREAD`` when
        ``max_workers > 1``, else ``SERIAL``.
    ``remote_url``
        A ``sigfile://host:port`` server address for ``REMOTE`` execution
        (see :func:`repro.connect`).
    ``deadline_ms``
        Remaining time budget for this request, in milliseconds. A
        *duration*, not a wall-clock instant — it survives clock skew
        across the wire; each hop re-anchors it on receipt. A server or
        service that receives an exhausted budget (``<= 0``, or expired
        while queued) rejects the request with
        :class:`~repro.errors.DeadlineExceededError` instead of burning a
        worker; a :class:`~repro.sharding.ShardRouter` charges every
        sub-request and retry against the one budget. ``None`` (default)
        means unbounded.
    """

    context: Optional["CostContext"] = None
    prefer_facility: Optional[str] = None
    smart: bool = True
    trace: bool = False
    tracer: Optional["Tracer"] = None
    max_workers: Optional[int] = None
    execution_mode: Optional[ExecutionMode] = None
    remote_url: Optional[str] = None
    deadline_ms: Optional[float] = None

    @property
    def tracing_requested(self) -> bool:
        return self.trace or self.tracer is not None

    def resolved_mode(self) -> ExecutionMode:
        """The effective :class:`ExecutionMode` for batch entry points."""
        if self.execution_mode is not None:
            return self.execution_mode
        if self.remote_url is not None:
            return ExecutionMode.REMOTE
        if self.max_workers is not None and self.max_workers > 1:
            return ExecutionMode.THREAD
        return ExecutionMode.SERIAL

    def evolve(self, **changes: Any) -> "ExecutionOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Wire serialization
    # ------------------------------------------------------------------
    # ``context`` and ``tracer`` are live local objects (an ANALYZE cache
    # and a span recorder); they deliberately never travel. Everything
    # else round-trips as plain JSON types with a stable key set, and
    # ``from_dict`` ignores keys it does not know — a newer peer may add
    # fields without breaking an older one.
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form of the portable fields (stable key set)."""
        return {
            "prefer_facility": self.prefer_facility,
            "smart": self.smart,
            "trace": self.trace,
            "max_workers": self.max_workers,
            "execution_mode": (
                self.execution_mode.value
                if self.execution_mode is not None
                else None
            ),
            "remote_url": self.remote_url,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "ExecutionOptions":
        """Rebuild from :meth:`to_dict` output; tolerant of drift.

        Unknown keys are ignored, missing keys take their defaults, and an
        ``execution_mode`` value this version does not know resolves to
        ``None`` (mode inference) instead of failing — so options encoded
        by a newer protocol version still decode.
        """
        data = data or {}
        mode: Optional[ExecutionMode] = None
        raw_mode = data.get("execution_mode")
        if raw_mode is not None:
            try:
                mode = ExecutionMode(raw_mode)
            except ValueError:
                mode = None
        return cls(
            prefer_facility=data.get("prefer_facility"),
            smart=bool(data.get("smart", True)),
            trace=bool(data.get("trace", False)),
            max_workers=data.get("max_workers"),
            execution_mode=mode,
            remote_url=data.get("remote_url"),
            deadline_ms=data.get("deadline_ms"),
        )


def coerce_options(options: Optional[ExecutionOptions]) -> ExecutionOptions:
    """``options``, or the defaults when the caller passed ``None``."""
    return options if options is not None else ExecutionOptions()
