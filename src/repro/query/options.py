"""Execution options: everything that shapes one query, in one object.

    executor.execute_text(text, ExecutionOptions(prefer_facility="bssf"))

Which backend serves the query — a thread pool, a shard router, a server —
is not an option: it is chosen when that backend is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (planner imports us not)
    from repro.obs.tracer import Tracer
    from repro.query.planner import CostContext

__all__ = ["ExecutionOptions", "coerce_options"]


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
    deadline_ms: Optional[float] = None

    @property
    def tracing_requested(self) -> bool:
        return self.trace or self.tracer is not None

    def evolve(self, **changes: Any) -> "ExecutionOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Wire serialization
    # ------------------------------------------------------------------
    # ``context`` and ``tracer`` are live local objects (an ANALYZE cache
    # and a span recorder) and span trees cannot cross the wire, so only
    # the fields in ``_WIRE_TYPES`` travel. ``from_dict`` ignores keys it
    # does not know — an older or newer peer may send more without
    # breaking this one — but rejects a known key of the wrong type.
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form of the portable fields (stable key set)."""
        return {name: getattr(self, name) for name in _WIRE_TYPES}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "ExecutionOptions":
        """Rebuild from :meth:`to_dict` output sent by a peer.

        Missing keys take their defaults and unknown keys are ignored; a
        value of the wrong type raises :class:`~repro.errors.ProtocolError`.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ProtocolError(
                f"query options must be an object, not {type(data).__name__}"
            )
        fields = {}
        for name, types in _WIRE_TYPES.items():
            if name in data:
                value = data[name]
                # bool is an int: only a field typed bool may carry one
                if not isinstance(value, types) or (
                    isinstance(value, bool) and bool not in types
                ):
                    raise ProtocolError(
                        f"malformed query option {name}={value!r}"
                    )
                fields[name] = value
        return cls(**fields)


#: the fields a query carries over the wire, with the JSON types each takes
_WIRE_TYPES = {
    "prefer_facility": (str, type(None)),
    "smart": (bool,),
    "deadline_ms": (int, float, type(None)),
}


def coerce_options(options: Optional[ExecutionOptions]) -> ExecutionOptions:
    """``options``, or the defaults when the caller passed ``None``."""
    return options if options is not None else ExecutionOptions()
