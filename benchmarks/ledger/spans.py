"""In-memory spans around the benchmark's calls into the program.

The ledger times the program from outside: every public call the traced
pass makes is wrapped in :meth:`SpanLog.span`. A span is
``{id, name, start, end, parent, request_id}``; ``parent`` is the span
that was open on the same thread when this one started, and every span
of one request carries that request's id. Spans stay in memory until
:meth:`SpanLog.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List


class SpanLog:
    """Thread-safe span recorder (one per traced run)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, request_id: int) -> Iterator[dict]:
        stack = self._open.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1] if stack else None,
            "request_id": request_id,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations(self) -> Dict[str, List[float]]:
        """Seconds per span, grouped by span name."""
        grouped: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            grouped[span["name"]].append(span["end"] - span["start"])
        return grouped

    def self_durations(self) -> Dict[str, List[float]]:
        """Each span's duration minus the part its child spans cover."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        grouped: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            grouped[span["name"]].append(
                span["end"] - span["start"] - covered[span["id"]]
            )
        return grouped

    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(self.spans, stream)
