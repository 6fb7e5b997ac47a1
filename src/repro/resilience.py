"""Retry schedule, circuit breaker and deadline budget for every retry loop.

The buffer pool, admission, the remote client, the failover client, the
shard router and the replica's reconnect loop share these; what each
retries, which failure costs an attempt and which metric it counts stay
with the loop. On the per-access and per-query paths (``with_retries``,
admission, the remote client's round trip) a first attempt runs no code
here; only a failure reaches :func:`backoff`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError, ConnectionLostError, StorageError

__all__ = [
    "BREAKER_MAX_COOLDOWN_SECONDS",
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "TRANSPORT_ERRORS",
    "backoff",
    "deadline_at",
    "remaining",
]

#: failures of the transport itself (dropped, refused or timed-out
#: connections; ``socket.timeout`` and ``ConnectionError`` are
#: ``OSError``\ s), as opposed to an error the peer answered with
TRANSPORT_ERRORS = (ConnectionLostError, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and exponential backoff schedule.

    ``backoff_seconds`` defaults to 0 — the simulated device has nothing
    to wait for, but the schedule is honored when a caller opts into real
    sleeps. ``jitter_seconds`` adds up to that much uniform random extra
    delay per sleep (decorrelates retry storms).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    multiplier: float = 2.0
    jitter_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise StorageError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.jitter_seconds < 0:
            raise StorageError(
                f"jitter_seconds must be >= 0, got {self.jitter_seconds}"
            )

    def sleep_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retry number ``attempt`` (1-based failed attempts)."""
        delay = self.backoff_seconds * self.multiplier ** (attempt - 1)
        if self.jitter_seconds > 0:
            delay += (rng or random).uniform(0.0, self.jitter_seconds)
        return delay


#: Policy used by every buffer pool and admission gate unless one is
#: supplied explicitly.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: longest a tripped breaker stays open, before its ±15 % jitter
BREAKER_MAX_COOLDOWN_SECONDS = 5.0


def backoff(
    policy: RetryPolicy,
    attempt: int,
    *,
    cap: Optional[float] = None,
    deadline: Optional[float] = None,
    wait: Callable[[float], object] = time.sleep,
) -> None:
    """Pause after failed attempt ``attempt``: ``policy.sleep_for(attempt)``.

    The delay is clipped to ``cap`` seconds and to what is left before the
    ``deadline`` (a :func:`deadline_at` instant); a zero delay does not
    call ``wait`` at all.
    """
    delay = policy.sleep_for(attempt)
    if cap is not None:
        delay = min(delay, cap)
    if deadline is not None:
        delay = min(delay, remaining(deadline))
    if delay > 0:
        wait(delay)


class CircuitBreaker:
    """Consecutive-failure breaker with a capped, jittered cool-down.

    ``threshold`` consecutive failures open the breaker. The failure ``k``
    past the threshold (0 for the one that tripped it) opens it for
    ``schedule.sleep_for(min(k + 1, max_step))`` seconds, capped at
    :data:`BREAKER_MAX_COOLDOWN_SECONDS` and multiplied by
    ``U(0.85, 1.15)`` so a fleet of callers whose breakers opened together
    do not all re-probe a recovered server on the same tick. A success
    closes it. ``requests`` and ``failures`` are lifetime counts for
    status reports. Every count moves under the breaker's lock: callers
    record from concurrent fan-out and submit threads.
    """

    def __init__(self, threshold: int, schedule: RetryPolicy, max_step: int):
        if threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.schedule = schedule
        self.max_step = max_step
        self.requests = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.open_until = 0.0
        self._lock = threading.Lock()

    def is_open(self, now: float) -> bool:
        """True while cooling down; past ``open_until`` a trial may go."""
        return now < self.open_until

    def record_request(self) -> None:
        """Count one request sent (success or not)."""
        with self._lock:
            self.requests += 1

    def record_success(self) -> None:
        """Close the breaker and reset the consecutive-failure run."""
        with self._lock:
            self.consecutive_failures = 0
            self.open_until = 0.0

    def record_failure(self, now: float, *, trips: bool = True) -> None:
        """Count one failure at monotonic time ``now``.

        ``trips=False`` counts it without moving the breaker — for a
        failure that says nothing about the peer's health.
        """
        with self._lock:
            self.failures += 1
            if not trips:
                return
            self.consecutive_failures += 1
            past = self.consecutive_failures - self.threshold
            if past >= 0:
                cooldown = min(
                    self.schedule.sleep_for(min(past + 1, self.max_step)),
                    BREAKER_MAX_COOLDOWN_SECONDS,
                )
                self.open_until = now + cooldown * random.uniform(0.85, 1.15)


def deadline_at(budget_ms: Optional[float]) -> Optional[float]:
    """The monotonic instant a ``budget_ms`` budget runs out (``None``: never)."""
    if budget_ms is None:
        return None
    return time.monotonic() + budget_ms / 1000.0


def remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left before ``deadline``, never negative (``None``: unbounded)."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())
