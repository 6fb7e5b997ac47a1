"""The shared retry schedule, circuit breaker and deadline budget.

Every schedule is checked against the formula each loop computed before
the loops shared :mod:`repro.resilience` (kept below as ``_old_*``),
under the same seeded ``random`` state, so a cool-down or a pause that
drifts by one jitter draw fails here.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import resilience
from repro.client.failover import DEFAULT_FAILOVER_RETRY, _Endpoint
from repro.errors import DeadlineExceededError, ShardUnavailableError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from repro.query.options import ExecutionOptions
from repro.replication.replica import DEFAULT_RECONNECT_POLICY, ReplicaDatabase
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.server.net import TcpQueryServer
from repro.server.service import QueryService
from repro.serving import connect
from repro.sharding import ShardRouter
from repro.sharding.router import _Shard
from tests.conftest import populate_students
from tests.sharding.test_router import FAST_RETRY, ScriptedShard, _result

QUERY = 'select Student where hobbies has-subset ("Chess")'


def _old_router_cooldown(consecutive, threshold, base):
    past = min(consecutive - threshold, 6)
    cooldown = min(base * (2.0 ** past), 5.0)
    return cooldown * random.uniform(0.85, 1.15)


def _old_failover_cooldown(consecutive, threshold, policy):
    past = consecutive - threshold + 1
    cooldown = min(policy.sleep_for(min(past, 8)), 5.0)
    return cooldown * random.uniform(0.85, 1.15)


def _old_replica_pause(failures, policy):
    return min(policy.sleep_for(min(failures, 8)), 1.0)


def _cooldown_after(breaker: CircuitBreaker, k: int, seed: int) -> float:
    """Open-for seconds after failure ``threshold + k`` under ``seed``.

    Failures are recorded at monotonic time 0, so ``open_until`` is the
    cool-down itself, bit for bit.
    """
    now = 0.0
    for _ in range(breaker.threshold + k - 1):
        breaker.record_failure(now)
    random.seed(seed)
    breaker.record_failure(now)
    return breaker.open_until - now


class TestSchedules:
    @pytest.mark.parametrize("base", [0.5, 0.01])
    @pytest.mark.parametrize("k", range(9))
    def test_router_breaker_cooldown(self, base, k):
        shard = _Shard("s", None, 3, base)
        got = _cooldown_after(shard, k, seed=k)
        random.seed(k)
        assert got == _old_router_cooldown(3 + k, 3, base)

    @pytest.mark.parametrize(
        "policy",
        [
            DEFAULT_FAILOVER_RETRY,
            RetryPolicy(backoff_seconds=0.001, multiplier=2.0),
            RetryPolicy(backoff_seconds=0.01, jitter_seconds=0.02),
        ],
    )
    @pytest.mark.parametrize("k", range(9))
    def test_failover_breaker_cooldown(self, policy, k):
        endpoint = _Endpoint(None, 3, policy)
        got = _cooldown_after(endpoint, k, seed=100 + k)
        random.seed(100 + k)
        assert got == _old_failover_cooldown(3 + k, 3, policy)

    @pytest.mark.parametrize(
        "policy",
        [
            DEFAULT_RECONNECT_POLICY,
            RetryPolicy(backoff_seconds=0.001, multiplier=2.0),
            RetryPolicy(backoff_seconds=0.01, jitter_seconds=0.5),
        ],
    )
    def test_replica_reconnect_pause(self, tmp_path, monkeypatch, policy):
        replica = ReplicaDatabase(
            "sigfile://127.0.0.1:1",
            str(tmp_path),
            reconnect_policy=policy,
            auto_start=False,
        )
        pauses = []
        monkeypatch.setattr(replica._stop, "wait", pauses.append)
        try:
            for failures in range(1, 11):
                random.seed(failures)
                replica._backoff(failures)
                random.seed(failures)
                assert pauses[-1] == _old_replica_pause(failures, policy)
        finally:
            replica.close()
        assert len(pauses) == 10
        assert max(pauses) <= 1.0

    def test_breaker_cooldown_is_capped_before_jitter(self):
        breaker = CircuitBreaker(1, RetryPolicy(backoff_seconds=60.0), 1)
        breaker.record_failure(0.0)
        cap = resilience.BREAKER_MAX_COOLDOWN_SECONDS
        assert 0.85 * cap <= breaker.open_until <= 1.15 * cap

    def test_breaker_stays_closed_below_threshold_and_success_closes(self):
        breaker = CircuitBreaker(3, RetryPolicy(backoff_seconds=1.0), 1)
        breaker.record_failure(10.0)
        breaker.record_failure(10.0)
        assert not breaker.is_open(10.0)
        breaker.record_failure(10.0)
        assert breaker.is_open(10.0)
        breaker.record_success()
        assert not breaker.is_open(10.0)
        assert breaker.consecutive_failures == 0
        assert breaker.failures == 3

    def test_non_tripping_failure_is_counted_only(self):
        breaker = CircuitBreaker(1, RetryPolicy(backoff_seconds=1.0), 1)
        breaker.record_failure(0.0, trips=False)
        assert breaker.failures == 1
        assert breaker.consecutive_failures == 0
        assert not breaker.is_open(0.0)


class TestBackoff:
    def test_sleeps_the_policy_delay(self):
        waits = []
        policy = RetryPolicy(backoff_seconds=0.01, multiplier=3.0)
        resilience.backoff(policy, 2, wait=waits.append)
        assert waits == [pytest.approx(0.03)]

    def test_zero_delay_does_not_wait(self):
        waits = []
        resilience.backoff(RetryPolicy(), 1, wait=waits.append)
        assert waits == []

    def test_never_sleeps_past_an_expiring_deadline(self):
        policy = RetryPolicy(backoff_seconds=10.0)
        for budget_ms in (0.5, 2.0, 5.0):
            waits = []
            deadline = resilience.deadline_at(budget_ms)
            before = time.monotonic()
            resilience.backoff(
                policy, 1, deadline=deadline, wait=waits.append
            )
            assert len(waits) <= 1
            assert all(0 < w and before + w <= deadline for w in waits)

    def test_spent_deadline_does_not_wait(self):
        waits = []
        resilience.backoff(
            RetryPolicy(backoff_seconds=10.0),
            1,
            deadline=time.monotonic() - 1.0,
            wait=waits.append,
        )
        assert waits == []

    def test_cap_clips_the_delay(self):
        waits = []
        resilience.backoff(
            RetryPolicy(backoff_seconds=10.0), 1, cap=0.25, wait=waits.append
        )
        assert waits == [0.25]


class TestDeadline:
    def test_no_budget_is_no_deadline(self):
        assert resilience.deadline_at(None) is None
        assert resilience.remaining(None) is None

    def test_budget_anchors_to_the_monotonic_clock(self):
        before = time.monotonic()
        deadline = resilience.deadline_at(250.0)
        assert before + 0.25 <= deadline <= time.monotonic() + 0.25
        assert 0 < resilience.remaining(deadline) <= 0.25

    def test_remaining_never_goes_negative(self):
        assert resilience.remaining(time.monotonic() - 5.0) == 0.0


class TestBreakerCountsUnderContention:
    def test_eight_threads_lose_no_failure(self):
        breaker = CircuitBreaker(10**9, RetryPolicy(), 1)
        start = threading.Barrier(8)

        def hammer():
            start.wait()
            for _ in range(1000):
                breaker.record_request()
                breaker.record_failure(0.0)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert breaker.requests == 8000
        assert breaker.failures == 8000
        assert breaker.consecutive_failures == 8000


def _student_db() -> Database:
    db = Database(page_size=4096, pool_capacity=0)
    db.define_class(ClassSchema.build("Student", name="scalar", hobbies="set"))
    db.create_bssf_index("Student", "hobbies", 128, 2)
    populate_students(db, count=20)
    return db


class _ParkedExecutor:
    """Executor whose first query parks until released."""

    database = None

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.calls = 0

    def execute_text(self, text, options=None):
        self.calls += 1
        self.entered.set()
        self.release.wait(timeout=10)
        return _result(1)


class TestSpentBudgetRejected:
    @pytest.mark.parametrize("budget_ms", [0, -5.0])
    def test_service_before_admission(self, budget_ms):
        executor = _ParkedExecutor()
        executor.release.set()
        with QueryService(executor=executor, max_workers=1) as service:
            with pytest.raises(DeadlineExceededError):
                service.submit("q", ExecutionOptions(deadline_ms=budget_ms))
        assert executor.calls == 0

    def test_service_while_queued(self):
        executor = _ParkedExecutor()
        with QueryService(executor=executor, max_workers=1) as service:
            first = service.submit("q")
            assert executor.entered.wait(timeout=10)
            late = service.submit("q", ExecutionOptions(deadline_ms=20))
            time.sleep(0.05)
            executor.release.set()
            first.result(timeout=10)
            with pytest.raises(DeadlineExceededError):
                late.result(timeout=10)
        assert executor.calls == 1

    def test_server_edge(self):
        with TcpQueryServer(_student_db(), max_workers=1) as server:
            client = connect(server.url)
            try:
                with pytest.raises(DeadlineExceededError):
                    client.execute(QUERY, ExecutionOptions(deadline_ms=0))
            finally:
                client.close()

    def test_router_never_asks_a_shard_with_no_budget(self):
        shard = ScriptedShard(_result(1))
        with ShardRouter([shard], retry_policy=FAST_RETRY) as router:
            with pytest.raises(ShardUnavailableError, match="deadline"):
                router.execute("q", ExecutionOptions(deadline_ms=0))
        assert shard.calls == 0

    def test_router_does_not_retry_a_rejected_budget(self):
        shard = ScriptedShard(DeadlineExceededError("spent"), _result(1))
        with ShardRouter(
            [shard], retry_policy=FAST_RETRY, failure_threshold=1
        ) as router:
            with pytest.raises(ShardUnavailableError, match="spent"):
                router.execute("q")
            (status,) = router.status()
        assert shard.calls == 1
        assert status["failures"] == 1
        assert status["consecutive_failures"] == 0
        assert not status["breaker_open"]
