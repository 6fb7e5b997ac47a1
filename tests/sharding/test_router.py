"""ShardRouter robustness: retries, deadlines, breakers, merging.

Scripted in-process shard backends make every failure mode deterministic;
the real-network chaos drill lives in ``test_chaos.py``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest

from repro.errors import (
    ConfigurationError,
    ConnectionLostError,
    ParseError,
    ShardUnavailableError,
)
from repro.obs.metrics import REGISTRY
from repro.objects.oid import OID
from repro.query.executor import QueryResult, QueryStatistics
from repro.query.options import ExecutionOptions
from repro.sharding import ShardRouter, merge_results
from repro.storage.faults import RetryPolicy
from repro.storage.stats import FileIOCounts, IOSnapshot

FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.001, multiplier=1.0, jitter_seconds=0.0
)


def _result(*serials: int, candidates: int = 0, plan: str = "bssf") -> QueryResult:
    rows = [
        (OID.from_int(serial), {"name": f"s{serial}"}) for serial in serials
    ]
    io = IOSnapshot(
        {"objects:Student": FileIOCounts(logical_reads=len(rows))}
    )
    return QueryResult(
        rows=rows,
        statistics=QueryStatistics(
            plan=plan,
            candidates=candidates or len(rows),
            false_drops=0,
            results=len(rows),
            io=io,
        ),
    )


class ScriptedShard:
    """Plays back a script: each entry is a result, an exception, or a
    ``(delay_seconds, result_or_exception)`` pair. The last entry repeats."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = 0
        self.closed = False
        self.seen_options = []

    def _step(self):
        step = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        return step

    def _play(self, step):
        if isinstance(step, tuple):
            delay, step = step
            time.sleep(delay)
        if isinstance(step, BaseException):
            raise step
        return step

    def execute(self, text, options=None):
        self.seen_options.append(options)
        return self._play(self._step())

    def execute_many(self, queries, options=None):
        self.seen_options.append(options)
        step = self._play(self._step())
        return [step] * len(queries)

    def submit(self, text, options=None):
        future = Future()
        future.set_result(self.execute(text, options))
        return future

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


def _counter(name: str) -> int:
    return REGISTRY.counter(name).value


class TestMergeResults:
    def test_rows_merge_in_oid_order(self):
        merged = merge_results([_result(5, 9), _result(2, 7)])
        assert [oid.to_int() for oid in merged.oids()] == [2, 5, 7, 9]
        assert not merged.partial

    def test_counters_and_io_sum(self):
        merged = merge_results(
            [_result(1, candidates=4), _result(2, 3, candidates=5)]
        )
        assert merged.statistics.candidates == 9
        assert merged.statistics.results == 3
        assert (
            merged.statistics.io.for_file("objects:Student").logical_reads == 3
        )

    def test_mixed_plans_are_labelled(self):
        merged = merge_results([_result(1, plan="bssf"), _result(2, plan="scan")])
        assert merged.statistics.plan == "mixed(bssf, scan)"

    def test_missing_marks_partial(self):
        merged = merge_results([_result(1)], missing=["shard-1"])
        assert merged.partial
        assert merged.missing_shards == ["shard-1"]
        assert merged.statistics.detail["sharding"]["missing"] == ["shard-1"]


class TestScatterGather:
    def test_execute_merges_all_shards(self):
        with ShardRouter(
            [ScriptedShard(_result(1)), ScriptedShard(_result(2))],
            retry_policy=FAST_RETRY,
        ) as router:
            merged = router.execute("q")
            assert [oid.to_int() for oid in merged.oids()] == [1, 2]

    def test_execute_many_merges_per_index(self):
        with ShardRouter(
            [ScriptedShard(_result(1)), ScriptedShard(_result(2))],
            retry_policy=FAST_RETRY,
        ) as router:
            results = router.execute_many(["a", "b"])
            assert len(results) == 2
            for merged in results:
                assert [oid.to_int() for oid in merged.oids()] == [1, 2]

    def test_submit_resolves_off_thread(self):
        with ShardRouter(
            [ScriptedShard(_result(3))], retry_policy=FAST_RETRY
        ) as router:
            future = router.submit("q")
            assert [oid.to_int() for oid in future.result(timeout=10).oids()] == [3]

    def test_query_errors_propagate_without_retry(self):
        shard = ScriptedShard(ParseError("expected 'select'"))
        with ShardRouter(
            [shard, ScriptedShard(_result(1))], retry_policy=FAST_RETRY
        ) as router:
            with pytest.raises(ParseError):
                router.execute("selectt nonsense")
        assert shard.calls == 1  # semantics, not shard health: no retry

    def test_close_is_idempotent_and_closes_owned_shards(self):
        shard = ScriptedShard(_result(1))
        router = ShardRouter([shard], retry_policy=FAST_RETRY)
        router.close()
        router.close()
        assert shard.closed

    def test_owns_shards_false_leaves_backends_open(self):
        shard = ScriptedShard(_result(1))
        ShardRouter([shard], owns_shards=False).close()
        assert not shard.closed


class TestRetries:
    def test_transport_fault_retries_then_succeeds(self):
        shard = ScriptedShard(ConnectionLostError("blip"), _result(1))
        before = _counter("router.retries")
        with ShardRouter([shard], retry_policy=FAST_RETRY) as router:
            merged = router.execute("q")
        assert [oid.to_int() for oid in merged.oids()] == [1]
        assert shard.calls == 2
        assert _counter("router.retries") == before + 1

    def test_exhausted_retries_raise_strict(self):
        shard = ScriptedShard(ConnectionLostError("down"))
        with ShardRouter(
            [shard, ScriptedShard(_result(2))],
            retry_policy=FAST_RETRY,
        ) as router:
            with pytest.raises(ShardUnavailableError) as excinfo:
                router.execute("q")
        assert shard.calls == FAST_RETRY.max_attempts
        assert excinfo.value.missing_shards == ["shard-0"]
        assert excinfo.value.code == "shard-unavailable"

    def test_exhausted_retries_degrade_to_partial(self):
        before = _counter("router.partial_results")
        with ShardRouter(
            [ScriptedShard(ConnectionLostError("down")), ScriptedShard(_result(2))],
            partial_results="degraded",
            retry_policy=FAST_RETRY,
        ) as router:
            merged = router.execute("q")
        assert merged.partial
        assert merged.missing_shards == ["shard-0"]
        assert [oid.to_int() for oid in merged.oids()] == [2]
        assert _counter("router.partial_results") == before + 1


class TestDeadlines:
    def test_slow_shard_misses_the_deadline_strict(self):
        slow = ScriptedShard((0.5, _result(1)))
        with ShardRouter(
            [slow], deadline_ms=50, retry_policy=FAST_RETRY
        ) as router:
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                router.execute("q")
            assert time.monotonic() - started < 5.0  # bounded, not hung

    def test_slow_shard_degrades_to_partial(self):
        slow = ScriptedShard((0.5, _result(1)))
        with ShardRouter(
            [slow, ScriptedShard(_result(2))],
            partial_results="degraded",
            deadline_ms=100,
            retry_policy=FAST_RETRY,
        ) as router:
            merged = router.execute("q")
        assert merged.partial
        assert [oid.to_int() for oid in merged.oids()] == [2]

    def test_sub_requests_carry_the_shrinking_budget(self):
        shard = ScriptedShard(_result(1))
        with ShardRouter(
            [shard], deadline_ms=10_000, retry_policy=FAST_RETRY
        ) as router:
            router.execute("q")
        (options,) = shard.seen_options
        assert options is not None
        assert options.deadline_ms is not None
        assert 0 < options.deadline_ms <= 10_000

    def test_options_deadline_overrides_router_default(self):
        shard = ScriptedShard(_result(1))
        with ShardRouter(
            [shard], deadline_ms=10_000, retry_policy=FAST_RETRY
        ) as router:
            router.execute("q", ExecutionOptions(deadline_ms=2_000))
        (options,) = shard.seen_options
        assert options.deadline_ms <= 2_000


class TestCircuitBreaker:
    def test_degraded_mode_skips_an_open_breaker(self):
        shard = ScriptedShard(ConnectionLostError("down"))
        before = _counter("router.breaker_skips")
        with ShardRouter(
            [shard, ScriptedShard(_result(2))],
            partial_results="degraded",
            retry_policy=FAST_RETRY,
            failure_threshold=2,
            breaker_cooldown_seconds=30.0,
        ) as router:
            router.execute("q")  # trips the breaker (3 failed attempts)
            calls_after_trip = shard.calls
            merged = router.execute("q")  # breaker open: not even probed
        assert shard.calls == calls_after_trip
        assert merged.partial
        assert _counter("router.breaker_skips") == before + 1

    def test_strict_mode_probes_anyway(self):
        shard = ScriptedShard(ConnectionLostError("down"))
        with ShardRouter(
            [shard],
            retry_policy=FAST_RETRY,
            failure_threshold=1,
            breaker_cooldown_seconds=30.0,
        ) as router:
            with pytest.raises(ShardUnavailableError):
                router.execute("q")
            calls_after_trip = shard.calls
            with pytest.raises(ShardUnavailableError):
                router.execute("q")
        assert shard.calls > calls_after_trip

    def test_breaker_closes_again_after_success(self):
        shard = ScriptedShard(
            ConnectionLostError("down"), _result(1), _result(1)
        )
        with ShardRouter(
            [shard],
            partial_results="degraded",
            retry_policy=FAST_RETRY,
            failure_threshold=10,  # never trips
        ) as router:
            router.execute("q")
            status = router.status()[0]
        assert status["consecutive_failures"] == 0
        assert not status["breaker_open"]


class TestConfiguration:
    def test_rejects_empty_shard_list(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ShardRouter([])

    def test_rejects_unknown_partial_mode(self):
        with pytest.raises(ConfigurationError, match="partial_results"):
            ShardRouter([ScriptedShard(_result(1))], partial_results="maybe")

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            ShardRouter([ScriptedShard(_result(1))], deadline_ms=0)

    def test_status_reports_per_shard_health(self):
        with ShardRouter(
            [ScriptedShard(_result(1)), ScriptedShard(_result(2))],
            retry_policy=FAST_RETRY,
        ) as router:
            router.execute("q")
            status = router.status()
        assert [entry["shard"] for entry in status] == [0, 1]
        assert all(entry["requests"] == 1 for entry in status)
        assert all(not entry["breaker_open"] for entry in status)


class TestTracing:
    def test_router_span_records_shard_outcomes(self):
        with ShardRouter(
            [ScriptedShard(ConnectionLostError("down")), ScriptedShard(_result(2))],
            partial_results="degraded",
            retry_policy=FAST_RETRY,
        ) as router:
            merged = router.execute("q", ExecutionOptions(trace=True))
        span = merged.trace
        assert span is not None
        assert span.name == "router.execute"
        assert span.attributes["mode"] == "degraded"
        assert span.attributes["missing"] == ["shard-0"]
        assert span.attributes["answered"] == [1]
