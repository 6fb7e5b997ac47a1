"""The traced pass: per-layer numbers, measured from outside the program.

Spans inside ``src/`` are a later change, so a layer is timed by calling
its public functions directly. A query is answered in one of these
*forms*:

=========  =============================================================
``E2E``    the workload's own entry point (``execute_text``,
           ``RemoteClient.execute`` or the router's ``execute``)
``HOP``    routed only: the query sent straight to each shard in turn,
           then ``merge_results``
``SERVICE``  served only: ``QueryService.execute`` of the server itself
``TEXT``   served only: ``execute_text`` on the served database, then the
           result through ``wire.encode_result``, ``json.dumps``,
           ``json.loads``, ``wire.decode_result``, and one ``ping()``
``PLAN``   ``parse_query``, ``plan_query``, ``execute_plan``
``STAGES``  ``parse_query``, ``plan_query``, ``facility.search_*`` with
           the plan's arguments, then ``db.get`` + ``predicate.matches``
           per candidate
=========  =============================================================

Every form answers the query, so every answer is checked against the
oracle. On the read workloads each query runs in one form, rotated per
cell so that every form sees the same mix, and nothing runs twice. Every
other ``E2E`` request is timed without a span, which gives
``ledger.trace_overhead_ratio``. The pass drives one client, so that a
line is the cost of a layer and not of waiting for the interpreter lock
behind the workload's second client.

A line is a mean over the requests of the form that measures it; a
residual line is the difference between a call and the calls it is made
of (``query.executor_self_us``, ``server.service_self_us``,
``server.net_unattributed_us``, ``sharding.router_self_us``).
``ledger.sum_error_ratio`` is how far the lines, residuals included, are
from the end-to-end mean.

On the churn workloads the main database is shadowed by twins that are
built the same way and fed the same op stream: a ``durability="none"``
twin (``wal.overhead_us`` is the difference in write time), a twin whose
object store and facilities are called one by one (the write lines), and
on ``churn_lsm`` an in-place twin (``lsm.read_amp``). After each write
burst the twins' decode caches are as cold as the main database's, so
each query runs as ``E2E`` on the main database, ``PLAN`` on the first
twin and ``STAGES`` on the second: three paired measurements per query.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import wire
from repro.access.base import BatchQuerySpec
from repro.client import RemoteClient
from repro.core.false_drop import (
    false_drop_partial_query,
    false_drop_partial_zero_slices,
    false_drop_subset,
    false_drop_superset,
)
from repro.core.signature import SignatureScheme
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.persistence.snapshot import save_database
from repro.query.executor import QueryExecutor
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.sharding import merge_results

import drive
from oracle import Model
from spans import SpanLog
from speed import Speed
from workloads import (
    ATTRIBUTE,
    CLASS_NAME,
    DT,
    F,
    M,
    ChurnStream,
    Fixture,
    Query,
    System,
    build,
)

STALL_FACTOR = 10.0  # a write slower than this × the median write is a stall
PLAN_SAMPLE_PER_SHAPE = 4

FORMS = {
    "local": ("E2E", "PLAN", "STAGES"),
    "remote": ("E2E", "SERVICE", "TEXT", "PLAN", "STAGES"),
    "routed": ("E2E", "HOP", "SERVICE", "TEXT", "PLAN", "STAGES"),
}
ROOT_SPAN = {
    "local": "query.execute_text",
    "remote": "client.execute",
    "routed": "sharding.execute",
}
WIRE_SPANS = (
    "wire.encode_result",
    "wire.json_dumps",
    "wire.json_loads",
    "wire.decode_result",
    "wire.ping_rtt",
)


def _us(seconds: List[float]) -> float:
    """Mean in microseconds; 0 when the layer did no work."""
    return statistics.fmean(seconds) * 1e6 if seconds else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _frame_bytes(payload: dict) -> int:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return 8 + len(body.encode("utf-8"))


class Ledger:
    """State of one traced pass: spans, tallies and the form rotation."""

    def __init__(
        self, system: System, fixture: Fixture, model: Model, shard_clients=()
    ):
        self.system = system
        self.fixture = fixture
        self.model = model
        self.log = SpanLog()
        self.forms = FORMS[system.topology]
        self.root = ROOT_SPAN[system.topology]
        self.request_ids = itertools.count()
        self.turns: Dict[tuple, int] = defaultdict(int)
        self.tally: Dict[str, float] = defaultdict(float)
        self.untraced_seconds: List[float] = []
        self.hop_max_seconds: List[float] = []
        # Routed only: one direct client per shard, for the hop lines.
        self.shard_clients = list(shard_clients)

    # -- running forms ----------------------------------------------------
    def rotate(self, samples, entry, query: Query, expected: List[int]) -> None:
        """Answer ``query`` in the next form of its cell (read workloads)."""
        cell = (query.shape, query.options)
        turn = self.turns[cell]
        self.turns[cell] = turn + 1
        form = self.forms[turn % len(self.forms)]
        lap = turn // len(self.forms)
        shard = lap % len(self.fixture.dbs)
        owned = self._owned(expected, shard)
        if form == "E2E":
            self.check(samples, query, expected, self.e2e, entry, query, lap % 2 == 0)
        elif form == "HOP":
            self.check(samples, query, expected, self.hop, query)
        elif form == "SERVICE":
            self.check(samples, query, owned, self.service, shard, query)
        elif form == "TEXT":
            self.check(samples, query, owned, self.text, shard, query)
        elif form == "PLAN":
            self.check(samples, query, owned, self.plan, self.fixture.dbs[shard], query)
        else:
            self.check(samples, query, owned, self.stages, self.fixture.dbs[shard], query)

    def check(self, samples, query, expected, form, *args) -> None:
        """Run one form and check its rows against the oracle."""
        try:
            rows = form(*args)
        except Exception:  # noqa: BLE001 — reported, counted, loop goes on
            samples.attempted += 1
            samples.fail(f"{form.__name__} raised: {query.text[:96]!r}")
            return
        drive.check_answer(samples, query, rows, expected, self.model)

    def _owned(self, expected: List[int], shard: int) -> List[int]:
        partitioner = self.fixture.partitioner
        if partitioner is None:
            return expected
        return [
            oid
            for oid in expected
            if partitioner.shard_of(CLASS_NAME, OID.from_int(oid)) == shard
        ]

    # -- the forms ----------------------------------------------------------
    def e2e(self, entry, query: Query, traced: bool):
        tally = self.tally
        hits = REGISTRY.counter("storage.decode_cache.hits")
        misses = REGISTRY.counter("storage.decode_cache.misses")
        hits_before, misses_before = hits.value, misses.value
        if traced:
            with self.log.span(self.root, next(self.request_ids)):
                result = entry(query.text, query.options)
        else:
            started = time.perf_counter()
            result = entry(query.text, query.options)
            self.untraced_seconds.append(time.perf_counter() - started)
        tally["cache.hits"] += hits.value - hits_before
        tally["cache.misses"] += misses.value - misses_before
        stats = result.statistics
        tally["e2e.queries"] += 1
        tally["e2e.candidates"] += stats.candidates
        tally["e2e.rows"] += len(result.rows)
        tally["e2e.pages"] += stats.io.logical_total
        tally["e2e.disk_reads"] += stats.io.total().physical_reads
        return result.rows

    def hop(self, query: Query):
        request = next(self.request_ids)
        results, slowest = [], 0.0
        for client in self.shard_clients:
            with self.log.span("sharding.hop", request) as span:
                results.append(client.execute(query.text, query.options))
            slowest = max(slowest, span["end"] - span["start"])
        self.hop_max_seconds.append(slowest)
        with self.log.span("sharding.merge", request):
            merged = merge_results(results)
        return merged.rows

    def service(self, shard: int, query: Query):
        service = self.fixture.servers[shard].service
        with self.log.span("server.service_execute", next(self.request_ids)):
            result = service.execute(query.text, query.options)
        return result.rows

    def text(self, shard: int, query: Query):
        tally, log = self.tally, self.log
        request = next(self.request_ids)
        executor = QueryExecutor(self.fixture.dbs[shard])
        client = (self.shard_clients or self.fixture.clients)[shard]
        with log.span("replay.text", request):
            with log.span("query.execute_text", request):
                result = executor.execute_text(query.text, query.options)
            with log.span("wire.encode_result", request):
                payload = {"id": request, **wire.encode_result(result)}
            with log.span("wire.json_dumps", request):
                body = json.dumps(
                    payload, separators=(",", ":"), sort_keys=True
                ).encode("utf-8")
            with log.span("wire.json_loads", request):
                received = json.loads(body.decode("utf-8"))
            with log.span("wire.decode_result", request):
                decoded = wire.decode_result(received)
            with log.span("wire.ping_rtt", request):
                client.ping()
        tally["wire.responses"] += 1
        tally["wire.response_bytes"] += 8 + len(body)
        if not result.rows:
            tally["wire.empty_responses"] += 1
            tally["wire.empty_response_bytes"] += 8 + len(body)
        options = query.options.to_dict() if query.options is not None else None
        tally["wire.request_bytes"] += _frame_bytes(
            {"id": request, "text": query.text, "options": options}
        )
        return decoded.rows

    def plan(self, db, query: Query):
        request = next(self.request_ids)
        with self.log.span("replay.plan", request):
            parsed, plan = self._parse_and_plan(request, db, query)
            with self.log.span("query.execute_plan", request):
                result = QueryExecutor(db).execute_plan(plan, parsed)
        return result.rows

    def _parse_and_plan(self, request: int, db, query: Query):
        prefer = query.options.prefer_facility if query.options else None
        with self.log.span("query.parse", request):
            parsed = parse_query(query.text)
        with self.log.span("query.plan", request):
            plan = plan_query(db, parsed, prefer_facility=prefer)
        return parsed, plan

    def stages(self, db, query: Query):
        tally, log = self.tally, self.log
        request = next(self.request_ids)
        with log.span("replay.stages", request):
            parsed, plan = self._parse_and_plan(request, db, query)
            facility = db.index(CLASS_NAME, ATTRIBUTE, plan.facility_name)
            spec = BatchQuerySpec(
                mode=plan.search_mode,
                query=plan.driving_predicate.constant,
                use_elements=plan.use_elements,
                slices_to_examine=plan.slices_to_examine,
            )
            line = f"access.{plan.facility_name}.{plan.search_mode}"
            before = db.io_snapshot()
            with log.span(line, request):
                found = facility.search_spec(spec)
            tally[f"{line}.pages"] += (db.io_snapshot() - before).logical_total
            tally[f"{line}.searches"] += 1
            rows = []
            with log.span("objects.drop_resolution", request):
                for oid in found.candidates:
                    values = db.get(oid)
                    if all(p.matches(values) for p in parsed.predicates):
                        rows.append((oid, values))
            if found.candidates:
                # A second pass of bare gets, for the cost of one get.
                before = db.io_snapshot()
                with log.span("objects.get", request):
                    for oid in found.candidates:
                        db.get(oid)
                tally["get.pages"] += (db.io_snapshot() - before).logical_total
                tally["get.calls"] += len(found.candidates)
        tally["stages.requests"] += 1
        # False drops, against the objects that could have dropped falsely.
        key = f"access.{plan.facility_name}"
        false_drops = len(found.candidates) - len(rows)
        non_answers = db.count(CLASS_NAME) - len(rows)
        tally[f"{key}.false_drops"] += false_drops
        tally[f"{key}.non_answers"] += non_answers
        if plan.facility_name in ("ssf", "bssf"):
            tally["fd.measured"] += false_drops
            tally["fd.model"] += non_answers * _model_fd(plan, len(query.elements))
        return rows


def _model_fd(plan, dq: int) -> float:
    """Eq. 2 / Eq. 6, in the partial form the plan's smart strategy uses."""
    if plan.search_mode == "superset":
        if plan.use_elements is not None:
            return false_drop_partial_query(F, M, DT, plan.use_elements)
        return false_drop_superset(F, M, DT, dq)
    if plan.slices_to_examine is not None:
        return false_drop_partial_zero_slices(F, M, DT, plan.slices_to_examine)
    return false_drop_subset(F, M, DT, dq)


class Twins:
    """Scratch systems that replay the main op stream for the write lines."""

    def __init__(
        self, system: System, sets, warmup, scratch: str, log: SpanLog, speed: Speed
    ):
        self.log = log
        # Warmed like the main system: the planner re-analyzes a class by its
        # mutation count since the first query, so the schedules must agree.
        spec = System("local", "none", system.facilities, lsm=system.lsm)
        self.plain, _ = build(
            spec, sets, warmup, os.path.join(scratch, "twin-plain"), speed
        )
        self.parts, _ = build(
            spec, sets, warmup, os.path.join(scratch, "twin-parts"), speed
        )
        self.in_place: Optional[Fixture] = None
        if system.lsm:
            spec = System("local", "none", system.facilities, lsm=False)
            self.in_place, _ = build(
                spec, sets, warmup, os.path.join(scratch, "twin-in-place"), speed
            )
        self.in_place_pages = 0

    def close(self) -> None:
        for fixture in (self.plain, self.parts, self.in_place):
            if fixture is not None:
                fixture.close()

    def replay(self, request: int, op: str, oid_int: int, old, new) -> None:
        oid = OID.from_int(oid_int)
        with self.log.span("twin.write", request):
            self._facade(self.plain, op, oid, new, oid_int)
        if self.in_place is not None:
            self._facade(self.in_place, op, oid, new, oid_int)
        db = self.parts.dbs[0]
        store = db.objects
        facilities = db.indexes_on(CLASS_NAME, ATTRIBUTE)
        log = self.log
        if op == "insert":
            with log.span("objects.insert", request):
                minted = store.insert(CLASS_NAME, {ATTRIBUTE: new})
            if minted.to_int() != oid_int:
                raise RuntimeError("twin minted a different OID than the main database")
        elif op == "update":
            with log.span("objects.update", request):
                store.fetch(oid)
                store.update(oid, {ATTRIBUTE: new})
        if op in ("update", "delete"):
            for name, facility in facilities.items():
                with log.span(f"access.{name}.delete", request):
                    facility.delete(old, oid)
        if op in ("update", "insert"):
            for name, facility in facilities.items():
                with log.span(f"access.{name}.insert", request):
                    facility.insert(frozenset(new), oid)
        if op == "delete":
            with log.span("objects.delete", request):
                store.fetch(oid)
                store.delete(oid)

    @staticmethod
    def _facade(fixture: Fixture, op: str, oid: OID, new, oid_int: int) -> None:
        if op == "insert":
            if fixture.insert(set(new)).to_int() != oid_int:
                raise RuntimeError("twin minted a different OID than the main database")
        elif op == "update":
            fixture.update(oid, set(new))
        else:
            fixture.delete(oid)

    def answer_in_place(self, query: Query) -> None:
        result = QueryExecutor(self.in_place.dbs[0]).execute_text(query.text)
        self.in_place_pages += result.statistics.io.logical_total


def _registry() -> Tuple[Dict[str, float], Dict[str, dict]]:
    snapshot = REGISTRY.snapshot()
    return snapshot["counters"], snapshot["histograms"]


def _plan_optimal_ratio(fixture: Fixture, system: System, epoch: List[Query]) -> float:
    """Pages of the planner's free choice ÷ pages of the best forced facility."""
    executor = QueryExecutor(fixture.dbs[0])
    seen: Dict[str, int] = defaultdict(int)
    done = set()
    free_pages = best_pages = 0
    for query in epoch:
        if query.text in done or seen[query.shape] >= PLAN_SAMPLE_PER_SHAPE:
            continue
        done.add(query.text)
        seen[query.shape] += 1
        free_pages += executor.execute_text(query.text).statistics.io.logical_total
        best_pages += min(
            executor.execute_text(
                query.text, ExecutionOptions(prefer_facility=name)
            ).statistics.io.logical_total
            for name in system.facilities
        )
    return _ratio(free_pages, best_pages)


def _static_lines(fixture: Fixture, sets, put) -> None:
    """Lines that need no traffic: sizes, and two calls timed in a tight loop."""
    files = 0
    pages: Dict[str, int] = defaultdict(int)
    for db in fixture.dbs:
        files += sum(1 for _ in db.io_snapshot().files())
        for key, components in db.facility_storage_report().items():
            pages[key.rsplit("/", 1)[1]] += sum(components.values())
    put("storage.files", files)
    for name, total in pages.items():
        put(f"access.{name}.storage_pages", total)
    db = fixture.dbs[0]
    started = time.perf_counter()
    for _ in range(50):
        db.io_snapshot()
    put("storage.io_snapshot_us", (time.perf_counter() - started) / 50 * 1e6)
    scheme = SignatureScheme(F, M)
    sample = sets[:512]
    started = time.perf_counter()
    for elements in sample:
        scheme.set_signature(elements)
    put("core.signature_us", (time.perf_counter() - started) / len(sample) * 1e6)


def _census(ledger: Ledger, epoch: List[Query]) -> Dict[str, float]:
    """Search every distinct query of the epoch once, on every database.

    The traced window stops on the clock, so how often each query was
    searched differs from run to run. This pass is the same for a seed,
    which makes the page and false-drop lines of a read workload exact.
    """
    census = Ledger(ledger.system, ledger.fixture, ledger.model)
    done = set()
    for query in epoch:
        if (query.text, query.options) not in done:
            done.add((query.text, query.options))
            for db in ledger.fixture.dbs:
                census.stages(db, query)
    return census.tally


def _query_lines(ledger: Ledger, counts: Dict[str, float], put) -> None:
    """Every line of a query, the residuals, and how far they are from the sum.

    ``counts`` holds the page and false-drop tallies: the census on a read
    workload, the traced requests themselves on a churn workload.
    """
    durations = ledger.log.durations()
    tally = ledger.tally
    topology = ledger.system.topology
    # The sum is checked against every end-to-end call, spanned or not.
    e2e = _us(durations[ledger.root] + ledger.untraced_seconds)
    parse = _us(durations["query.parse"])
    plan = _us(durations["query.plan"])
    execute = _us(durations["query.execute_plan"])
    resolution = _us(durations["objects.drop_resolution"])
    search_seconds = sum(
        sum(spans)
        for name, spans in durations.items()
        if name.startswith("access.") and name.endswith(("superset", "subset"))
    )
    search = _ratio(search_seconds * 1e6, tally["stages.requests"])
    executor_self = execute - search - resolution
    lines = [parse, plan, search, resolution, executor_self]
    put("query.parse_us", parse)
    put("query.plan_us", plan)
    put("query.execute_us", execute)
    put("query.executor_self_us", executor_self)
    put("objects.drop_resolution_us", resolution)
    put("objects.get_us", _ratio(sum(durations["objects.get"]) * 1e6, tally["get.calls"]))
    put("objects.pages_per_get", _ratio(counts["get.pages"], counts["get.calls"]))
    queries = tally["e2e.queries"]
    put("query.candidates_per_query", _ratio(tally["e2e.candidates"], queries))
    put("query.rows_per_query", _ratio(tally["e2e.rows"], queries))
    put("storage.disk_reads_per_query", _ratio(tally["e2e.disk_reads"], queries))
    put(
        "storage.decode_cache_hit_ratio",
        _ratio(tally["cache.hits"], tally["cache.hits"] + tally["cache.misses"]),
    )
    for name in ledger.system.facilities:
        for mode in ("superset", "subset"):
            line = f"access.{name}.{mode}"
            put(f"{line}_us", _us(durations[line]))
            put(
                f"{line}_pages",
                _ratio(counts[f"{line}.pages"], counts[f"{line}.searches"]),
            )
        put(
            f"access.{name}.false_drop_ratio",
            _ratio(
                counts[f"access.{name}.false_drops"],
                counts[f"access.{name}.non_answers"],
            ),
        )
    put("access.fd_model_ratio", _ratio(counts["fd.measured"], counts["fd.model"]))

    if topology != "local":
        text = _us(durations["query.execute_text"])
        service = _us(durations["server.service_execute"])
        wire_lines = [_us(durations[name]) for name in WIRE_SPANS]
        # One client round trip: the whole request when remote, one hop when routed.
        client = _us(
            durations["sharding.hop" if topology == "routed" else ledger.root]
        )
        unattributed = client - service - sum(wire_lines)
        lines += [service - text, unattributed, *wire_lines]
        put("server.service_self_us", service - text)
        put("server.net_unattributed_us", unattributed)
        put("client.execute_us", client)
        for name, value in zip(WIRE_SPANS, wire_lines):
            put(f"{name}_us", value)
        responses = tally["wire.responses"]
        put("wire.request_bytes", _ratio(tally["wire.request_bytes"], responses))
        put("wire.response_bytes", _ratio(tally["wire.response_bytes"], responses))
        put(
            "wire.empty_response_bytes",
            _ratio(tally["wire.empty_response_bytes"], tally["wire.empty_responses"]),
        )
    if topology == "routed":
        hop_max = _us(ledger.hop_max_seconds)
        merge = _us(durations["sharding.merge"])
        router_self = e2e - hop_max - merge
        # hop_max − client is the wait for the slower of the two hops.
        lines += [router_self, merge, hop_max - client]
        put("sharding.hop_us", client)
        put("sharding.hop_max_us", hop_max)
        put("sharding.merge_us", merge)
        put("sharding.router_self_us", router_self)
    put("ledger.sum_error_ratio", _ratio(abs(sum(lines) - e2e), e2e))
    put(
        "ledger.trace_overhead_ratio",
        _ratio(_us(durations[ledger.root]), _us(ledger.untraced_seconds)),
    )


def _registry_lines(before, after, counted, topology: str, put) -> None:
    """Counts the program keeps itself, as deltas over the traced pass."""
    histograms_before, histograms_after = before[1], after[1]
    put("concurrency.latch_read_waits", counted("latch.read_waits"))
    put("concurrency.latch_write_waits", counted("latch.write_waits"))
    if topology != "local":
        name = "server.admission_wait_seconds"
        now, then = histograms_after.get(name, {}), histograms_before.get(name, {})
        put(
            "server.admission_wait_us",
            _ratio(
                (now.get("total", 0.0) - then.get("total", 0.0)) * 1e6,
                now.get("count", 0) - then.get("count", 0),
            ),
        )
        put("server.shed", counted("server.shed"))
        put("server.errors", counted("server.errors"))
        put("client.transport_retries", counted("client.transport_retries"))
        put("client.stale_connections", counted("client.stale_connections"))
    if topology == "routed":
        put(
            "sharding.sub_requests_per_query",
            _ratio(counted("router.sub_requests"), counted("router.requests")),
        )
        put("sharding.retries", counted("router.retries"))


def _churn(ledger: Ledger, twins: Twins, stream, samples, seconds: float) -> None:
    """Traced churn cycles: every write shadowed, every query in three forms."""
    fixture, model, log = ledger.fixture, ledger.model, ledger.log
    entry = fixture.entries[0]
    plan_db, stages_db = twins.plain.dbs[0], twins.parts.dbs[0]
    cycle = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for position in range(ChurnStream.WRITES_PER_CYCLE):
            request = next(ledger.request_ids)

            def timed(op, call, request=request):
                with log.span(f"db.{op}", request):
                    return call()

            applied = drive.run_write(samples, fixture, model, stream, position, timed)
            if applied is not None:
                twins.replay(request, *applied)
        for query in stream.queries():
            want = model.expected(query.kind, query.elements)
            forms = [
                # Spanned on every other cycle, so both shapes are timed both ways.
                (ledger.e2e, entry, query, cycle % 2 == 0),
                (ledger.plan, plan_db, query),
                (ledger.stages, stages_db, query),
            ]
            # Whichever form runs first warms the interpreter for the others.
            for turn in range(len(forms)):
                form, *args = forms[(cycle + turn) % len(forms)]
                ledger.check(samples, query, want, form, *args)
            if twins.in_place is not None:
                twins.answer_in_place(query)
        cycle += 1


def _write_lines(ledger, twins, writes, counted, wal_bytes, physical_writes, put):
    durations = ledger.log.durations()
    system = ledger.system
    for op in ("insert", "update", "delete"):
        put(f"objects.{op}_us", _us(durations[f"objects.{op}"]))
    for name in system.facilities:
        put(f"access.{name}.insert_us", _us(durations[f"access.{name}.insert"]))
        put(f"access.{name}.delete_us", _us(durations[f"access.{name}.delete"]))
    put("wal.overhead_us", _us(writes) - _us(durations["twin.write"]))
    put("wal.appends_per_write", _ratio(counted("wal.appends"), len(writes)))
    put("wal.fsyncs_per_write", _ratio(counted("wal.fsyncs"), len(writes)))
    put("wal.bytes_per_write", _ratio(wal_bytes, len(writes)))
    put("storage.disk_writes_per_write", _ratio(physical_writes, len(writes)))
    if not system.lsm:
        return
    threshold = STALL_FACTOR * statistics.median(writes)
    stalls = [seconds for seconds in writes if seconds > threshold]
    put("lsm.stall_count", len(stalls))
    put("lsm.stall_max_ms", max(stalls, default=0.0) * 1e3)
    put("lsm.stall_total_ms", sum(stalls) * 1e3)
    facilities = ledger.fixture.dbs[0].indexes_on(CLASS_NAME, ATTRIBUTE)
    put("lsm.run_count_end", sum(f.run_count for f in facilities.values()))
    put("lsm.read_amp", _ratio(ledger.tally["e2e.pages"], twins.in_place_pages))


def _restart_lines(fixture: Fixture, system: System, scratch: str, put) -> None:
    """Restart, then time the maintenance calls on what came back."""
    fixture.persist()
    replayed = REGISTRY.counter("recovery.wal_replayed_records")
    replayed_before = replayed.value
    started = time.perf_counter()
    fixture.restart()
    took = time.perf_counter() - started
    put("recovery.replayed_records", replayed.value - replayed_before)
    put(
        "recovery.replay_us_per_record",
        _ratio(took * 1e6, replayed.value - replayed_before),
    )
    db = fixture.dbs[0]
    if system.lsm:
        started = time.perf_counter()
        db.flush_indexes()
        put("lsm.flush_us", (time.perf_counter() - started) * 1e6)
        started = time.perf_counter()
        db.compact_indexes()
        put("lsm.compact_us", (time.perf_counter() - started) * 1e6)
    started = time.perf_counter()
    if system.churns:
        path = db.checkpoint()
    else:
        path = os.path.join(scratch, "checkpoint.sigdb")
        save_database(db, path)
    put("persistence.checkpoint_s", time.perf_counter() - started)
    put("persistence.checkpoint_bytes", os.path.getsize(path))


def traced(inputs, seconds, scratch, trace_path, declared):
    """The traced pass of one workload; returns (samples, values, notes)."""
    system: System = inputs.system
    values = {name: 0.0 for name in declared}

    def put(name: str, value: float) -> None:
        if name not in values:
            raise KeyError(f"per-layer metric {name!r} is not declared")
        values[name] = float(value)

    samples = drive.Samples()
    # The lines of a traced pass are compared with one another, within the
    # run, so they stay as measured; the probes only come with the loops.
    speed = Speed()
    fixture, _ = build(
        system, inputs.sets, inputs.epoch, os.path.join(scratch, "main"), speed
    )
    ledger = twins = None
    shard_clients: list = []
    try:
        model = drive.model_of(fixture, inputs.sets)
        expected = [model.expected(q.kind, q.elements) for q in inputs.epoch]
        drive.check_warmup(samples, fixture, inputs.epoch, expected, model)
        if system.topology == "routed":
            shard_clients = [
                RemoteClient.from_url(server.url, pool_size=1)
                for server in fixture.servers
            ]
        ledger = Ledger(system, fixture, model, shard_clients)
        registry_before = _registry()
        io_before = [db.io_snapshot() for db in fixture.dbs]
        wal_bytes_before = fixture.disk_bytes()
        if system.churns:
            twins = Twins(
                system, inputs.sets, inputs.epoch, scratch, ledger.log, speed
            )
            stream = ChurnStream(inputs.window_rng, model)
            _churn(ledger, twins, stream, samples, seconds)
            fixture.dbs[0].wal.sync()
        else:
            def each(lane, step, lane_samples, entry):
                position = step % len(inputs.epoch)
                ledger.rotate(
                    lane_samples, entry, inputs.epoch[position], expected[position]
                )

            samples.merge(
                drive.read_window(
                    fixture.entries[:1], inputs.epoch, expected, model, seconds,
                    speed, each,
                )
            )
        registry_after = _registry()

        def counted(name: str) -> float:
            return registry_after[0].get(name, 0) - registry_before[0].get(name, 0)

        _registry_lines(registry_before, registry_after, counted, system.topology, put)
        counts = ledger.tally if system.churns else _census(ledger, inputs.epoch)
        _query_lines(ledger, counts, put)
        if system.churns:
            physical_writes = sum(
                (db.io_snapshot() - start).total().physical_writes
                for db, start in zip(fixture.dbs, io_before)
            )
            _write_lines(
                ledger, twins, samples.write_seconds, counted,
                fixture.disk_bytes() - wal_bytes_before, physical_writes, put,
            )
        put("query.plan_optimal_ratio", _plan_optimal_ratio(fixture, system, inputs.epoch))
        _static_lines(fixture, inputs.sets, put)
        _restart_lines(fixture, system, scratch, put)
    finally:
        for client in shard_clients:
            client.close()
        if twins is not None:
            twins.close()
        fixture.close()
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    ledger.log.dump(trace_path)
    notes = (
        f"{len(ledger.log.spans)} spans, {int(ledger.tally['e2e.queries'])} "
        f"end-to-end and {int(ledger.tally['stages.requests'])} staged requests, "
        f"one client, forms {ledger.forms}"
    )
    return samples, values, notes
