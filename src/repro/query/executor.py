"""Query executor: runs an access plan and resolves drops.

Execution mirrors the paper's retrieval procedures: the driving facility
produces candidate OIDs, each candidate object is fetched (one page access)
and tested against *every* predicate exactly, and qualified objects are
returned. Candidates failing the exact test are the false drops; the
executor reports them, together with the I/O snapshot delta, in
:class:`QueryStatistics` — this is how the empirical experiments measure
the quantities the cost model predicts.

Execution behaviour is configured through one
:class:`~repro.query.options.ExecutionOptions` object. With
``ExecutionOptions(trace=True)`` the executor records a span tree (see
:mod:`repro.obs`) attached to ``QueryResult.trace``;
:meth:`QueryExecutor.explain_analyze` renders it as an
``EXPLAIN ANALYZE``-style report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.access.base import SearchResult
from repro.errors import PlanningError, StorageError
from repro.objects.database import Database
from repro.objects.oid import OID
from repro.obs import tracer as trace
from repro.obs.metrics import REGISTRY, file_kind
from repro.obs.sinks import render_span_tree
from repro.obs.tracer import NULL_TRACER, Span, Tracer
from repro.query.options import ExecutionOptions, coerce_options
from repro.query.parser import ParsedQuery, parse_query
from repro.query.planner import AccessPlan, plan_query
from repro.query.predicates import SubqueryPredicate
from repro.storage.stats import IOSnapshot

# The fixed instruments every query feeds, bound once (the registry zeroes
# instruments in place on reset, so the references stay the live ones).
_M_EXECUTED = REGISTRY.counter("query.executed")
_M_CANDIDATES = REGISTRY.counter("query.candidates")
_M_FALSE_DROPS = REGISTRY.counter("query.false_drops")
_M_RESULTS = REGISTRY.counter("query.results")
_M_PAGES = REGISTRY.histogram("query.pages")
_M_ELAPSED = REGISTRY.histogram("query.elapsed_seconds")
_M_FALSE_DROP_RATIO = REGISTRY.histogram("query.false_drop_ratio")


@dataclass
class QueryStatistics:
    """Measured execution profile of one query."""

    plan: str
    candidates: int = 0
    false_drops: int = 0
    results: int = 0
    io: Optional[IOSnapshot] = None
    elapsed_seconds: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def page_accesses(self) -> int:
        """Total logical page accesses — comparable to the model's RC."""
        return self.io.logical_total if self.io else 0

    def false_drop_ratio(self, population: int) -> float:
        """Measured ``Fd = false / (N − actual)`` (§3.2's definition)."""
        denominator = population - self.results
        return self.false_drops / denominator if denominator > 0 else 0.0


@dataclass
class QueryResult:
    """Rows plus execution statistics (and, when traced, the span tree).

    ``partial`` / ``missing_shards`` only ever deviate from their defaults
    on a result merged by a degraded-mode
    :class:`~repro.sharding.ShardRouter`: ``partial=True`` flags that one
    or more shards never answered, and ``missing_shards`` names them. A
    partial answer is an exact *subset* of the complete one — scatter-
    gather over disjoint hash slices can under-report, never invent rows.
    """

    rows: List[Tuple[OID, Dict[str, Any]]]
    statistics: QueryStatistics
    trace: Optional[Span] = None
    partial: bool = False
    missing_shards: List[str] = field(default_factory=list)

    def oids(self) -> List[OID]:
        return [oid for oid, _ in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class QueryExecutor:
    """Plans and executes parsed queries against one database."""

    def __init__(self, database: Database):
        self.database = database

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute_text(
        self,
        text: str,
        options: Optional[ExecutionOptions] = None,
    ) -> QueryResult:
        """Parse, plan and run a query given in the SQL-like language."""
        return self.execute(parse_query(text), options)

    def explain(
        self,
        text: str,
        options: Optional[ExecutionOptions] = None,
    ) -> str:
        """Render the chosen plan and its alternatives without executing.

        Subqueries *are* executed (their results determine the outer
        query's ``Dq``, which the cost model needs), but the outer query is
        only planned.
        """
        opts = coerce_options(options)
        query = self._resolve_subqueries(parse_query(text), opts)
        plan = plan_query(
            self.database,
            query,
            context=opts.context,
            prefer_facility=opts.prefer_facility,
            smart=opts.smart,
        )
        lines = [f"query : {query.describe()}", f"plan  : {plan.describe()}"]
        if plan.residual_predicates:
            residuals = " and ".join(p.describe() for p in plan.residual_predicates)
            lines.append(f"residual filters: {residuals}")
        if plan.alternatives:
            lines.append("alternatives (estimated pages):")
            for name, cost in sorted(plan.alternatives.items(), key=lambda kv: kv[1]):
                marker = " <- chosen" if (
                    plan.facility_name is not None
                    and name.startswith(f"{plan.facility_name}:")
                    and cost == plan.estimated_cost
                ) else ""
                lines.append(f"  {name:24s} {cost:10.1f}{marker}")
        return "\n".join(lines)

    def explain_analyze(
        self,
        text: str,
        options: Optional[ExecutionOptions] = None,
    ) -> str:
        """Execute the query with tracing on and render the span tree.

        The report shows the chosen plan, result/candidate/false-drop
        counts, the query's logical/physical page totals, and the recorded
        span tree with per-span page attribution — the executed counterpart
        of :meth:`explain`.
        """
        opts = coerce_options(options)
        if not opts.tracing_requested:
            opts = opts.evolve(trace=True)
        result = self.execute(parse_query(text), opts)
        stats = result.statistics
        physical = stats.io.physical_total if stats.io else 0
        lines = [
            f"query : {text.strip()}",
            f"plan  : {stats.plan}",
            f"rows  : {stats.results}   candidates: {stats.candidates}"
            f"   false drops: {stats.false_drops}",
            f"pages : {stats.page_accesses} logical / {physical} physical"
            f"   elapsed: {stats.elapsed_seconds * 1000.0:.3f}ms",
            "",
            render_span_tree(result.trace),
        ]
        return "\n".join(lines)

    def execute(
        self,
        query: ParsedQuery,
        options: Optional[ExecutionOptions] = None,
    ) -> QueryResult:
        opts = coerce_options(options)
        tracer = self._tracer_for(opts)
        if tracer is None:
            # Either tracing is off, or an outer execute() already
            # activated a tracer — in the latter case our spans nest into
            # the active tree rather than starting a second root.
            return self._execute(query, opts)
        with trace.activate(tracer):
            with tracer.span("query.execute", query=query.describe()) as root:
                result = self._execute(query, opts)
                root.set("plan", result.statistics.plan)
                root.set("results", result.statistics.results)
        result.trace = root
        return result

    def execute_many(
        self,
        queries: List[str],
        options: Optional[ExecutionOptions] = None,
    ) -> List[QueryResult]:
        """Run a batch of query texts in order on the calling thread.

        A worker pool, a shard router or a server is a backend of its own,
        chosen when it is built (``make_service`` / ``connect``); each
        one's ``execute_many`` returns results in submission order with
        the rows and per-query page accounting of this loop.
        """
        return [self.execute_text(text, options) for text in queries]

    def _tracer_for(self, opts: ExecutionOptions) -> Optional[Tracer]:
        """The tracer to activate for this call, or ``None`` to not activate."""
        if trace.current() is not NULL_TRACER:
            return None
        if opts.tracer is not None:
            return opts.tracer
        if opts.trace:
            return Tracer(io_source=self.database.storage)
        return None

    def _execute(self, query: ParsedQuery, opts: ExecutionOptions) -> QueryResult:
        query = self._resolve_subqueries(query, opts)
        with trace.span("query.plan", class_name=query.class_name) as sp:
            plan = plan_query(
                self.database,
                query,
                context=opts.context,
                prefer_facility=opts.prefer_facility,
                smart=opts.smart,
            )
            if trace.current() is not NULL_TRACER:
                sp.set("plan", plan.describe())
            sp.set("estimated_pages", plan.estimated_cost)
        return self.execute_plan(plan, query)

    def _resolve_subqueries(
        self,
        query: ParsedQuery,
        opts: ExecutionOptions,
        depth: int = 0,
    ) -> ParsedQuery:
        """Materialize subquery predicates (the paper's §1 step 1).

        Each nested ``select`` is executed first — with its own plan, never
        inheriting the outer ``prefer_facility``/context, since it targets
        a different class — and its result OIDs become the query set of a
        plain set predicate.
        """
        if depth > 8:
            raise PlanningError("subquery nesting deeper than 8 levels")
        if not query.has_unresolved_subqueries():
            return query
        inner_opts = ExecutionOptions(smart=opts.smart)
        resolved = []
        for predicate in query.predicates:
            if isinstance(predicate, SubqueryPredicate):
                inner = self._resolve_subqueries(
                    predicate.subquery, inner_opts, depth=depth + 1
                )
                with trace.span(
                    "query.subquery", class_name=inner.class_name, depth=depth + 1
                ) as sp:
                    result = self.execute(inner, inner_opts)
                    sp.set("results", result.statistics.results)
                resolved.append(predicate.resolve(result.oids()))
            else:
                resolved.append(predicate)
        return ParsedQuery(
            class_name=query.class_name, predicates=tuple(resolved)
        )

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def execute_plan(self, plan: AccessPlan, query: ParsedQuery) -> QueryResult:
        # Read latch for the whole plan execution. The meter reads this
        # thread's I/O journal, so under concurrent serving it sees only
        # this query's page accesses.
        with self.database.read_scope():
            with self.database.storage.stats.metered() as meter:
                started = time.perf_counter()
                if plan.is_scan:
                    with trace.span("query.scan", class_name=plan.class_name):
                        rows, stats_detail, candidates = self._run_scan(
                            plan, query
                        )
                else:
                    rows, stats_detail, candidates = self._run_index(plan, query)
                elapsed = time.perf_counter() - started
        io_delta = meter.delta()
        described = plan.describe()
        if "degraded" in stats_detail:
            described += f" -> degraded-fallback scan({plan.class_name})"
            # Counted here — once per query — rather than inside the
            # fallback helper, so a plan whose legs degrade independently
            # can never inflate the metric.
            REGISTRY.counter("query.degraded_fallbacks").inc()
        stats = QueryStatistics(
            plan=described,
            candidates=candidates,
            false_drops=candidates - len(rows),
            results=len(rows),
            io=io_delta,
            elapsed_seconds=elapsed,
            detail=stats_detail,
        )
        self._record_metrics(stats)
        return QueryResult(rows=rows, statistics=stats)

    @staticmethod
    def _record_metrics(stats: QueryStatistics) -> None:
        """Feed the process-wide registry; pure arithmetic, no I/O."""
        _M_EXECUTED.inc()
        _M_CANDIDATES.inc(stats.candidates)
        _M_FALSE_DROPS.inc(stats.false_drops)
        _M_RESULTS.inc(stats.results)
        if stats.io is not None:
            for name, counts in stats.io.files():
                pages = counts.logical_total
                if pages:
                    REGISTRY.counter(f"query.pages.{file_kind(name)}").inc(pages)
            _M_PAGES.record(stats.io.logical_total)
        _M_ELAPSED.record(stats.elapsed_seconds)
        if stats.candidates:
            _M_FALSE_DROP_RATIO.record(stats.false_drops / stats.candidates)

    def _run_scan(self, plan: AccessPlan, query: ParsedQuery):
        """A sequential scan is drop resolution over every live object."""
        objects = self.database.objects
        words = objects.live_words(plan.class_name)
        rows = objects.resolve(words, query.predicates)
        return rows, {"scanned": len(words)}, len(words)

    def _run_index(self, plan: AccessPlan, query: ParsedQuery):
        result, reason = self._driving_search(plan)
        if result is None:
            # The driving facility is unusable; answer via sequential scan
            # (exact by construction) instead of surfacing the failure.
            return self._run_degraded_scan(plan, query, reason)
        candidates = result.words
        detail = dict(result.detail)
        if plan.intersect_with is not None:
            second = plan.intersect_with
            second_facility = self.database.index(
                plan.class_name, second.predicate.attribute, second.facility_name
            )
            with trace.span(
                "query.intersect",
                facility=second.facility_name,
                attribute=second.predicate.attribute,
            ) as sp:
                try:
                    if second.search_mode == "superset":
                        second_result = second_facility.search_superset(
                            second.predicate.constant
                        )
                    elif second.search_mode == "subset":
                        second_result = second_facility.search_subset(
                            second.predicate.constant
                        )
                    else:
                        second_result = second_facility.search_overlap(
                            second.predicate.constant
                        )
                except StorageError as exc:
                    # Skipping the intersection is always safe: it only
                    # narrows candidates, and drop resolution re-checks
                    # every predicate exactly.
                    self.database.mark_degraded(
                        plan.class_name,
                        second.predicate.attribute,
                        second.facility_name,
                        str(exc),
                    )
                    second_result = None
                    sp.set("skipped", str(exc))
                else:
                    # sorted and duplicate-free: rows come in OID order
                    candidates = np.intersect1d(candidates, second_result.words)
                    sp.set("surviving", len(candidates))
            if second_result is None:
                detail["intersection_skipped"] = {
                    "facility": second.facility_name,
                    "reason": "facility degraded",
                }
            else:
                detail["intersected_with"] = {
                    "facility": second.facility_name,
                    "candidates": len(second_result),
                    "surviving": len(candidates),
                }
        with trace.span("query.drop_resolution", candidates=len(candidates)) as sp:
            rows = self.database.objects.resolve(candidates, query.predicates)
            sp.set("false_drops", len(candidates) - len(rows))
        detail["exact_search"] = result.exact and plan.intersect_with is None
        return rows, detail, len(candidates)

    # ------------------------------------------------------------------
    # Degraded-mode execution
    # ------------------------------------------------------------------
    def _driving_search(self, plan: AccessPlan):
        """Search the driving facility, degrading gracefully on failure.

        Returns ``(SearchResult, None)`` on success or ``(None, reason)``
        when the facility cannot answer — already degraded, or its storage
        failed mid-search — and the query must fall back to a scan. A
        degraded facility stays out of use until
        :meth:`~repro.objects.database.Database.rebuild_facility` repairs it.
        """
        database = self.database
        attribute = plan.driving_predicate.attribute
        key = (plan.class_name, attribute, plan.facility_name)
        if database.is_degraded(*key):
            return None, database.degraded_reason(*key) or "facility degraded"
        facility = database.index(plan.class_name, attribute, plan.facility_name)
        try:
            return self._search(facility, plan), None
        except StorageError as exc:
            database.mark_degraded(*key, str(exc))
            return None, str(exc)

    def _run_degraded_scan(self, plan: AccessPlan, query: ParsedQuery, reason):
        """Answer the query by sequential scan after a facility failure.

        The scan applies every predicate exactly, so results are identical
        to a healthy index path — only the page-access profile differs
        (object-file pages instead of facility pages).
        """
        with trace.span(
            "degraded-fallback",
            class_name=plan.class_name,
            facility=plan.facility_name,
            reason=str(reason),
        ):
            rows, detail, candidates = self._run_scan(plan, query)
        detail["degraded"] = {
            "facility": plan.facility_name,
            "reason": str(reason),
        }
        return rows, detail, candidates

    def _search(self, facility, plan: AccessPlan) -> SearchResult:
        constant = plan.driving_predicate.constant
        if plan.search_mode == "superset":
            if plan.use_elements is not None:
                return facility.search_superset(
                    constant, use_elements=plan.use_elements
                )
            return facility.search_superset(constant)
        if plan.search_mode == "subset":
            if plan.slices_to_examine is not None:
                return facility.search_subset(
                    constant, slices_to_examine=plan.slices_to_examine
                )
            return facility.search_subset(constant)
        if plan.search_mode == "overlap":
            return facility.search_overlap(constant)
        raise PlanningError(f"unknown search mode: {plan.search_mode!r}")
