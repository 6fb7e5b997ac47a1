"""Query planner: facility selection and smart-strategy parameters.

Given a parsed query and a database, the planner picks one indexable
predicate to *drive* the plan through an access facility (the rest become
residual filters applied during drop resolution), chooses among the
facilities available on that attribute path using the Section 4 cost
model, and — when enabled — attaches the Section 5 smart-retrieval
parameters (``use_elements`` for ``T ⊇ Q``, ``slices_to_examine`` for
``T ⊆ Q``).

The cost model needs workload statistics (N, V, Dt); a
:class:`CostContext` supplies them, either explicitly or from the
database's ANALYZE cache (:meth:`Database.analyze`).

A price is a pure function of numbers — the model family, F, m, the search
mode, Dq, the context, the page size — so it is computed once per distinct
input and memoised: the context only changes when statistics are
re-collected, and a served workload asks for the same few shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.access.base import SetAccessFacility
from repro.access.catalog import FACILITY_KINDS
from repro.core.false_drop import false_drop_subset, false_drop_superset
from repro.core.signature import SetPredicateKind
from repro.costmodel.actual_drop import (
    actual_drops_subset,
    actual_drops_superset,
    expected_intersecting_non_subset,
)
from repro.costmodel.bssf_model import BSSFCostModel
from repro.costmodel.nix_model import NIXCostModel
from repro.costmodel.parameters import CostParameters
from repro.costmodel.smart import (
    smart_subset_bssf,
    smart_superset_bssf,
    smart_superset_nix,
)
from repro.costmodel.ssf_model import SSFCostModel
from repro.errors import PlanningError
from repro.objects.database import Database
from repro.query.parser import ParsedQuery
from repro.query.predicates import SetPredicate

#: predicate kinds an access facility can drive, and the search mode used
_DRIVABLE = {
    SetPredicateKind.HAS_SUBSET: "superset",
    SetPredicateKind.CONTAINS: "superset",
    SetPredicateKind.EQUALS: "superset",
    SetPredicateKind.IN_SUBSET: "subset",
    SetPredicateKind.OVERLAPS: "overlap",
}


@dataclass(frozen=True)
class CostContext:
    """Workload statistics feeding the analytical cost model."""

    num_objects: int
    domain_cardinality: int
    target_cardinality: int

    def parameters(self, page_bytes: int) -> CostParameters:
        return CostParameters(
            num_objects=self.num_objects,
            page_bytes=page_bytes,
            domain_cardinality=self.domain_cardinality,
        )


@dataclass(frozen=True)
class SecondaryAccess:
    """The second leg of an index-intersection plan."""

    predicate: SetPredicate
    facility_name: str
    search_mode: str  # superset | subset | overlap


@dataclass(frozen=True)
class AccessPlan:
    """An executable plan for one query."""

    class_name: str
    #: None means full class scan
    driving_predicate: Optional[SetPredicate]
    facility_name: Optional[str]
    search_mode: Optional[str]  # superset | subset | overlap
    residual_predicates: Tuple[SetPredicate, ...]
    use_elements: Optional[int] = None
    slices_to_examine: Optional[int] = None
    estimated_cost: Optional[float] = None
    alternatives: Dict[str, float] = field(default_factory=dict)
    #: when set, the executor also runs this search and intersects the
    #: two candidate OID sets before drop resolution
    intersect_with: Optional[SecondaryAccess] = None

    @property
    def is_scan(self) -> bool:
        return self.facility_name is None

    def describe(self) -> str:
        if self.is_scan:
            return f"scan({self.class_name})"
        parts = [f"{self.facility_name}.{self.search_mode}"]
        if self.use_elements is not None:
            parts.append(f"use_elements={self.use_elements}")
        if self.slices_to_examine is not None:
            parts.append(f"slices={self.slices_to_examine}")
        if self.estimated_cost is not None:
            parts.append(f"~{self.estimated_cost:.1f} pages")
        body = ", ".join(parts)
        head = (
            f"index({self.class_name}.{self.driving_predicate.attribute}: {body})"
        )
        if self.intersect_with is not None:
            second = self.intersect_with
            head += (
                f" ∩ index({self.class_name}.{second.predicate.attribute}: "
                f"{second.facility_name}.{second.search_mode})"
            )
        return head


def _model_kind(facility: SetAccessFacility) -> str:
    """Cost-model family for one facility: its catalog kind.

    An LSM facility carries its run format's kind, so it prices with that
    model (same F, m and object statistics as the in-place layout), which
    keeps plan strings bit-identical across the two write paths — the cost
    inputs never depend on facility state, only on the scheme and the
    class statistics.
    """
    if facility.name not in FACILITY_KINDS:
        raise PlanningError(f"unknown facility kind: {facility.name!r}")
    return facility.name


#: Distinct pricing inputs remembered per function; a constant, not a
#: setting — a few hundred small tuples cover every shape a workload asks.
_PRICE_MEMO = 1024


@lru_cache(maxsize=_PRICE_MEMO)
def _price(
    kind: str,
    F: Optional[int],
    m: Optional[int],
    mode: str,
    Dq: int,
    context: CostContext,
    page_bytes: int,
    smart: bool,
) -> Tuple[float, Optional[int], Optional[int]]:
    """(estimated pages, use_elements, slices_to_examine) for one model family.

    ``F`` and ``m`` are ``None`` for the nested index, whose model has no
    signature.
    """
    params = context.parameters(page_bytes)
    Dt = context.target_cardinality
    if kind == "ssf":
        model = SSFCostModel(params, F, m)
        if mode == "subset":
            return model.retrieval_cost_subset(Dt, Dq), None, None
        # superset also approximates equals/overlap driving cost
        return model.retrieval_cost_superset(Dt, max(Dq, 1)), None, None
    if kind == "bssf":
        model = BSSFCostModel(params, F, m)
        if mode == "subset":
            if smart:
                decision = smart_subset_bssf(model, Dt, Dq)
                return decision.cost, None, decision.parameter
            return model.retrieval_cost_subset(Dt, Dq), None, None
        if smart and mode == "superset" and Dq >= 1:
            decision = smart_superset_bssf(model, Dt, Dq)
            return decision.cost, decision.parameter, None
        return model.retrieval_cost_superset(Dt, max(Dq, 1)), None, None
    model = NIXCostModel(params, Dt)
    if mode == "subset":
        return model.retrieval_cost_subset(Dq), None, None
    if smart and mode == "superset" and Dq >= 1:
        decision = smart_superset_nix(model, Dq)
        return decision.cost, decision.parameter, None
    return model.retrieval_cost_superset(max(Dq, 1)), None, None


@lru_cache(maxsize=_PRICE_MEMO)
def _profile(
    kind: str,
    F: Optional[int],
    m: Optional[int],
    mode: str,
    Dq: int,
    context: CostContext,
    page_bytes: int,
) -> Tuple[float, float]:
    """(filter page cost, surviving fraction of N) for one naive search.

    Used by the index-intersection planner: the filter cost excludes drop
    resolution, and the fraction estimates how many of the N objects the
    search leaves as candidates (false drops + actual matches).
    """
    params = context.parameters(page_bytes)
    Dt = context.target_cardinality
    Dq = max(Dq, 1)
    N = params.num_objects
    if kind in ("ssf", "bssf"):
        if mode == "subset":
            fd = false_drop_subset(F, m, Dt, Dq)
            actual = actual_drops_subset(params, Dt, Dq)
        else:
            fd = false_drop_superset(F, m, Dt, Dq)
            actual = actual_drops_superset(params, Dt, Dq)
        fraction = min(1.0, fd + actual / N)
        if kind == "ssf":
            pages = SSFCostModel(params, F, m).signature_file_pages
        else:
            model = BSSFCostModel(params, F, m)
            weight = model.query_weight(Dq)
            slices = weight if mode != "subset" else F - weight
            pages = model.slice_pages * slices
        # signature searches resolve entry indexes → OIDs via the OID file
        pages += params.oid_lookup_cost(min(fd, 1.0), actual)
        return pages, fraction
    model = NIXCostModel(params, Dt)
    pages = float(model.lookup_cost * Dq)
    if mode == "subset":
        surviving = (
            expected_intersecting_non_subset(params, Dt, Dq)
            + actual_drops_subset(params, Dt, Dq)
        )
    else:
        surviving = actual_drops_superset(params, Dt, Dq)
    return pages, min(1.0, surviving / N)


def _signature_shape(
    facility: SetAccessFacility,
) -> Tuple[str, Optional[int], Optional[int]]:
    """(model family, F, m) — everything a price needs to know of a facility."""
    kind = _model_kind(facility)
    if kind == "nix":
        return kind, None, None
    return kind, facility.signature_bits, facility.scheme.bits_per_element


def plan_query(
    database: Database,
    query: ParsedQuery,
    context: Optional[CostContext] = None,
    prefer_facility: Optional[str] = None,
    smart: bool = True,
) -> AccessPlan:
    """Produce the cheapest plan for ``query``.

    ``prefer_facility`` forces a specific facility ("ssf" / "bssf" / "nix")
    when several index the driving attribute; ``smart=False`` disables the
    Section 5 strategies (used by the ablation benches).
    """
    class_name = query.class_name
    database.schema(class_name)  # raises for unknown classes
    if query.has_unresolved_subqueries():
        raise PlanningError(
            "query contains unresolved subqueries; execute it through "
            "QueryExecutor, which materializes them first"
        )

    candidates = []
    for position, predicate in enumerate(query.predicates):
        mode = _DRIVABLE.get(getattr(predicate, "kind", None))
        if mode is None:
            continue  # scalar predicates are residual filters only
        # read-only walk of the live map; ``indexes_on`` would copy it
        facilities = database._indexes.get((class_name, predicate.attribute), {})
        if prefer_facility is not None:
            preferred = facilities.get(prefer_facility)
            drivers = () if preferred is None else (preferred,)
        else:
            # One atomic read of the live map: a rebuild on another
            # thread may be re-registering a facility meanwhile.
            drivers = tuple(facilities.values())
        for facility in drivers:
            if mode == "overlap":
                try:
                    facility.search_overlap  # noqa: B018 — capability probe
                except AttributeError:  # pragma: no cover — all support it
                    continue
            candidates.append((position, predicate, mode, facility))

    if not candidates:
        if prefer_facility is not None:
            raise PlanningError(
                f"no {prefer_facility!r} index drives any predicate of "
                f"{query.describe()!r}"
            )
        return AccessPlan(
            class_name=class_name,
            driving_predicate=None,
            facility_name=None,
            search_mode=None,
            residual_predicates=tuple(query.predicates),
        )

    if context is None:
        # Use the database's ANALYZE cache (collected on demand, refreshed
        # when the class has drifted) rather than ad-hoc sampling.
        first_attr = candidates[0][1].attribute
        statistics = database.analyze(class_name, first_attr, refresh=False)
        context = statistics.cost_context()

    page_bytes = database.storage.page_size
    best = None
    alternatives: Dict[str, float] = {}
    for position, predicate, mode, facility in candidates:
        cost, use_elements, slices = _price(
            *_signature_shape(facility), mode, predicate.query_cardinality,
            context, page_bytes, smart,
        )
        alternatives[f"{facility.name}:{predicate.attribute}"] = cost
        if best is None or cost < best[0]:
            best = (cost, position, predicate, mode, facility, use_elements, slices)

    cost, position, predicate, mode, facility, use_elements, slices = best

    # ------------------------------------------------------------------
    # Index intersection: when two different predicates are drivable, the
    # product of their surviving fractions can shrink drop resolution far
    # below what either filter achieves alone (cost model: filter pages of
    # both legs plus Pu·N·f1·f2 resolution, assuming independence).
    # ------------------------------------------------------------------
    intersection = None
    if prefer_facility is None and len(
        {position for position, _, mode, _ in candidates if mode != "overlap"}
    ) > 1:
        params = context.parameters(page_bytes)
        resolution_rate = params.pages_per_unsuccessful * params.num_objects
        profiles: Dict[int, Tuple[float, float, SetPredicate, str, SetAccessFacility]] = {}
        for cand_position, cand_predicate, cand_mode, cand_facility in candidates:
            if cand_mode == "overlap":
                continue  # no surviving-fraction model for overlap
            pages, fraction = _profile(
                *_signature_shape(cand_facility), cand_mode,
                cand_predicate.query_cardinality, context, page_bytes,
            )
            score = pages + fraction * resolution_rate
            current = profiles.get(cand_position)
            if current is None or score < current[0] + current[1] * resolution_rate:
                profiles[cand_position] = (
                    pages, fraction, cand_predicate, cand_mode, cand_facility
                )
        positions = sorted(profiles)
        for i, first in enumerate(positions):
            for second in positions[i + 1:]:
                pages_1, fraction_1, pred_1, mode_1, fac_1 = profiles[first]
                pages_2, fraction_2, pred_2, mode_2, fac_2 = profiles[second]
                combined = (
                    pages_1 + pages_2
                    + resolution_rate * fraction_1 * fraction_2
                )
                if combined < cost and (
                    intersection is None or combined < intersection[0]
                ):
                    # stronger filter drives; weaker one intersects
                    if fraction_1 <= fraction_2:
                        legs = (pred_1, mode_1, fac_1, pred_2, mode_2, fac_2)
                    else:
                        legs = (pred_2, mode_2, fac_2, pred_1, mode_1, fac_1)
                    intersection = (combined, first, second, legs)

    if intersection is not None:
        combined, first, second, legs = intersection
        primary_pred, primary_mode, primary_fac, other_pred, other_mode, other_fac = legs
        alternatives["intersection"] = combined
        residuals = tuple(
            p for p in query.predicates if p is not primary_pred
        )
        return AccessPlan(
            class_name=class_name,
            driving_predicate=primary_pred,
            facility_name=primary_fac.name,
            search_mode=primary_mode,
            residual_predicates=residuals,
            estimated_cost=combined,
            alternatives=alternatives,
            intersect_with=SecondaryAccess(
                predicate=other_pred,
                facility_name=other_fac.name,
                search_mode=other_mode,
            ),
        )

    residuals = tuple(
        p for i, p in enumerate(query.predicates) if i != position
    )
    return AccessPlan(
        class_name=class_name,
        driving_predicate=predicate,
        facility_name=facility.name,
        search_mode=mode,
        residual_predicates=residuals,
        use_elements=use_elements,
        slices_to_examine=slices,
        estimated_cost=cost,
        alternatives=alternatives,
    )
