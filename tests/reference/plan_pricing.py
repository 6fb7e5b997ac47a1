"""Plan pricing as it was before the memo: every plan re-derives every constant.

``reference_facility_cost`` and ``reference_filter_profile`` build a
``CostParameters`` and a cost model on every call, and
``reference_plan_query`` calls them for every candidate of every plan —
the intersection profiles included, even for a query with one predicate.
They are the oracle ``tests/query/test_plan_oracle.py`` holds
:func:`repro.query.planner.plan_query` to: ``AccessPlan ==`` with
``alternatives`` and ``estimated_cost`` bit for bit, on a cold memo and a
warm one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.access.base import SetAccessFacility
from repro.costmodel.bssf_model import BSSFCostModel
from repro.costmodel.nix_model import NIXCostModel
from repro.costmodel.smart import (
    smart_subset_bssf,
    smart_superset_bssf,
    smart_superset_nix,
)
from repro.costmodel.ssf_model import SSFCostModel
from repro.errors import PlanningError
from repro.objects.database import Database
from repro.query.parser import ParsedQuery
from repro.query.planner import (
    _DRIVABLE,
    AccessPlan,
    CostContext,
    SecondaryAccess,
    _model_kind,
)
from repro.query.predicates import SetPredicate


def reference_facility_cost(
    facility: SetAccessFacility,
    mode: str,
    predicate: SetPredicate,
    context: CostContext,
    page_bytes: int,
    smart: bool,
) -> Tuple[float, Optional[int], Optional[int]]:
    """(estimated pages, use_elements, slices_to_examine) for one facility."""
    params = context.parameters(page_bytes)
    Dt = context.target_cardinality
    Dq = predicate.query_cardinality
    kind = _model_kind(facility)
    if kind == "ssf":
        model = SSFCostModel(
            params, facility.signature_bits, facility.scheme.bits_per_element
        )
        if mode == "subset":
            return model.retrieval_cost_subset(Dt, Dq), None, None
        # superset also approximates equals/overlap driving cost
        return model.retrieval_cost_superset(Dt, max(Dq, 1)), None, None
    if kind == "bssf":
        model = BSSFCostModel(
            params, facility.signature_bits, facility.scheme.bits_per_element
        )
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


def reference_filter_profile(
    facility: SetAccessFacility,
    mode: str,
    predicate: SetPredicate,
    context: CostContext,
    page_bytes: int,
) -> Tuple[float, float]:
    """(filter page cost, surviving fraction of N) for one naive search.

    Used by the index-intersection planner: the filter cost excludes drop
    resolution, and the fraction estimates how many of the N objects the
    search leaves as candidates (false drops + actual matches).
    """
    from repro.core.false_drop import false_drop_subset, false_drop_superset
    from repro.costmodel.actual_drop import (
        actual_drops_subset,
        actual_drops_superset,
        expected_intersecting_non_subset,
    )

    params = context.parameters(page_bytes)
    Dt = context.target_cardinality
    Dq = max(predicate.query_cardinality, 1)
    N = params.num_objects
    kind = _model_kind(facility)
    if kind in ("ssf", "bssf"):
        F = facility.signature_bits
        m = facility.scheme.bits_per_element
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


def reference_plan_query(
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
        facilities = database.indexes_on(class_name, predicate.attribute)
        if prefer_facility is not None:
            facilities = {
                name: f for name, f in facilities.items() if name == prefer_facility
            }
        for facility in facilities.values():
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

    best = None
    alternatives: Dict[str, float] = {}
    for position, predicate, mode, facility in candidates:
        cost, use_elements, slices = reference_facility_cost(
            facility, mode, predicate, context, database.storage.page_size, smart
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
    if prefer_facility is None:
        params = context.parameters(database.storage.page_size)
        resolution_rate = params.pages_per_unsuccessful * params.num_objects
        profiles: Dict[int, Tuple[float, float, SetPredicate, str, SetAccessFacility]] = {}
        for cand_position, cand_predicate, cand_mode, cand_facility in candidates:
            if cand_mode == "overlap":
                continue  # no surviving-fraction model for overlap
            pages, fraction = reference_filter_profile(
                cand_facility, cand_mode, cand_predicate, context,
                database.storage.page_size,
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
