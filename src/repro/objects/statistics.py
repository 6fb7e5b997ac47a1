"""Workload statistics collection (ANALYZE).

The Section 4 cost model needs three numbers per indexed path — N objects,
domain cardinality V, target cardinality Dt — and the §6 variable-Dt
extension needs the full Dt distribution. ``analyze`` computes all of them
with one scan, and ``Database`` caches the result so the planner can use
real statistics without the caller threading a
:class:`~repro.query.planner.CostContext` through every query.

Statistics are a snapshot: they go stale as the class mutates. ``analyze``
records the class's object count at collection time, and
``AttributeStatistics.staleness`` reports the relative drift so callers
can decide when to re-analyze (the Database facade re-analyzes
automatically past ``REANALYZE_DRIFT``).

A scan is only ever the *first* collection of a path. It leaves behind
:class:`RunningAggregates` — a cardinality histogram and per-element
reference counts — which every write through ``Database._mutate`` keeps
current (the facade's insert/update/delete, and WAL replay, a replica's
included), so a drift refresh reads the same numbers off the aggregates
in O(histogram). The aggregates are trusted only while the mutations
they have followed equal the store's own mutation count; a write that
went around the facade (a test poking the store) makes the next refresh
scan again and re-seed them.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Hashable, Iterable, Optional

from repro.costmodel.variable import CardinalityDistribution
from repro.errors import ObjectStoreError

#: relative object-count drift beyond which cached statistics are re-collected
REANALYZE_DRIFT = 0.25


@dataclass(frozen=True)
class AttributeStatistics:
    """Collected statistics for one set-attribute path."""

    class_name: str
    attribute: str
    num_objects: int
    distinct_elements: int
    mean_cardinality: float
    min_cardinality: int
    max_cardinality: int
    distribution: CardinalityDistribution
    collected_at_count: int
    collected_at_mutations: int = 0

    @property
    def target_cardinality(self) -> int:
        """Dt for the fixed-cardinality model: the rounded mean (>= 1)."""
        return max(1, round(self.mean_cardinality))

    @property
    def is_fixed_cardinality(self) -> bool:
        return self.min_cardinality == self.max_cardinality

    def staleness(
        self, current_count: int, current_mutations: Optional[int] = None
    ) -> float:
        """Relative drift since collection.

        The object-count term alone misses churn that nets zero — delete an
        OID and re-insert it explicitly (run-merge replay, shard loading)
        and the live count is unchanged while the attribute distribution
        may have shifted arbitrarily. When ``current_mutations`` is given,
        the monotonic mutation counter contributes a second term measured
        against the same baseline, so such churn still triggers
        re-analysis.
        """
        baseline = max(self.collected_at_count, 1)
        drift = abs(current_count - self.collected_at_count) / baseline
        if current_mutations is not None:
            churn = (
                current_mutations - self.collected_at_mutations
            ) / baseline
            drift = max(drift, churn)
        return drift

    def cost_context(self):
        """The planner-facing view of these statistics."""
        from repro.query.planner import CostContext

        return CostContext(
            num_objects=self.num_objects,
            domain_cardinality=max(self.distinct_elements, self.target_cardinality),
            target_cardinality=self.target_cardinality,
        )


#: ``RunningAggregates.followed`` once the aggregates have missed a mutation:
#: no mutation count equals it, so nothing trusts them again.
_LOST = -1


class RunningAggregates:
    """What one path's statistics are computed from, kept as running counts."""

    __slots__ = ("attribute", "sizes", "elements", "followed")

    def __init__(
        self,
        attribute: str,
        sizes: Dict[int, int],
        elements: Dict[Hashable, int],
        followed: int,
    ) -> None:
        self.attribute = attribute
        #: set cardinality -> live objects whose set has it
        self.sizes = sizes
        #: element -> live objects whose set holds it
        self.elements = elements
        #: the store's mutation count as of the last change applied here
        self.followed = followed

    def add(self, size: int, elements: Iterable[Hashable]) -> None:
        """Count in an object whose set has ``size``, crediting ``elements``."""
        sizes, counts = self.sizes, self.elements
        sizes[size] = sizes.get(size, 0) + 1
        for element in elements:
            if element != element:
                # A NaN: a scan would count its decoded copy apart from
                # every other, which one shared key here cannot.
                raise KeyError(element)
            counts[element] = counts.get(element, 0) + 1

    def remove(self, size: int, elements: Iterable[Hashable]) -> None:
        """Count out an object whose set had ``size``, debiting ``elements``."""
        sizes, counts = self.sizes, self.elements
        if sizes[size] == 1:
            del sizes[size]
        else:
            sizes[size] -= 1
        for element in elements:
            count = counts[element] - 1
            if count:
                counts[element] = count
            else:
                del counts[element]

    def snapshot(self, class_name: str) -> AttributeStatistics:
        """The statistics a scan would collect right now, in O(histogram)."""
        sizes = self.sizes
        live = sum(sizes.values())
        if live:
            distribution = CardinalityDistribution(
                {size: count / live for size, count in sorted(sizes.items())}
            )
            mean = sum(size * count for size, count in sizes.items()) / live
            low, high = min(sizes), max(sizes)
        else:
            distribution = CardinalityDistribution.fixed(1)
            mean, low, high = 1.0, 1, 1
        return AttributeStatistics(
            class_name=class_name,
            attribute=self.attribute,
            num_objects=max(live, 1),
            distinct_elements=max(len(self.elements), 1),
            mean_cardinality=mean,
            min_cardinality=low,
            max_cardinality=high,
            distribution=distribution,
            collected_at_count=live,
            collected_at_mutations=self.followed,
        )


def _scan(objects, class_name: str, attribute: str) -> RunningAggregates:
    """Seed one path's aggregates from a full scan of its class.

    ``objects`` is an :class:`~repro.objects.object_store.ObjectStore`.
    Raises for unknown classes/attributes and for scalar attributes.
    """
    schema = objects.schema(class_name)
    attr = schema.attribute(attribute)
    if not attr.is_set:
        raise ObjectStoreError(
            f"cannot analyze scalar attribute {class_name}.{attribute}"
        )
    followed = _mutations_of(objects, class_name)
    sets = [values[attribute] for _, values in objects.scan(class_name)]
    return RunningAggregates(
        attribute,
        dict(Counter(map(len, sets))),
        dict(Counter(chain.from_iterable(sets))),
        followed,
    )


def analyze(objects, class_name: str, attribute: str) -> AttributeStatistics:
    """Scan a class and collect set-attribute statistics.

    An empty class yields degenerate-but-usable statistics (N = 0 upgraded
    to 1 in the cost context to keep the model's divisions defined).
    """
    return _scan(objects, class_name, attribute).snapshot(class_name)


def _mutations_of(objects, class_name: str) -> int:
    counter = getattr(objects, "mutation_count", None)
    return counter(class_name) if counter is not None else 0


class StatisticsCache:
    """Per-path statistics with drift-based invalidation."""

    def __init__(self) -> None:
        self._stats: Dict[tuple, AttributeStatistics] = {}
        #: class name -> attribute -> the aggregates of that analysed path
        self._aggregates: Dict[str, Dict[str, RunningAggregates]] = {}
        # Readers collect under the shared read scope: one collects while
        # the rest wait and take what it stored, so a path is scanned once.
        self._collecting = threading.Lock()

    def current(
        self, objects, class_name: str, attribute: str
    ) -> Optional[AttributeStatistics]:
        """The cached statistics if they are within drift, else ``None``."""
        cached = self._stats.get((class_name, attribute))
        if cached is None or cached.staleness(
            objects.count(class_name), _mutations_of(objects, class_name)
        ) > REANALYZE_DRIFT:
            return None
        return cached

    def get(
        self, objects, class_name: str, attribute: str,
        refresh: bool = False,
    ) -> AttributeStatistics:
        """Statistics within drift, collected now if there are none.

        A collection reads the path's aggregates, scanning to (re-)seed
        them first unless they have followed every mutation of the class.
        It must not overlap a write to the class: the facade takes its
        read scope around this call. Concurrent readers collect one at a
        time, each checking what the one before it stored, so a path that
        has no statistics is scanned once, not once per reader.
        """
        with self._collecting:
            cached = None if refresh else self.current(objects, class_name, attribute)
            if cached is None:
                paths = self._aggregates.setdefault(class_name, {})
                aggregates = paths.get(attribute)
                if aggregates is None or aggregates.followed != _mutations_of(
                    objects, class_name
                ):
                    aggregates = paths[attribute] = _scan(
                        objects, class_name, attribute
                    )
                cached = aggregates.snapshot(class_name)
                self._stats[(class_name, attribute)] = cached
            return cached

    def record(
        self,
        objects,
        class_name: str,
        old: Optional[Dict[str, Any]],
        new: Optional[Dict[str, Any]],
    ) -> None:
        """Follow the mutation ``objects`` just counted: ``old`` out, ``new`` in.

        Called by the facade's write path (``Database._mutate``: its
        mutators under their write scope, and WAL replay), once per store
        mutation (an insert has no ``old``, a delete no ``new``).
        Aggregates that are not exactly one mutation behind missed a write
        that went around the facade: they are marked lost, and the next
        refresh scans in their place.
        """
        paths = self._aggregates.get(class_name)
        if not paths:
            return
        mutations = _mutations_of(objects, class_name)
        for attribute, aggregates in paths.items():
            followed = _LOST
            if aggregates.followed + 1 == mutations:
                before = None if old is None else old[attribute]
                after = None if new is None else new[attribute]
                try:
                    if before is None:
                        aggregates.add(len(after), after)
                    elif after is None:
                        aggregates.remove(len(before), before)
                    elif before.isdisjoint(after):
                        aggregates.remove(len(before), before)
                        aggregates.add(len(after), after)
                    elif before != after:
                        # only what the update changed: an element in
                        # both sets keeps its count
                        aggregates.remove(len(before), before - after)
                        aggregates.add(len(after), after - before)
                    followed = mutations
                except KeyError:
                    # An element that does not equal its stored copy (a
                    # NaN): the counts cannot follow it.
                    pass
            aggregates.followed = followed

    def peek(self, class_name: str, attribute: str) -> Optional[AttributeStatistics]:
        return self._stats.get((class_name, attribute))

    def invalidate(self, class_name: Optional[str] = None) -> None:
        if class_name is None:
            self._stats.clear()
            self._aggregates.clear()
            return
        doomed = [key for key in self._stats if key[0] == class_name]
        for key in doomed:
            del self._stats[key]
        self._aggregates.pop(class_name, None)
