"""Brute-force correctness oracle: plain Python sets, no signatures.

:class:`Model` is the plain-dict model of the ``Item`` class. The
benchmark applies every write it sends to the database to the model too,
asks the model for the expected answer of every query (a linear pass
over the dict), and after a restart compares every live object with it.
Nothing here imports the program under test.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

HAS_SUBSET = "has-subset"  # T ⊇ Q
IN_SUBSET = "in-subset"  # T ⊆ Q


class Model:
    """``{oid_int: frozenset}`` plus a dense list for uniform sampling."""

    def __init__(self) -> None:
        self.sets: Dict[int, FrozenSet[int]] = {}
        self._live: List[int] = []
        self._slot: Dict[int, int] = {}

    def insert(self, oid: int, elements: Iterable[int]) -> None:
        if oid in self.sets:
            raise ValueError(f"model already holds OID {oid}")
        self.sets[oid] = frozenset(elements)
        self._slot[oid] = len(self._live)
        self._live.append(oid)

    def update(self, oid: int, elements: Iterable[int]) -> None:
        if oid not in self.sets:
            raise KeyError(oid)
        self.sets[oid] = frozenset(elements)

    def delete(self, oid: int) -> None:
        del self.sets[oid]
        slot = self._slot.pop(oid)
        last = self._live.pop()
        if last != oid:
            self._live[slot] = last
            self._slot[last] = slot

    def __len__(self) -> int:
        return len(self._live)

    def pick(self, rng) -> int:
        """A uniformly drawn live OID (the write streams draw from here)."""
        return self._live[rng.randrange(len(self._live))]

    def expected(
        self,
        kind: str,
        query: FrozenSet[int],
        owned: Optional[Iterable[int]] = None,
    ) -> List[int]:
        """Sorted OIDs the predicate selects; ``owned`` restricts to a shard."""
        oids = self.sets if owned is None else owned
        if kind == HAS_SUBSET:
            return sorted(o for o in oids if query <= self.sets[o])
        if kind == IN_SUBSET:
            return sorted(o for o in oids if self.sets[o] <= query)
        raise ValueError(f"unknown predicate kind {kind!r}")


def rows_match(
    rows: Iterable[Tuple[object, dict]],
    expected: List[int],
    model: Model,
    attribute: str,
) -> bool:
    """True when ``rows`` are exactly the expected objects with model values."""
    got = sorted(
        ((oid.to_int(), values) for oid, values in rows), key=lambda r: r[0]
    )
    if [oid for oid, _ in got] != expected:
        return False
    return all(
        frozenset(values[attribute]) == model.sets[oid] for oid, values in got
    )


def readback_mismatches(model: Model, fetch, attribute: str) -> int:
    """Read every live OID back through ``fetch(oid_int)``; count differences.

    ``fetch`` returns the stored attribute dict or raises; a raise counts
    as a mismatch, as does a stored set that differs from the model's.
    """
    wrong = 0
    for oid, elements in model.sets.items():
        try:
            values = fetch(oid)
        except Exception:  # noqa: BLE001 — any failure to read is a mismatch
            wrong += 1
            continue
        if frozenset(values[attribute]) != elements:
            wrong += 1
    return wrong
