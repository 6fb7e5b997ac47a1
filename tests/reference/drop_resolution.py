"""Drop resolution one candidate at a time: the executor's loop before
``ObjectStore.resolve``.

Each candidate is fetched on its own — one ``read_page`` and one decode,
the paper's one object-page access per drop — and every predicate is
tested on the values it decoded to. :class:`ReferenceObjectStore` answers
``resolve`` with that loop, so a database whose store is switched to it
(:func:`use_reference`) runs the executor's index plans, intersections,
scans and degraded scans against the oracle. It reads no decode cache.
"""

from repro.objects.object_store import ObjectStore
from repro.objects.oid import OID


def resolve_one_at_a_time(store: ObjectStore, words, predicates) -> list:
    rows = []
    for word in words:
        oid = OID.from_int(int(word))
        values = store.fetch(oid)
        if all(predicate.matches(values) for predicate in predicates):
            rows.append((oid, values))
    return rows


class ReferenceObjectStore(ObjectStore):
    """:class:`ObjectStore` whose drop resolution is the per-candidate loop."""

    def resolve(self, words, predicates) -> list:
        return resolve_one_at_a_time(self, words, predicates)


def use_reference(db) -> None:
    """Make ``db``'s object store resolve drops one candidate at a time."""
    db.objects.__class__ = ReferenceObjectStore
