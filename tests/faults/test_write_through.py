"""Faults in the middle of an insert, with the decode caches warm.

Write-through patches a cached payload only *after* the facility's last
page write has succeeded, and the file version stays the only validity
test. So a crash after ``k`` of an insert's ``m·Dt`` slice writes must leave
the payload keyed at a version the files have left (the next search decodes
what is really on the pages), and a transient fault the pool retries must
not be noticed at all. Either way the next search answers exactly what the
per-page oracle reads from the same files.
"""

from __future__ import annotations

import pytest

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.errors import SimulatedCrashError, TransientIOError
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.storage import FaultRule
from repro.storage.paged_file import StorageManager
from tests.reference import ReferenceBSSF, ReferenceOIDFile, ReferenceSSF

SETS = [frozenset({i % 9, (i * 4) % 9, (i * 7) % 9}) for i in range(40)]
NEW_SET = frozenset({1, 4, 8})
QUERIES = [frozenset({1}), frozenset({4, 8}), NEW_SET, frozenset(range(9))]

KINDS = {
    "ssf": (SequentialSignatureFile, ReferenceSSF, "ssf:signatures"),
    "bssf": (BitSlicedSignatureFile, ReferenceBSSF, "bssf:slice:*"),
}


def warm_facility(kind: str):
    facility_class, _, _ = KINDS[kind]
    manager = StorageManager(page_size=64, pool_capacity=0)
    scheme = SignatureScheme(48, 2, seed=5)
    facility = facility_class(manager, scheme)
    facility.bulk_load([(elements, OID(1, i)) for i, elements in enumerate(SETS)])
    for query in QUERIES:  # decode everything the searches below will use
        facility.search_superset(query)
        facility.search_subset(query)
    return facility, manager, scheme


def signature_writes(kind: str) -> int:
    """Device writes one ``insert(NEW_SET)`` makes to the signature pages."""
    facility, manager, _ = warm_facility(kind)
    injector = manager.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=KINDS[kind][2], at_call=10**9)]
    )
    facility.insert(NEW_SET, OID(1, len(SETS)))
    return injector.rule_calls(0)


def answers(facility):
    out = []
    for query in QUERIES:
        for search in (facility.search_superset, facility.search_subset):
            result = search(query)
            out.append((result.candidates, result.detail))
    return out


def oracle_over(kind: str, facility, manager, scheme):
    """The per-page oracle attached to the very files ``facility`` wrote.

    Attach it only after the shipped facility has answered: attaching a
    BSSF re-registers its version group, which invalidates decode caches.
    """
    oracle = KINDS[kind][1].attach(
        manager, scheme, file_prefix=kind, entry_count=facility.entry_count
    )
    oracle.oid_file = ReferenceOIDFile(oracle.oid_file.file, facility.entry_count)
    return oracle


#: k signature writes land before the fault; "last" is all but one of them.
#: (SSF makes two here, the page append and the signature; BSSF one per 1-bit.)
FAULT_POINTS = [("ssf", 0), ("ssf", "last"), ("bssf", 0), ("bssf", 1), ("bssf", "last")]


def resolve(kind: str, k) -> int:
    writes = signature_writes(kind)
    assert writes >= (2 if kind == "ssf" else 4)
    return writes - 1 if k == "last" else k


@pytest.mark.parametrize("kind,k", FAULT_POINTS)
def test_crash_after_k_signature_writes(kind, k):
    k = resolve(kind, k)
    facility, manager, scheme = warm_facility(kind)
    misses = facility.decode_cache_stats()["misses"]
    manager.attach_fault_injector(
        rules=[FaultRule("write", "crash", file=KINDS[kind][2], at_call=k + 1)]
    )
    with pytest.raises(SimulatedCrashError):
        facility.insert(NEW_SET, OID(1, len(SETS)))
    manager.detach_fault_injector()
    # the OID entry landed, k signature writes landed, the rest did not
    assert facility.entry_count == len(SETS) + 1
    observed = answers(facility)
    assert facility.decode_cache_stats()["misses"] == misses + 1  # decoded afresh
    assert observed == answers(oracle_over(kind, facility, manager, scheme))


@pytest.mark.parametrize("kind,k", FAULT_POINTS)
def test_retried_transient_fault_after_k_signature_writes(kind, k):
    k = resolve(kind, k)
    facility, manager, scheme = warm_facility(kind)
    misses = facility.decode_cache_stats()["misses"]
    manager.attach_fault_injector(
        rules=[
            FaultRule(
                "write", "transient", file=KINDS[kind][2], at_call=k + 1, count=2
            )
        ]
    )
    facility.insert(NEW_SET, OID(1, len(SETS)))  # the pool's third attempt lands
    manager.detach_fault_injector()
    assert REGISTRY.counter("storage.retries").value == 2
    observed = answers(facility)
    assert facility.decode_cache_stats()["misses"] == misses  # still written through
    assert observed == answers(oracle_over(kind, facility, manager, scheme))
    assert OID(1, len(SETS)) in observed[QUERIES.index(NEW_SET) * 2][0]


@pytest.mark.parametrize("kind", list(KINDS))
def test_exhausted_retries_fall_back_to_a_fresh_decode(kind):
    """Same as the crash, but the process lives on and keeps the facility."""
    facility, manager, scheme = warm_facility(kind)
    manager.attach_fault_injector(
        rules=[FaultRule("write", "transient", file=KINDS[kind][2], count=3)]
    )
    with pytest.raises(TransientIOError):
        facility.insert(NEW_SET, OID(1, len(SETS)))
    manager.detach_fault_injector()
    observed = answers(facility)
    assert observed == answers(oracle_over(kind, facility, manager, scheme))
