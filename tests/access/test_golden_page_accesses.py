"""Golden regression: logical page-access counts are frozen.

The constants below were captured from the pre-kernel (seed) implementation
on a fixed-seed workload. The paper's evaluation metric is logical page
accesses, so any implementation change — kernels, decode caches, buffer
pools — must reproduce these numbers exactly, for an uncached pool
(capacity 0, the paper's cost model) and a cached one (capacity 64), on a
cold and a warm decode cache alike. Each entry is
``[logical_reads, logical_writes, candidates, drops]`` for one search.
The ``naive`` parametrisation runs the same workload through the per-page
oracle in ``tests/reference/``, which the constants were captured from.
"""

import pytest

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.objects.oid import OID
from repro.storage.paged_file import StorageManager
from repro.workloads.generator import SetWorkloadGenerator, WorkloadSpec
from tests.reference import ReferenceBSSF, ReferenceSSF

N = 512
F = 192
M = 2
SEED = 1234

# Captured from the seed implementation (identical for pool capacity 0 and
# 64 — logical counts are independent of buffer residency by construction).
GOLDEN = {
    "bssf:superset:dq2": [5, 0, 3, 3],
    "bssf:superset:dq5": [3, 0, 0, 0],
    "bssf:superset:dq20": [4, 0, 0, 0],
    "bssf:subset:dq2": [48, 0, 0, 0],
    "bssf:subset:dq5": [49, 0, 0, 0],
    "bssf:subset:dq20": [56, 0, 0, 0],
    "bssf:overlap:dq2": [5, 0, 304, 304],
    "bssf:overlap:dq5": [11, 0, 331, 331],
    "bssf:overlap:dq20": [37, 0, 510, 510],
    "bssf:superset_smart": [3, 0, 38, 38],
    "bssf:subset_smart": [18, 0, 140, 140],
    "ssf:superset:dq2": [4, 0, 0, 0],
    "ssf:superset:dq5": [4, 0, 0, 0],
    "ssf:superset:dq20": [4, 0, 0, 0],
    "ssf:subset:dq2": [4, 0, 0, 0],
    "ssf:subset:dq5": [4, 0, 0, 0],
    "ssf:subset:dq20": [4, 0, 0, 0],
    "ssf:overlap:dq2": [5, 0, 200, 200],
    "ssf:overlap:dq5": [5, 0, 326, 326],
    "ssf:overlap:dq20": [5, 0, 510, 510],
    "ssf:superset_smart": [5, 0, 41, 41],
    "ssf:subset_smart": [5, 0, 156, 156],
}


#: parametrisation id -> (SSF class, BSSF class)
PATHS = {
    "kernels": (SequentialSignatureFile, BitSlicedSignatureFile),
    "naive": (ReferenceSSF, ReferenceBSSF),
}


def build(pool_capacity, path):
    manager = StorageManager(page_size=4096, pool_capacity=pool_capacity)
    scheme = SignatureScheme(F, M, seed=SEED)
    ssf_class, bssf_class = PATHS[path]
    ssf = ssf_class(manager, scheme, file_prefix="ssf")
    bssf = bssf_class(manager, scheme, file_prefix="bssf")
    gen = SetWorkloadGenerator(
        WorkloadSpec(
            num_objects=N, domain_cardinality=208, target_cardinality=10, seed=SEED
        )
    )
    pairs = [(s, OID(1, i)) for i, s in enumerate(gen.target_sets())]
    ssf.bulk_load(pairs)
    bssf.bulk_load(list(pairs))
    qgen = SetWorkloadGenerator(
        WorkloadSpec(
            num_objects=0, domain_cardinality=208, target_cardinality=10, seed=SEED + 1
        )
    )
    return manager, ssf, bssf, qgen


def meter(manager, op):
    """Run the search twice — cold then warm decode cache — and demand
    the logical delta be identical both times before returning it."""
    runs = []
    for _ in range(2):
        before = manager.snapshot()
        result = op()
        delta = (manager.snapshot() - before).total()
        runs.append(
            [
                delta.logical_reads,
                delta.logical_writes,
                len(result.candidates),
                result.detail.get("drops"),
            ]
        )
    assert runs[0] == runs[1], "decode-cache hit changed logical accounting"
    return runs[0]


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("pool_capacity", [0, 64], ids=["uncached", "cached"])
def test_logical_page_accesses_match_golden(pool_capacity, path):
    manager, ssf, bssf, qgen = build(pool_capacity, path)
    observed = {}
    for label, facility in (("ssf", ssf), ("bssf", bssf)):
        for mode in ("superset", "subset", "overlap"):
            for dq in (2, 5, 20):
                query = qgen.random_query_set(dq)
                search = getattr(facility, f"search_{mode}")
                observed[f"{label}:{mode}:dq{dq}"] = meter(
                    manager, lambda: search(query)
                )
        observed[f"{label}:superset_smart"] = meter(
            manager,
            lambda q=qgen.random_query_set(5): facility.search_superset(
                q, use_elements=1
            ),
        )
        observed[f"{label}:subset_smart"] = meter(
            manager,
            lambda q=qgen.random_query_set(40): facility.search_subset(
                q, slices_to_examine=17
            ),
        )
    assert observed == GOLDEN
