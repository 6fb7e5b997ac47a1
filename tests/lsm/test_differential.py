"""Differential harness: LSM vs in-place vs model, under random interleavings.

The equivalence claim is strong — bit-identical candidate lists (order
included), identical exact flags, identical false-drop sets — and it must
hold at *every* point of an arbitrary interleaving of inserts, updates,
deletes, queries, flushes and compactions. Fixed-seed sequences pin a few
interesting shapes; the Hypothesis suite then drives 200+ random op
programs per facility kind against a plain-dict model.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.lsm.conftest import (
    DOMAIN,
    SAMPLE_QUERIES,
    PairedWorkload,
    run_random_ops,
)

KINDS = ["ssf", "bssf"]


def verify_decodes(*workloads: PairedWorkload) -> None:
    """The engine's own check of every decode both facilities hold."""
    for paired in workloads:
        paired.reference.verify_decodes()
        paired.subject.verify_decodes()


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_seed_interleavings(kind):
    for seed in (1, 2, 3):
        paired = PairedWorkload(kind)
        for checkpoint in range(4):
            run_random_ops(paired, 30, seed * 100 + checkpoint)
            paired.assert_equivalent(SAMPLE_QUERIES)
        paired.subject.verify()
        verify_decodes(paired)


@pytest.mark.parametrize("kind", KINDS)
def test_updates_shadow_across_many_runs(kind):
    """One OID rewritten every generation: only the newest version answers."""
    paired = PairedWorkload(kind, flush_threshold=2)
    hot = paired.insert([DOMAIN[0]])
    for i in range(1, 10):
        paired.insert([DOMAIN[i % len(DOMAIN)]])
        paired.update(hot, [DOMAIN[i], DOMAIN[(i + 1) % len(DOMAIN)]])
    paired.assert_equivalent(SAMPLE_QUERIES)
    # the hot OID appears exactly once in a full scan
    result = paired.subject.search_superset(frozenset())
    assert result.candidates.count(hot) == 1
    verify_decodes(paired)


@pytest.mark.parametrize("kind", KINDS)
def test_delete_heavy_interleaving(kind):
    paired = PairedWorkload(kind, flush_threshold=3)
    oids = [paired.insert([DOMAIN[i % 8]]) for i in range(12)]
    rng = random.Random(5)
    for oid in rng.sample(oids, 9):
        paired.delete(oid)
        paired.flush()
    paired.compact()
    paired.assert_equivalent(SAMPLE_QUERIES)
    paired.subject.verify()
    verify_decodes(paired)


def _interpret(paired: PairedWorkload, program) -> None:
    """Map draw integers onto valid ops over the current live set."""
    rng = random.Random(1234)
    for code in program:
        live = paired.live_oids()
        kind = code % 6 if live else 0
        elements = rng.sample(DOMAIN, 1 + code % 4)
        if kind in (0, 1):
            paired.insert(elements)
        elif kind == 2:
            paired.update(live[code % len(live)], elements)
        elif kind == 3:
            paired.delete(live[code % len(live)])
        elif kind == 4:
            paired.flush()
        else:
            paired.compact()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(program=st.lists(st.integers(min_value=0, max_value=10**6),
                        min_size=1, max_size=25))
def test_property_random_programs(kind, program):
    """Rows and false-drop sets always match the naive reference."""
    paired = PairedWorkload(kind)
    _interpret(paired, program)
    paired.assert_equivalent(SAMPLE_QUERIES)
    paired.subject.verify()
    verify_decodes(paired)


@settings(max_examples=40, deadline=None)
@given(
    program=st.lists(st.integers(min_value=0, max_value=10**6),
                     min_size=5, max_size=40),
    flush_threshold=st.integers(min_value=1, max_value=6),
    fanout=st.integers(min_value=2, max_value=4),
)
def test_property_layout_parameters_never_change_answers(
    program, flush_threshold, fanout
):
    """flush_threshold and fanout are pure layout knobs."""
    baseline = PairedWorkload("ssf", flush_threshold=10**9)
    subject = PairedWorkload("ssf", flush_threshold=flush_threshold,
                             fanout=fanout)
    _interpret(baseline, program)
    _interpret(subject, program)
    for query in SAMPLE_QUERIES:
        for mode in ("superset", "subset", "overlap"):
            assert (
                getattr(baseline.subject, f"search_{mode}")(query).candidates
                == getattr(subject.subject, f"search_{mode}")(query).candidates
            )
    subject.subject.verify()
    verify_decodes(baseline, subject)
