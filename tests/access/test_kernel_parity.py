"""Shipped SSF/BSSF vs the per-page oracle in ``tests/reference/``.

The packed-word facilities must be observationally identical to the
per-entry/per-bit reference implementations run over a twin
``StorageManager``: same candidates, same result detail (including
``slices_read`` early-exit points), and bit-identical logical *and*
physical page-access accounting — the paper's metric must not know which
implementation ran. The property tests also cross-check both against the
plain :class:`BitVector`-semantics drop conditions of §3.1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.bssf import BitSlicedSignatureFile
from repro.access.oid_file import OIDFile
from repro.access.ssf import SequentialSignatureFile
from repro.core.signature import SignatureScheme
from repro.lsm.facility import LSMSignatureFacility
from repro.lsm.run import SignatureRun
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.storage.paged_file import StorageManager
from tests.reference import ReferenceBSSF, ReferenceSSF

DOMAIN = list(range(24))

sets_strategy = st.lists(
    st.frozensets(st.sampled_from(DOMAIN), max_size=6), max_size=24
)
query_strategy = st.frozensets(st.sampled_from(DOMAIN), max_size=8)
# 70 and 200 exercise the non-multiple-of-64 tail-mask edge.
f_strategy = st.sampled_from([70, 128, 200])


def build_pair(classes, sets, F, m, capacity, use_bulk, page_size=128):
    """The same entries twice: shipped facility, then its oracle on a twin."""
    out = []
    for facility_class in classes:
        manager = StorageManager(page_size=page_size, pool_capacity=capacity)
        scheme = SignatureScheme(F, m, seed=7)
        facility = facility_class(manager, scheme)
        pairs = [(elements, OID(1, i)) for i, elements in enumerate(sets)]
        if use_bulk:
            facility.bulk_load(pairs)
        else:
            for elements, oid in pairs:
                facility.insert(elements, oid)
        out.append((facility, manager))
    (_, fast_mgr), (_, twin_mgr) = out
    assert page_images(fast_mgr) == page_images(twin_mgr)
    # The build charged the same page traffic and left the same pool state.
    assert fast_mgr.snapshot() == twin_mgr.snapshot()
    assert (fast_mgr.pool.hits, fast_mgr.pool.misses) == (
        twin_mgr.pool.hits, twin_mgr.pool.misses
    )
    return out


def page_images(manager):
    """Every page of every file, read without accounting."""
    files = [manager.open_file(name) for name in manager.store.file_names()]
    return {
        file.name: [
            bytes(file.peek_page(page_no).data)
            for page_no in range(file.num_pages)
        ]
        for file in files
    }


SSF_PAIR = (SequentialSignatureFile, ReferenceSSF)
BSSF_PAIR = (BitSlicedSignatureFile, ReferenceBSSF)


def metered(manager, op):
    before_pool = (manager.pool.hits, manager.pool.misses)
    before = manager.snapshot()
    result = op()
    delta = manager.snapshot() - before
    pool_delta = (
        manager.pool.hits - before_pool[0],
        manager.pool.misses - before_pool[1],
    )
    return result, delta, pool_delta


def assert_same_behavior(fast_pair, naive_pair, op_name, *args, **kwargs):
    """Run one search twice on both paths and compare round by round.

    The second round hits the fast path's decode cache (and, in cached-pool
    mode, a warm buffer pool on both paths); every round must agree on
    results, logical/physical I/O deltas, and pool hit/miss deltas.
    """
    (fast, fast_mgr), (naive, naive_mgr) = fast_pair, naive_pair
    for _ in range(2):
        n_result, n_delta, n_pool = metered(
            naive_mgr, lambda: getattr(naive, op_name)(*args, **kwargs)
        )
        f_result, f_delta, f_pool = metered(
            fast_mgr, lambda: getattr(fast, op_name)(*args, **kwargs)
        )
        assert f_result.candidates == n_result.candidates
        assert f_result.exact == n_result.exact
        assert f_result.detail == n_result.detail
        assert f_delta == n_delta
        assert f_pool == n_pool
    return n_result


class TestBSSFParity:
    @settings(max_examples=30, deadline=None)
    @given(
        sets=sets_strategy,
        query=query_strategy,
        F=f_strategy,
        m=st.integers(1, 3),
        capacity=st.sampled_from([0, 3]),
        use_bulk=st.booleans(),
    )
    def test_all_modes_match_naive_and_bitvector_reference(
        self, sets, query, F, m, capacity, use_bulk
    ):
        fast_pair, naive_pair = build_pair(
            BSSF_PAIR, sets, F, m, capacity, use_bulk
        )
        scheme = SignatureScheme(F, m, seed=7)
        target_sigs = [scheme.set_signature(s) for s in sets]
        query_sig = scheme.set_signature(query)

        result = assert_same_behavior(fast_pair, naive_pair, "search_superset", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if scheme.is_drop_superset(sig, query_sig)
            ]
            assert result.candidates == expected

        result = assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if scheme.is_drop_subset(sig, query_sig)
            ]
            assert result.candidates == expected

        result = assert_same_behavior(fast_pair, naive_pair, "search_overlap", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if not sig.is_zero() and sig.intersects(query_sig)
            ]
            assert result.candidates == expected

    @settings(max_examples=20, deadline=None)
    @given(
        sets=sets_strategy,
        query=query_strategy,
        F=f_strategy,
        k=st.integers(0, 205),
        use_elements=st.integers(1, 4),
    )
    def test_smart_strategies_match_naive(self, sets, query, F, k, use_elements):
        fast_pair, naive_pair = build_pair(
            BSSF_PAIR, sets, F, 2, capacity=0, use_bulk=True
        )
        if query:
            assert_same_behavior(
                fast_pair,
                naive_pair,
                "search_superset",
                query,
                use_elements=use_elements,
            )
        assert_same_behavior(
            fast_pair,
            naive_pair,
            "search_subset",
            query,
            slices_to_examine=min(k, F),
        )

    def test_insert_invalidates_decode_cache(self):
        """A write between searches must be visible — and charged — on both
        paths identically."""
        sets = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5})]
        fast_pair, naive_pair = build_pair(
            BSSF_PAIR, sets, 128, 2, capacity=0, use_bulk=False
        )
        query = frozenset({1, 2, 5})
        assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        for facility, _ in (fast_pair, naive_pair):
            facility.insert(frozenset({1, 5}), OID(1, 99))
        assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        assert_same_behavior(fast_pair, naive_pair, "search_superset", query)

    def test_delete_tombstones_match(self):
        sets = [frozenset({1}), frozenset({1, 2}), frozenset({2})]
        fast_pair, naive_pair = build_pair(
            BSSF_PAIR, sets, 70, 2, capacity=0, use_bulk=True
        )
        for facility, _ in (fast_pair, naive_pair):
            facility.delete(frozenset({1, 2}), OID(1, 1))
        result = assert_same_behavior(
            fast_pair, naive_pair, "search_superset", frozenset({1})
        )
        assert OID(1, 1) not in result.candidates

    def test_multipage_slices_match(self):
        """Entry counts past one slice page (page_size 16 → 128 entries/page)."""
        sets = [frozenset({i % 11, (i * 7) % 11}) for i in range(300)]
        fast_pair, naive_pair = build_pair(
            BSSF_PAIR, sets, 70, 2, capacity=0, use_bulk=True, page_size=16
        )
        assert fast_pair[0].slice_pages == 3
        for query in (frozenset({3}), frozenset({1, 4, 9}), frozenset(range(11))):
            assert_same_behavior(fast_pair, naive_pair, "search_superset", query)
            assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
            assert_same_behavior(fast_pair, naive_pair, "search_overlap", query)
        (fast, fast_mgr), (naive, naive_mgr) = fast_pair, naive_pair
        for position in (0, 17, 69):
            for _ in range(2):
                n_bits, n_delta, n_pool = metered(
                    naive_mgr, lambda: naive.read_slice(position)
                )
                f_bits, f_delta, f_pool = metered(
                    fast_mgr, lambda: fast.read_slice(position)
                )
                assert f_bits.tolist() == n_bits.tolist()
                assert (f_delta, f_pool) == (n_delta, n_pool)


class TestSSFParity:
    @settings(max_examples=30, deadline=None)
    @given(
        sets=sets_strategy,
        query=query_strategy,
        F=f_strategy,
        m=st.integers(1, 3),
        capacity=st.sampled_from([0, 3]),
        use_bulk=st.booleans(),
    )
    def test_all_modes_match_naive_and_bitvector_reference(
        self, sets, query, F, m, capacity, use_bulk
    ):
        fast_pair, naive_pair = build_pair(
            SSF_PAIR, sets, F, m, capacity, use_bulk
        )
        scheme = SignatureScheme(F, m, seed=7)
        target_sigs = [scheme.set_signature(s) for s in sets]
        query_sig = scheme.set_signature(query)

        result = assert_same_behavior(fast_pair, naive_pair, "search_superset", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if scheme.is_drop_superset(sig, query_sig)
            ]
            assert result.candidates == expected

        result = assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if scheme.is_drop_subset(sig, query_sig)
            ]
            assert result.candidates == expected

        result = assert_same_behavior(fast_pair, naive_pair, "search_overlap", query)
        if query:
            expected = [
                OID(1, i)
                for i, sig in enumerate(target_sigs)
                if not sig.is_zero() and sig.intersects(query_sig)
            ]
            assert result.candidates == expected

    @settings(max_examples=15, deadline=None)
    @given(
        sets=sets_strategy,
        query=query_strategy.filter(bool),
        k=st.integers(0, 70),
        use_elements=st.integers(1, 4),
    )
    def test_smart_strategies_match_naive(self, sets, query, k, use_elements):
        fast_pair, naive_pair = build_pair(
            SSF_PAIR, sets, 70, 2, capacity=0, use_bulk=True
        )
        assert_same_behavior(
            fast_pair, naive_pair, "search_superset", query, use_elements=use_elements
        )
        assert_same_behavior(
            fast_pair, naive_pair, "search_subset", query, slices_to_examine=k
        )

    def test_insert_invalidates_decode_cache(self):
        sets = [frozenset({1, 2}), frozenset({3})]
        fast_pair, naive_pair = build_pair(
            SSF_PAIR, sets, 128, 2, capacity=0, use_bulk=False
        )
        query = frozenset({1, 2, 3})
        assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        for facility, _ in (fast_pair, naive_pair):
            facility.insert(frozenset({2, 3}), OID(1, 50))
        assert_same_behavior(fast_pair, naive_pair, "search_subset", query)
        assert_same_behavior(fast_pair, naive_pair, "search_overlap", query)


def decode_cache_traffic():
    return tuple(
        REGISTRY.counter(f"storage.decode_cache.{outcome}").value
        for outcome in ("hits", "misses")
    )


class TestOracleIsNotTheKernelPath:
    """The comparisons above mean nothing if both sides run the same code."""

    @pytest.mark.parametrize("classes", [SSF_PAIR, BSSF_PAIR], ids=["ssf", "bssf"])
    def test_oracle_reads_pages_and_never_decodes(self, classes):
        sets = [frozenset({i % 7, (i * 3) % 7}) for i in range(40)]
        (fast, fast_mgr), (oracle, oracle_mgr) = build_pair(
            classes, sets, 70, 2, capacity=0, use_bulk=True, page_size=16
        )
        oracle.delete(sets[3], OID(1, 3))
        query = frozenset({1, 3})
        for search, kwargs in (
            (oracle.search_superset, {}),
            (oracle.search_superset, {"use_elements": 1}),
            (oracle.search_subset, {}),
            (oracle.search_subset, {"slices_to_examine": 9}),
            (oracle.search_overlap, {}),
        ):
            traffic = decode_cache_traffic()
            before = oracle_mgr.snapshot()
            search(query, **kwargs)
            delta = (oracle_mgr.snapshot() - before).total()
            assert decode_cache_traffic() == traffic
            assert delta.logical_reads > 0
            assert delta.physical_reads == delta.logical_reads  # uncached pool
        # ...while the shipped facility on the twin does use its decode cache.
        traffic = decode_cache_traffic()
        fast.search_superset(query)
        assert decode_cache_traffic() != traffic

    def test_the_switch_is_gone(self):
        """A stale ``use_kernels=`` caller fails loudly, not silently."""
        manager = StorageManager(page_size=128, pool_capacity=0)
        scheme = SignatureScheme(70, 2, seed=7)
        with pytest.raises(TypeError):
            SequentialSignatureFile(manager, scheme, "a", use_kernels=False)
        with pytest.raises(TypeError):
            BitSlicedSignatureFile(manager, scheme, "b", use_kernels=False)
        with pytest.raises(TypeError):
            LSMSignatureFacility(manager, scheme, "ssf", "c", use_kernels=False)
        with pytest.raises(TypeError):
            SignatureRun.build(
                manager, scheme, "d", 0, 0, "ssf", {}, set(), use_kernels=False
            )
        with pytest.raises(TypeError):
            OIDFile(manager.create_file("e"), use_cache=False)


# ----------------------------------------------------------------------
# Write-through: the decoded payloads follow in-place writes
# ----------------------------------------------------------------------
TINY_PAGE = 16  # 128 entries per slice page, 1 signature and 2 OIDs per page
PRELOADED = 120  # so a handful of inserts crosses the slice-page boundary

write_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.frozensets(st.sampled_from(DOMAIN), max_size=5),
        ),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(
            st.sampled_from(["search_superset", "search_subset", "search_overlap"]),
            query_strategy,
        ),
    ),
    min_size=1,
    max_size=24,
)


def cached_payloads(facility):
    """What the facility's searches would run on right now (hits, or the
    misses the test is counting)."""
    if isinstance(facility, BitSlicedSignatureFile):
        signatures = facility._stacked_slices()
    else:
        signatures = facility._signature_matrix()
    return signatures, facility.oid_file._entry_words()


def decode_misses(facility):
    return (
        facility.decode_cache_stats()["misses"],
        facility.oid_file._decode.stats()["misses"],
    )


class TestWriteThrough:
    """After every step of an insert/delete/search interleaving the cached
    matrix and OID table equal a fresh decode of the page files, answers and
    charges equal the oracle twin's, and nothing was decoded again — except
    once per BSSF slice-page rollover, by the insert that grew the slice
    files (it images the pages it rewrites from the matrix)."""

    @pytest.mark.parametrize("classes", [SSF_PAIR, BSSF_PAIR], ids=["ssf", "bssf"])
    @settings(max_examples=25, deadline=None)
    @given(steps=write_steps, heavy=st.booleans())
    def test_payloads_follow_writes(self, classes, steps, heavy):
        preload = [
            frozenset({i % 24, (i * 5) % 24, (i * 11) % 24}) for i in range(PRELOADED)
        ]
        fast_pair, oracle_pair = build_pair(
            classes, preload, 70, 2, capacity=0, use_bulk=True, page_size=TINY_PAGE
        )
        (fast, fast_mgr), (oracle, oracle_mgr) = fast_pair, oracle_pair
        scheme = SignatureScheme(70, 2, seed=7)
        live = {OID(1, i): elements for i, elements in enumerate(preload)}
        if heavy:  # enough inserts to cross the 128-entry slice page for sure
            steps = [("insert", frozenset({i % 24})) for i in range(10)] + steps
        cached_payloads(fast)  # warm-up: the only decodes a quiet history needs
        expected_misses = decode_misses(fast)
        next_serial = PRELOADED
        for step, argument in steps:
            slice_pages = getattr(fast, "slice_pages", None)
            if step == "insert":
                oid = OID(1, next_serial)
                next_serial += 1
                live[oid] = argument
                op = lambda facility: facility.insert(argument, oid)
            elif step == "delete":
                if not live:
                    continue
                oid = sorted(live)[argument % len(live)]
                elements = live.pop(oid)
                op = lambda facility: facility.delete(elements, oid)
            else:
                op = lambda facility: getattr(facility, step)(argument)
            o_result, o_delta, o_pool = metered(oracle_mgr, lambda: op(oracle))
            f_result, f_delta, f_pool = metered(fast_mgr, lambda: op(fast))
            assert (f_delta, f_pool) == (o_delta, o_pool)
            if o_result is not None:
                assert f_result.candidates == o_result.candidates
                assert f_result.detail == o_result.detail
                assert set(f_result.candidates) <= set(live)
            assert page_images(fast_mgr) == page_images(oracle_mgr)
            # A new shipped facility over the twin's (identical) page files
            # has nothing cached: its payloads are the fresh decode.
            fresh = classes[0].attach(
                oracle_mgr, scheme, file_prefix=fast.name,  # the default prefix
                entry_count=fast.entry_count,
            )
            signatures, entry_words = cached_payloads(fast)
            fresh_signatures, fresh_words = cached_payloads(fresh)
            assert np.array_equal(signatures, fresh_signatures)
            assert np.array_equal(entry_words, fresh_words)
            if getattr(fast, "slice_pages", None) != slice_pages:
                # the slice files grew a page: decoded afresh, once, by the
                # insert that grew them
                expected_misses = (expected_misses[0] + 1, expected_misses[1])
            assert decode_misses(fast) == expected_misses
        assert fast.entry_count == next_serial
        if heavy and classes is BSSF_PAIR:
            assert fast.slice_pages == 2

    @pytest.mark.parametrize("classes", [SSF_PAIR, BSSF_PAIR], ids=["ssf", "bssf"])
    def test_patches_are_counted_and_stale_payloads_dropped(self, classes):
        (fast, _), _ = build_pair(
            classes, [frozenset({1, 2})] * 3, 70, 2, capacity=0, use_bulk=True
        )
        patches = REGISTRY.counter("storage.decode_cache.patches")
        drops = REGISTRY.counter("storage.decode_cache.drops")
        fast.search_superset(frozenset({1}))  # warm both payloads
        before = (patches.value, drops.value)
        fast.insert(frozenset({3}), OID(1, 3))
        assert (patches.value, drops.value) == (before[0] + 2, before[1])
        fast.delete(frozenset({3}), OID(1, 3))
        assert (patches.value, drops.value) == (before[0] + 3, before[1])
        # A write the facility did not make itself (here: raw corruption
        # of a page it owns) leaves the payload keyed at a version the
        # file has left. The SSF's next insert finds it stale and drops it;
        # a BSSF insert images its slice pages from the matrix, so it
        # decodes the matrix afresh (a miss, not a drop) and carries that
        # across its write.
        victim = (
            fast._slice_files[0] if classes is BSSF_PAIR else fast.signature_file
        )
        store = victim._store
        store._apply_corruption(
            victim.name, 0, store.page_image(victim.name, 0)
        )
        misses = fast.decode_cache_stats()["misses"]
        fast.insert(frozenset({4}), OID(1, 4))
        if classes is BSSF_PAIR:
            assert (patches.value, drops.value) == (before[0] + 5, before[1])
            assert fast.decode_cache_stats()["misses"] == misses + 1
        else:
            assert (patches.value, drops.value) == (before[0] + 4, before[1] + 1)
        assert fast.search_superset(frozenset({4})).candidates == [OID(1, 4)]
