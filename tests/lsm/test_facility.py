"""Facility-level tests: flush policy, compaction, shadowing, accounting."""

import pytest

from repro.access.base import query_words
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError, IndexCorruptionError
from repro.lsm import LSMSignatureFacility
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.storage.paged_file import StorageManager

from tests.lsm.conftest import (
    DOMAIN,
    PairedWorkload,
    SAMPLE_QUERIES,
    make_scheme,
)


def make_facility(kind="ssf", flush_threshold=4, fanout=2):
    storage = StorageManager(page_size=4096, pool_capacity=0)
    facility = LSMSignatureFacility(
        storage, make_scheme(), kind, f"{kind}:T.s",
        flush_threshold=flush_threshold, fanout=fanout,
    )
    return facility, storage


def fill(facility, count, offset=0):
    for i in range(count):
        facility.insert(
            frozenset({DOMAIN[(offset + i) % len(DOMAIN)]}), OID(1, offset + i)
        )


class TestConstruction:
    def test_rejects_bad_parameters(self):
        storage = StorageManager(page_size=4096, pool_capacity=0)
        scheme = make_scheme()
        with pytest.raises(AccessFacilityError):
            LSMSignatureFacility(storage, scheme, "nix", "nix:T.s")
        with pytest.raises(AccessFacilityError):
            LSMSignatureFacility(storage, scheme, "ssf", "ssf:T.s",
                                 flush_threshold=0)
        with pytest.raises(AccessFacilityError):
            LSMSignatureFacility(storage, scheme, "ssf", "ssf:T.s", fanout=1)

    def test_name_matches_kind_for_plan_identity(self):
        for kind in ("ssf", "bssf"):
            facility, _ = make_facility(kind)
            assert facility.name == kind


class TestFlush:
    def test_threshold_triggers_flush(self):
        facility, _ = make_facility(flush_threshold=4)
        fill(facility, 3)
        assert facility.run_count == 0 and len(facility.memtable) == 3
        fill(facility, 1, offset=3)
        assert facility.run_count == 1
        assert facility.memtable.is_empty
        assert facility.counters["flushes"] == 1

    def test_flush_of_empty_memtable_is_noop(self):
        facility, _ = make_facility()
        assert facility.flush() is None
        assert facility.run_count == 0
        assert facility.manifest.version == 0

    def test_pure_tombstone_flush_without_older_version_is_dropped(self):
        facility, _ = make_facility(flush_threshold=100)
        facility.insert(frozenset({"e1"}), OID(1, 0))
        facility.delete(frozenset({"e1"}), OID(1, 0))
        run = facility.flush()
        assert run is None  # insert+delete cancelled; nothing to shadow
        assert facility.entry_count == 0

    def test_tombstone_kept_when_older_run_holds_the_oid(self):
        facility, _ = make_facility(flush_threshold=100)
        facility.insert(frozenset({"e1"}), OID(1, 0))
        facility.flush()
        facility.delete(frozenset({"e1"}), OID(1, 0))
        run = facility.flush()
        assert run is not None and OID(1, 0) in run.tombstones
        assert facility.entry_count == 0
        assert facility.search_overlap(frozenset({"e1"})).candidates == []

    def test_flush_is_deterministic(self):
        fingerprints = []
        for _ in range(2):
            facility, storage = make_facility(flush_threshold=100)
            fill(facility, 8)
            facility.flush()
            store = storage.store
            fingerprints.append({
                name: [bytes(store.page_image(name, p))
                       for p in range(store.num_pages(name))]
                for name in sorted(store.file_names())
            })
        assert fingerprints[0] == fingerprints[1]


class TestFlushCost:
    """A flush costs what the memtable holds, not what the facility holds."""

    def test_manifest_blob_length_ignores_run_sizes(self):
        lengths = []
        for per_run in (10, 5000):
            facility, _ = make_facility(flush_threshold=10**9, fanout=10**9)
            installed = REGISTRY.counter("lsm.manifest_install_bytes")
            for batch in range(3):
                fill(facility, per_run, offset=batch * per_run)
                before = installed.value
                facility.flush()
            assert [run.entry_count for run in facility.runs] == [per_run] * 3
            lengths.append(installed.value - before)
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_flush_page_writes_ignore_preloaded_size(self, kind):
        charged = []
        for preloaded in (200, 4000):
            facility, storage = make_facility(
                kind, flush_threshold=10**9, fanout=10**9
            )
            facility.bulk_load(
                (frozenset({DOMAIN[i % len(DOMAIN)]}), OID(1, i))
                for i in range(preloaded)
            )
            fill(facility, 20, offset=preloaded)
            facility.delete(frozenset({DOMAIN[0]}), OID(1, 0))
            before = storage.snapshot()
            facility.flush()
            delta = storage.snapshot() - before
            total = delta.total()
            charged.append((total.logical_writes, total.logical_reads))
        assert charged[0] == charged[1]
        assert charged[0][0] > 0

    def test_bssf_flush_is_sequential_and_merges_are_bit_sliced(self):
        facility, storage = make_facility(
            "bssf", flush_threshold=100, fanout=2
        )
        fill(facility, 5)
        run = facility.flush()
        assert run.layout == "ssf"
        assert not any(
            ":slice:" in name for name in storage.store.file_names()
        )
        fill(facility, 5, offset=5)
        facility.flush()  # tier of 2 -> one merged run
        assert [r.layout for r in facility.runs] == ["bssf"]
        assert any(":slice:" in name for name in storage.store.file_names())

    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_bulk_load_keeps_the_facility_kind(self, kind):
        facility, _ = make_facility(kind)
        facility.bulk_load(
            [(frozenset({DOMAIN[i]}), OID(1, i)) for i in range(6)]
        )
        assert [run.layout for run in facility.runs] == [kind]

    def test_flush_and_compaction_feed_the_registry(self):
        facility, _ = make_facility(flush_threshold=2, fanout=2)
        fill(facility, 4)
        assert REGISTRY.histogram("lsm.flush_seconds").count == 2
        assert REGISTRY.histogram("lsm.compaction_seconds").count == 1


class TestCompaction:
    def test_tiered_merges_cascade(self):
        facility, _ = make_facility(flush_threshold=2, fanout=2)
        fill(facility, 8)  # 4 flushes -> cascading merges
        levels = [run.level for run in facility.runs]
        assert levels == sorted(levels, reverse=True)
        assert facility.counters["compactions"] >= 2
        facility.verify()
        assert facility.entry_count == 8

    def test_merge_drops_shadowed_versions_and_dead_tombstones(self):
        facility, _ = make_facility(flush_threshold=100, fanout=2)
        facility.insert(frozenset({"e1"}), OID(1, 0))
        facility.insert(frozenset({"e2"}), OID(1, 1))
        facility.flush()
        facility.delete(frozenset({"e1"}), OID(1, 0))
        facility.insert(frozenset({"e3"}), OID(1, 1))
        facility.flush()  # triggers the tier-of-2 merge
        assert facility.run_count == 1
        merged = facility.runs[0]
        assert OID(1, 0) not in merged          # tombstone had no older run
        seq, row = merged.entries[OID(1, 1)]
        assert seq == facility._live[OID(1, 1)]
        assert (
            merged.words[row] == facility.scheme.set_signature({"e3"}).words
        ).all()
        facility.verify()

    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_flush_and_merge_hash_nothing(self, kind, monkeypatch):
        """A run's rows are its record: a flush seals the memtable's rows
        and the merge it triggers gathers its victims' rows, so neither
        derives a signature from a set."""
        facility, _ = make_facility(kind, flush_threshold=100, fanout=2)
        fill(facility, 12)
        facility.flush()
        fill(facility, 6, offset=20)
        facility.delete(frozenset({DOMAIN[2]}), OID(1, 2))
        facility.insert(frozenset({DOMAIN[5], DOMAIN[9]}), OID(1, 3))
        queries = [frozenset({DOMAIN[i]}) for i in range(0, 16, 3)]
        before = [facility.search_overlap(query).candidates for query in queries]
        calls = []

        def counted(name):
            derive = getattr(SignatureScheme, name)

            def call(scheme, *args, **kwargs):
                calls.append(name)
                return derive(scheme, *args, **kwargs)

            return call

        for name in ("set_signature", "set_signature_words_many"):
            monkeypatch.setattr(SignatureScheme, name, counted(name))
        facility.flush()  # seals a second run, which merges the tier of 2
        assert calls == []
        monkeypatch.undo()
        assert facility.counters["compactions"] == 1
        assert [run.layout for run in facility.runs] == [kind]
        assert [
            facility.search_overlap(query).candidates for query in queries
        ] == before
        facility.verify_decodes()

    def test_install_compaction_rejects_stale_plan(self):
        facility, storage = make_facility(flush_threshold=100, fanout=2)
        facility.auto_compact = False
        for batch in range(2):
            fill(facility, 2, offset=batch * 2)
            facility.flush()
        plan = facility.prepare_compaction()
        assert plan is not None
        # simulate a concurrent rebuild replacing the run list
        victims, output = plan
        facility.runs.remove(victims[0])
        assert facility.install_compaction(plan) is False
        # the prepared output's files were GC'd
        assert not any(
            name.startswith(f"ssf:T.s:r{output.run_id:06d}")
            for name in storage.store.file_names()
        )

    def test_prepare_without_full_tier_returns_none(self):
        facility, _ = make_facility(flush_threshold=100, fanout=4)
        fill(facility, 2)
        facility.flush()
        assert facility.prepare_compaction() is None


class TestBulkLoad:
    def test_bulk_load_seals_one_run(self):
        facility, _ = make_facility(flush_threshold=2)
        pairs = [(frozenset({DOMAIN[i]}), OID(1, i)) for i in range(10)]
        assert facility.bulk_load(pairs) == 10
        assert facility.run_count == 1
        assert facility.entry_count == 10
        assert facility.memtable.ops == 0  # backfill does not count as churn

    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_bulk_load_hashes_each_set_once(self, kind, monkeypatch):
        """The pairs bypass the memtable: no per-set signature, and the
        run's own bulk load hashes each set exactly once."""
        facility, _ = make_facility(kind, flush_threshold=2)
        pairs = [
            (frozenset({DOMAIN[i % 16], DOMAIN[(i * 7) % 16]}), OID(1, i))
            for i in range(1000)
        ]
        single, many = [], []
        derive_one = SignatureScheme.set_signature
        derive_many = SignatureScheme.set_signature_words_many

        def counted_one(scheme, elements):
            single.append(elements)
            return derive_one(scheme, elements)

        def counted_many(scheme, element_sets):
            many.extend(element_sets)
            return derive_many(scheme, element_sets)

        monkeypatch.setattr(SignatureScheme, "set_signature", counted_one)
        monkeypatch.setattr(SignatureScheme, "set_signature_words_many", counted_many)
        assert facility.bulk_load(pairs) == 1000
        assert single == []
        assert sorted(many, key=sorted) == sorted(
            (elements for elements, _ in pairs), key=sorted
        )
        monkeypatch.undo()
        assert facility.run_count == 1 and facility.memtable.is_empty
        query = frozenset({DOMAIN[3]})
        assert facility.search_superset(query).candidates == (
            facility.runs[0].inner.search_superset(query).candidates
        )

    def test_bulk_load_requires_empty_facility(self):
        facility, _ = make_facility()
        facility.insert(frozenset({"e1"}), OID(1, 0))
        with pytest.raises(AccessFacilityError):
            facility.bulk_load([(frozenset({"e2"}), OID(1, 1))])


class TestSearchSemantics:
    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_empty_query_parity_across_layers(self, kind):
        paired = PairedWorkload(kind)
        for i in range(6):
            paired.insert([DOMAIN[i], DOMAIN[i + 1]])
        paired.flush()
        paired.insert([DOMAIN[9]])
        paired.assert_equivalent([frozenset()])
        result = paired.subject.search_superset(frozenset())
        assert result.exact and len(result.candidates) == 7

    def test_bad_arguments_match_inplace_contract(self):
        facility, _ = make_facility()
        with pytest.raises(AccessFacilityError):
            facility.search_superset(frozenset({"e1"}), use_elements=0)
        with pytest.raises(AccessFacilityError):
            facility.search_subset(frozenset({"e1"}), slices_to_examine=-1)

    def test_detail_reports_layers(self):
        facility, _ = make_facility(flush_threshold=4)
        fill(facility, 6)
        result = facility.search_overlap(frozenset({DOMAIN[0]}))
        assert result.detail["runs"] == facility.run_count
        assert result.detail["memtable_entries"] == len(facility.memtable)
        assert len(result.detail["per_run"]) == facility.run_count


    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    @pytest.mark.parametrize(
        "mode, options",
        [
            ("superset", {}),
            ("superset", {"use_elements": 1}),
            ("subset", {}),
            ("subset", {"slices_to_examine": 3}),
            ("overlap", {}),
        ],
    )
    def test_one_search_derives_one_query_signature(
        self, kind, mode, options, monkeypatch
    ):
        """The memtable and every run test the words derived once; each
        run's drops and live drops are what its public search gives."""
        facility, _ = make_facility(kind, flush_threshold=3, fanout=10)
        fill(facility, 11)
        for i in (1, 4, 9):
            old = frozenset({DOMAIN[i % len(DOMAIN)]})
            facility.delete(old, OID(1, i))
            facility.insert(old | {DOMAIN[5]}, OID(1, i))
        assert facility.run_count >= 3 and len(facility.memtable) > 0
        query = frozenset({DOMAIN[1], DOMAIN[5]})
        calls = []
        derive = SignatureScheme.set_signature

        def counted(scheme, elements):
            calls.append(elements)
            return derive(scheme, elements)

        monkeypatch.setattr(SignatureScheme, "set_signature", counted)
        result = getattr(facility, f"search_{mode}")(query, **options)
        assert len(calls) == 1
        monkeypatch.undo()
        expected = []
        for run in facility.runs:
            public = getattr(run.inner, f"search_{mode}")(query, **options)
            expected.append({
                "run": run.run_id, "level": run.level,
                "drops": public.detail["drops"],
                "live_drops": sum(
                    facility._live.get(oid) == run.seq_of(oid)
                    for oid in public.candidates
                ),
            })
        assert result.detail["per_run"] == expected


class TestAccounting:
    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_predicted_run_pages(self, kind):
        facility, storage = make_facility(kind, flush_threshold=3)
        fill(facility, 9)
        predictions = facility.predicted_run_pages()
        assert len(predictions) == facility.run_count
        for prediction, run in zip(predictions, facility.runs):
            before = storage.snapshot()
            run.inner.search_words(
                "superset",
                query_words(facility.scheme, "superset", frozenset({DOMAIN[2]})),
            )
            delta = storage.snapshot() - before
            actual = sum(
                delta.for_file(name).logical_reads
                for name in run.file_names()
                if "oid" not in name
            )
            assert prediction["layout"] == run.layout
            if run.layout == "ssf":
                assert actual == prediction["pages"]
            else:
                assert actual <= prediction["pages"]
        if kind == "bssf":  # both layouts were exercised
            assert {run.layout for run in facility.runs} == {"ssf", "bssf"}

    def test_storage_pages_split_runs_and_manifest(self):
        facility, _ = make_facility(flush_threshold=2)
        fill(facility, 4)
        pages = facility.storage_pages()
        assert pages["runs"] > 0 and pages["manifest"] > 0


class TestVerify:
    def test_detects_live_map_drift(self):
        facility, _ = make_facility(flush_threshold=2)
        fill(facility, 4)
        facility._live[OID(1, 99)] = 1234
        with pytest.raises(IndexCorruptionError, match="live map"):
            facility.verify()

    def test_detects_level_inversion(self):
        facility, _ = make_facility(flush_threshold=2, fanout=2)
        fill(facility, 8)
        if len(facility.runs) < 2:
            fill(facility, 4, offset=8)
        facility.runs[0], facility.runs[-1] = (
            facility.runs[-1], facility.runs[0],
        )
        if facility.runs[0].level < facility.runs[-1].level:
            with pytest.raises(IndexCorruptionError, match="levels"):
                facility.verify()


class TestAttach:
    @pytest.mark.parametrize("kind", ["ssf", "bssf"])
    def test_state_blob_roundtrip(self, kind):
        facility, storage = make_facility(kind, flush_threshold=3)
        fill(facility, 8)
        facility.delete(frozenset({DOMAIN[1]}), OID(1, 1))
        reopened = LSMSignatureFacility.attach(
            storage, make_scheme(), f"{kind}:T.s", facility.state_blob()
        )
        assert reopened.entry_count == facility.entry_count
        assert reopened._live == facility._live
        for query in SAMPLE_QUERIES:
            for mode in ("superset", "subset", "overlap"):
                assert (
                    getattr(reopened, f"search_{mode}")(query).candidates
                    == getattr(facility, f"search_{mode}")(query).candidates
                )
        # writes continue where the original left off
        reopened.insert(frozenset({DOMAIN[5]}), OID(1, 50))
        assert reopened._next_seq == facility._next_seq + 1
