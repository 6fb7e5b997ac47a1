"""LSM-structured set access facility.

:class:`LSMSignatureFacility` presents the same
:class:`~repro.access.base.SetAccessFacility` contract as the in-place
SSF/BSSF facilities — same ``name`` (so plans print identically), same
search modes, and the same WAL records, which the database writes for
each object mutation (the facility logs nothing itself) — but
restructures the write path as memtable → immutable runs → tiered
compaction.

Equivalence with the in-place path is by construction:

* **Row order.** An in-place facility returns candidates in OID-file
  entry order, which is the chronological order of each live entry's most
  recent insert (an update tombstones the old entry and appends a new
  one). The LSM facility assigns every insert a monotonic sequence
  number and sorts merged candidates by it — the same order.
* **Candidate sets.** Every drop test (superset, subset with
  ``slices_to_examine``, overlap, partial query signatures) depends only
  on the entry's signature bits at positions fixed by the query. A
  search derives those positions once, as packed words
  (:func:`~repro.access.base.query_words`); the memtable tests them in
  one row-kernel pass over its signature table and every run in its
  inner SSF/BSSF ``search_words`` — the body the in-place searches end
  in — so the union of live drops equals the in-place drop set exactly,
  including false drops, whichever layout a run has (flushes seal
  sequential runs; see :mod:`repro.lsm.run`).
* **Shadowing.** The facility keeps an authoritative ``OID -> seq`` map
  of live versions (uncharged bookkeeping, like the object directory). A
  run candidate counts only if its entry's seq is the live seq; memtable
  entries are always live. This reproduces newest-layer-wins without
  rescanning older runs.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.access.base import SearchResult, SetAccessFacility, query_words
from repro.access.catalog import DEFAULT_FANOUT, DEFAULT_FLUSH_THRESHOLD
from repro.core.signature import SignatureScheme
from repro.errors import AccessFacilityError, IndexCorruptionError
from repro.lsm.manifest import RunManifest
from repro.lsm.memtable import MemTable
from repro.lsm.run import RUN_KINDS, SEQUENTIAL, SignatureRun
from repro.objects.oid import OID
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import traced_search
from repro.storage.paged_file import StorageManager

SetValue = FrozenSet[Hashable]


def check_options(flush_threshold: int, fanout: int) -> None:
    """Raise :class:`AccessFacilityError` unless both options are in range."""
    if flush_threshold < 1:
        raise AccessFacilityError(
            f"flush_threshold must be >= 1, got {flush_threshold}"
        )
    if fanout < 2:
        raise AccessFacilityError(f"fanout must be >= 2, got {fanout}")


class LSMSignatureFacility(SetAccessFacility):
    """Memtable + immutable signature runs behind the facility contract."""

    is_lsm = True

    def __init__(
        self,
        storage: StorageManager,
        scheme: SignatureScheme,
        kind: str,
        file_prefix: str,
        *,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        fanout: int = DEFAULT_FANOUT,
    ):
        if kind not in RUN_KINDS:
            raise AccessFacilityError(f"unknown LSM run kind: {kind!r}")
        check_options(flush_threshold, fanout)
        self.name = kind
        self.kind = kind
        self._storage = storage
        self.scheme = scheme
        self.signature_bits = scheme.signature_bits
        self.file_prefix = file_prefix
        self.flush_threshold = flush_threshold
        self.fanout = fanout
        self.memtable = MemTable(self.scheme)
        # Oldest -> newest by data recency. Tiered merges keep levels
        # non-increasing along this list, so a level's runs are contiguous.
        self.runs: List[SignatureRun] = []
        self.manifest = RunManifest(storage, file_prefix)
        # Authoritative live view: OID -> seq of its current version.
        self._live: Dict[OID, int] = {}
        self._next_seq = 0
        self._next_run_id = 0
        # Run ids name storage files; a background compactor allocates
        # them off-thread while foreground flushes allocate inline, so the
        # counter bump must be atomic.
        self._run_id_lock = threading.Lock()
        # Background compactors flip this off and install merges themselves.
        self.auto_compact = True
        self.counters = {"flushes": 0, "compactions": 0}

    # ------------------------------------------------------------------
    # Attach (checkpoint load)
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        storage: StorageManager,
        scheme: SignatureScheme,
        file_prefix: str,
        state_blob: bytes,
    ) -> "LSMSignatureFacility":
        """Re-open a facility over existing run/manifest files.

        ``state_blob`` is a :meth:`state_blob` payload — the serde-encoded
        memtable and counters a snapshot catalog carries alongside the
        storage files.
        """
        from repro.objects.serde import decode_value

        kind, flush_threshold, fanout, memtable_state, next_seq, next_run_id = (
            decode_value(state_blob)
        )
        facility = cls(
            storage,
            scheme,
            kind,
            file_prefix,
            flush_threshold=flush_threshold,
            fanout=fanout,
        )
        descriptors, _ = facility.manifest.load()
        facility.runs = [
            SignatureRun.attach(storage, scheme, file_prefix, descriptor)
            for descriptor in descriptors
        ]
        facility.memtable = MemTable.from_state(memtable_state, scheme)
        facility._next_seq = next_seq
        facility._next_run_id = next_run_id
        facility._live = facility._layered_live()
        facility.verify()
        return facility

    def state_blob(self) -> bytes:
        """Serde-encoded snapshot state beyond what the storage files hold."""
        from repro.objects.serde import encode_value

        return encode_value(
            [
                self.kind,
                self.flush_threshold,
                self.fanout,
                self.memtable.to_state(),
                self._next_seq,
                self._next_run_id,
            ]
        )

    def _layered_live(self) -> Dict[OID, int]:
        """``OID -> seq`` of every live version, derived from the layers."""
        live: Dict[OID, int] = {}
        for run in self.runs:  # oldest -> newest
            for oid in run.tombstones:
                live.pop(oid, None)
            for oid, (seq, _) in run.entries.items():
                live[oid] = seq
        for oid in self.memtable.tombstones:
            live.pop(oid, None)
        for oid, (_, seq, _) in self.memtable.entries.items():
            live[oid] = seq
        return live

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Number of live entries (memtable + runs, after shadowing)."""
        return len(self._live)

    @property
    def run_count(self) -> int:
        return len(self.runs)

    def bulk_load(self, pairs) -> int:
        """Backfill an empty facility: seal ``pairs`` directly into one run.

        The pairs bypass the memtable, so each surviving set is hashed
        once, in one :meth:`SignatureScheme.set_signature_words_many` batch.
        """
        if self._live or self.runs or not self.memtable.is_empty:
            raise AccessFacilityError("bulk_load requires an empty facility")
        latest: Dict[OID, Tuple[int, SetValue]] = {}
        count = 0
        for elements, oid in pairs:
            latest.pop(oid, None)  # as a memtable re-insert: newest last
            latest[oid] = (self._next_seq, elements)
            self._live[oid] = self._next_seq
            self._next_seq += 1
            count += 1
        if latest:
            keys = [(seq, oid) for oid, (seq, _) in latest.items()]
            words = self.scheme.set_signature_words_many(
                [elements for _, elements in latest.values()]
            )
            self._seal(self.kind, keys, words, set())
        return count

    def insert(self, elements: SetValue, oid: OID) -> None:
        self.memtable.insert(elements, oid, self._next_seq)
        self._live[oid] = self._next_seq
        self._next_seq += 1
        self._maybe_flush()

    def delete(self, elements: SetValue, oid: OID) -> None:
        self.memtable.delete(oid)
        self._live.pop(oid, None)
        self._maybe_flush()

    def _allocate_run_id(self) -> int:
        with self._run_id_lock:
            run_id = self._next_run_id
            self._next_run_id += 1
            return run_id

    def _maybe_flush(self) -> None:
        if self.memtable.ops >= self.flush_threshold:
            self.flush()

    def flush(self) -> Optional[SignatureRun]:
        """Seal the memtable into a sequential level-0 run and install it.

        The work is proportional to the memtable: one signature file, one
        OID file, one entry table and a manifest of fixed-size descriptors,
        whatever the facility already holds. Bit-slicing waits for the
        merge that compaction was going to do anyway.

        Tombstones are carried into the run only when some older run still
        holds a version of the OID; otherwise nothing needs shadowing.
        """
        if self.memtable.is_empty:
            self.memtable.ops = 0
            return None
        keys, words = self.memtable.live_rows()
        tombstones = {
            oid
            for oid in self.memtable.tombstones
            if any(oid in run for run in self.runs)
        }
        if not keys and not tombstones:
            # e.g. an insert+delete pair that cancelled within one
            # memtable generation: nothing to persist, nothing to shadow.
            self.memtable = MemTable(self.scheme)
            return None
        return self._seal(SEQUENTIAL, keys, words, tombstones)

    def _seal(
        self,
        layout: str,
        keys: List[Tuple[int, OID]],
        words: np.ndarray,
        tombstones: Set[OID],
    ) -> SignatureRun:
        """Seal ``keys`` — ``(seq, oid)`` in seq order — with their packed
        signature rows ``words`` and ``tombstones`` into a level-0 run of
        ``layout`` that replaces the memtable; compact after.

        Deterministic: the run id, entry order (by seq), entry table and
        manifest bytes are functions of the operation history alone, which
        is what lets WAL replay reproduce flushed state byte for byte.
        """
        started = time.perf_counter()
        run = SignatureRun.build(
            self._storage,
            self.scheme,
            self.file_prefix,
            self._allocate_run_id(),
            0,
            layout,
            keys,
            words,
            tombstones,
        )
        self.runs.append(run)
        self.memtable = MemTable(self.scheme)
        self.counters["flushes"] += 1
        self._install()
        REGISTRY.histogram("lsm.flush_seconds").record(
            time.perf_counter() - started
        )
        if self.auto_compact:
            self.compact()
        return run

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compaction_candidates(self) -> Optional[List[SignatureRun]]:
        """The oldest full tier, if any level has >= fanout runs."""
        by_level: Dict[int, List[SignatureRun]] = {}
        for run in self.runs:
            by_level.setdefault(run.level, []).append(run)
        for level in sorted(by_level, reverse=True):
            if len(by_level[level]) >= self.fanout:
                return by_level[level]
        return None

    def compact(self) -> int:
        """Cascade tiered merges until no level is over-full; returns merges."""
        merges = 0
        while True:
            victims = self.compaction_candidates()
            if victims is None:
                return merges
            plan = self.prepare_compaction(victims)
            self.install_compaction(plan)
            merges += 1

    def prepare_compaction(
        self, victims: Optional[List[SignatureRun]] = None
    ) -> Optional[Tuple[List[SignatureRun], SignatureRun]]:
        """Build (but do not install) the merge of one over-full tier.

        Safe to call without holding the database write latch: it only
        reads immutable runs and writes fresh, not-yet-referenced storage
        files. Returns ``None`` when no tier needs merging.
        """
        if victims is None:
            victims = self.compaction_candidates()
            if victims is None:
                return None
        started = time.perf_counter()
        # OID -> (seq, row in the victims' concatenated rows)
        merged: Dict[OID, Tuple[int, int]] = {}
        merged_tombstones: Set[OID] = set()
        offset = 0
        for run in victims:  # oldest -> newest within the tier
            for oid in run.tombstones:
                merged.pop(oid, None)
                merged_tombstones.add(oid)
            for oid, (seq, row) in run.entries.items():
                merged_tombstones.discard(oid)
                merged[oid] = (seq, offset + row)
            offset += len(run.words)
        ordered = sorted(merged.items(), key=lambda item: item[1][0])
        words = np.concatenate([run.words for run in victims])[
            [row for _, (_, row) in ordered]
        ]
        first = self.runs.index(victims[0])
        older = self.runs[:first]
        merged_tombstones = {
            oid
            for oid in merged_tombstones
            if any(oid in run for run in older)
        }
        output = SignatureRun.build(
            self._storage,
            self.scheme,
            self.file_prefix,
            self._allocate_run_id(),
            victims[0].level + 1,
            self.kind,
            [(seq, oid) for oid, (seq, _) in ordered],
            words,
            merged_tombstones,
        )
        REGISTRY.histogram("lsm.compaction_seconds").record(
            time.perf_counter() - started
        )
        return victims, output

    def install_compaction(
        self, plan: Tuple[List[SignatureRun], SignatureRun]
    ) -> bool:
        """Swap a prepared merge into the run list and GC the victims.

        Must run under the database write latch when readers are live. If
        the victims are no longer all present (a concurrent rebuild), the
        prepared output is discarded and False is returned.
        """
        victims, output = plan
        if any(victim not in self.runs for victim in victims):
            output.drop_files(self._storage)
            return False
        first = self.runs.index(victims[0])
        self.runs[first:first + len(victims)] = [output]
        self.counters["compactions"] += 1
        self._install()
        for victim in victims:
            victim.drop_files(self._storage)
        return True

    def _install(self) -> None:
        self.manifest.install([run.to_state() for run in self.runs])

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @traced_search("lsm.search.superset")
    def search_superset(
        self, query: SetValue, use_elements: Optional[int] = None
    ) -> SearchResult:
        if not query:
            return self._all_live("superset", exact=True)
        return self._layered_search(
            "superset",
            query_words(self.scheme, "superset", query, use_elements=use_elements),
        )

    @traced_search("lsm.search.subset")
    def search_subset(
        self, query: SetValue, slices_to_examine: Optional[int] = None
    ) -> SearchResult:
        if slices_to_examine is not None and slices_to_examine < 0:
            raise AccessFacilityError("slices_to_examine must be >= 0")
        if not query:
            return self._all_live("subset", exact=False)
        return self._layered_search(
            "subset",
            query_words(
                self.scheme, "subset", query, slices_to_examine=slices_to_examine
            ),
        )

    @traced_search("lsm.search.overlap")
    def search_overlap(self, query: SetValue) -> SearchResult:
        if not query:
            return SearchResult(
                [], exact=True, facility=self.name,
                detail={"mode": "overlap", "drops": 0, "live_drops": 0,
                        "runs": len(self.runs)},
            )
        return self._layered_search(
            "overlap", query_words(self.scheme, "overlap", query)
        )

    def _layered_search(self, mode: str, words: np.ndarray) -> SearchResult:
        """Test memtable + every run against ``words``; merge live drops in
        seq order.

        ``words`` are derived once (:func:`query_words`): the memtable
        tests them in one row-kernel pass, each run in its inner
        facility's ``search_words``.
        """
        matches = self.memtable.drops(mode, words)
        drops = len(matches)
        per_run = []
        for run in self.runs:
            result = run.inner.search_words(mode, words)
            run_live = 0
            for oid in result.candidates:
                seq = run.seq_of(oid)
                if self._live.get(oid) == seq:
                    matches.append((seq, oid))
                    run_live += 1
            drops += result.detail.get("drops", len(result.candidates))
            per_run.append(
                {"run": run.run_id, "level": run.level,
                 "drops": result.detail.get("drops", 0), "live_drops": run_live}
            )
        matches.sort()
        candidates = [oid for _, oid in matches]
        return SearchResult(
            candidates,
            exact=False,
            facility=self.name,
            detail={
                "mode": mode,
                "drops": drops,
                "live_drops": len(candidates),
                "runs": len(self.runs),
                "memtable_entries": len(self.memtable.entries),
                "per_run": per_run,
            },
        )

    def _all_live(self, mode: str, *, exact: bool) -> SearchResult:
        ordered = sorted(self._live.items(), key=lambda item: item[1])
        candidates = [oid for oid, _ in ordered]
        return SearchResult(
            candidates,
            exact=exact,
            facility=self.name,
            detail={
                "mode": mode,
                "drops": len(candidates),
                "live_drops": len(candidates),
                "runs": len(self.runs),
            },
        )

    # ------------------------------------------------------------------
    # Cost accounting (run count as a cost-model parameter)
    # ------------------------------------------------------------------
    def predicted_run_pages(self) -> List[dict]:
        """Per-run predicted signature-page reads for a full-scan search.

        Extends the paper's cost model with the run count: a sequential
        run scans exactly its signature pages, a bit-sliced run reads at
        most every slice page. Actual reads can only be lower (BSSF early
        exits), never higher — the differential suite pins the sequential
        case to equality and the bit-sliced case as an upper bound.
        """
        return [
            {"run": run.run_id, "level": run.level, "layout": run.layout,
             "entries": run.entry_count, "pages": run.signature_pages()}
            for run in self.runs
        ]

    # ------------------------------------------------------------------
    # Facility contract plumbing
    # ------------------------------------------------------------------
    def storage_pages(self) -> dict:
        return {
            "runs": sum(run.storage_pages() for run in self.runs),
            "manifest": self.manifest.storage_pages(),
        }

    def verify_decodes(self) -> None:
        """Check every run's held decodes and signature rows against its
        pages (:meth:`SignatureRun.verify_decodes`)."""
        for run in self.runs:
            run.verify_decodes()

    def verify(self) -> None:
        """Structural invariants: runs intact, shadowing map consistent."""
        levels = [run.level for run in self.runs]
        if levels != sorted(levels, reverse=True):
            raise IndexCorruptionError(
                f"{self.file_prefix}: run levels not non-increasing: {levels}"
            )
        for run in self.runs:
            run.verify()
        expected = self._layered_live()
        if expected != self._live:
            raise IndexCorruptionError(
                f"{self.file_prefix}: live map out of sync with layers "
                f"({len(expected)} expected, {len(self._live)} held)"
            )

    def __repr__(self) -> str:
        return (
            f"LSMSignatureFacility(kind={self.kind!r}, "
            f"prefix={self.file_prefix!r}, entries={self.entry_count}, "
            f"memtable={len(self.memtable)}, runs={len(self.runs)})"
        )
