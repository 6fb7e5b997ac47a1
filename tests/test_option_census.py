"""Every option is reached by something that runs, or it is a named claim.

An option is a constructor parameter with a default: a knob a caller may
turn. The census walks every class exported by the packages
``tools/gen_api_docs.py`` documents (dataclasses and exceptions aside; a
dataclass's defaulted fields are its record shape, not knobs) plus
:meth:`Database.open`, and holds each defaulted parameter to one entry of
:data:`CENSUS`. An entry is ``(kind, what)``:

``workload``
    a ledger workload (``benchmarks/ledger``) sets it, directly or through
    the code it runs;
``experiment``
    a paper experiment or ablation (``repro.experiments``,
    ``benchmarks/bench_*.py``) sets it;
``cli``
    a ``sigfile-repro`` flag or a shell command sets it;
``claim``
    only tests (or a ``tools/`` drill) set it; ``what`` names the claim it
    stands for and the ROADMAP item that will give it a runner or delete
    it.

A parameter added without an entry fails, and so does an entry whose
parameter is gone: the table is the list of knobs, kept true.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re
from typing import Dict, List, Tuple

import pytest

from repro.objects.database import Database

KINDS = ("workload", "experiment", "cli", "claim")

CENSUS: Dict[str, Tuple[str, str]] = {
    # -- repro.objects -------------------------------------------------
    "Database.page_size": (
        "workload", "every ledger workload builds Database(page_size=PAGE_SIZE)"),
    "Database.pool_capacity": (
        "experiment", "bench_ablation_buffer sweeps the buffer pool; the ledger "
        "and the empirical testbed pass 0"),
    "Database.durability": (
        "workload", "local_read 'none', churn_wal 'wal', churn_lsm 'lsm'"),
    "Database.wal_dir": (
        "workload", "churn_wal and churn_lsm log into the fixture's wal directory"),
    "Database.open.page_size": (
        "workload", "churn_wal/churn_lsm recover_s reopen with "
        "Database.open(wal_dir, page_size=PAGE_SIZE)"),
    "Database.open.pool_capacity": (
        "claim", "replay under a buffer pool (tests/wal/test_replay_batch.py); "
        "ROADMAP 8's durability manager owns open and decides it"),
    # -- repro.server ----------------------------------------------------
    "QueryService.database": (
        "workload", "remote_read and routed_read servers build "
        "QueryService(db) through TcpQueryServer"),
    "QueryService.max_workers": (
        "workload", "TcpQueryServer(max_workers=SERVER_WORKERS); also "
        "serve --workers and the shell's \\workers N"),
    "QueryService.queue_depth": ("cli", "serve --queue-depth"),
    "QueryService.admission_policy": (
        "claim", "admission retries under a full queue; ROADMAP 1(c)'s "
        "contention workloads give it a line or it goes"),
    "QueryService.admission_timeout_seconds": (
        "claim", "admission wait bound under a full queue; ROADMAP 1(c)"),
    "QueryService.executor": (
        "claim", "test seam: the service and resilience suites inject a "
        "blocking executor to hold workers; ROADMAP 1(c)"),
    "TcpQueryServer.database": (
        "workload", "remote_read and routed_read serve TcpQueryServer(db)"),
    "TcpQueryServer.service": (
        "cli", "route serves a ShardRouter as the server's service"),
    "TcpQueryServer.host": ("cli", "serve --host, route --host"),
    "TcpQueryServer.port": ("cli", "serve --port, route --port"),
    "TcpQueryServer.max_workers": (
        "workload", "TcpQueryServer(db, max_workers=SERVER_WORKERS); serve --workers"),
    "TcpQueryServer.queue_depth": ("cli", "serve --queue-depth"),
    "TcpQueryServer.auth_tokens": ("cli", "serve --auth TOKEN[:TENANT]"),
    "TcpQueryServer.tenant_quotas": (
        "claim", "per-tenant in-flight caps (serve --quota, no workload); "
        "ROADMAP 1(c) gives it an admission line or it goes"),
    "TcpQueryServer.read_timeout_seconds": ("cli", "serve --read-timeout"),
    "TcpQueryServer.max_frame_bytes": (
        "claim", "oversized-frame refusal (tests/serving/test_frame_limits.py); "
        "ROADMAP 4's edge rewrite decides it"),
    "TcpQueryServer.heartbeat_seconds": (
        "claim", "replica heartbeats (tools/replication_smoke.py, replication "
        "chaos tests); ROADMAP 16"),
    "TcpQueryServer.shard_info": ("cli", "serve --shard-of K/N"),
    # -- repro.client ----------------------------------------------------
    "RemoteClient.host": (
        "workload", "remote_read dials RemoteClient.from_url(server.url)"),
    "RemoteClient.port": (
        "workload", "remote_read dials RemoteClient.from_url(server.url)"),
    "RemoteClient.token": (
        "cli", "route --token; the shell's \\connect URL TOKEN"),
    "RemoteClient.pool_size": (
        "workload", "remote_read's RemoteClient.from_url(url, pool_size=1)"),
    "RemoteClient.retry_policy": (
        "cli", "route over a replicated fleet: FailoverClient gives each "
        "endpoint client a one-attempt policy"),
    "RemoteClient.connect_timeout_seconds": (
        "claim", "fast failure on a dead peer (tools/sharding_smoke.py, "
        "reconnect tests); ROADMAP 4"),
    "RemoteClient.request_timeout_seconds": (
        "claim", "request bound, forwarded by FailoverClient; ROADMAP 4"),
    "RemoteClient.max_frame_bytes": (
        "claim", "oversized-frame refusal (tests/serving/test_frame_limits.py); "
        "ROADMAP 4"),
    "FailoverClient.token": (
        "cli", "route --token to a fleet segment; \\connect a,b TOKEN"),
    "FailoverClient.pool_size": (
        "claim", "per-endpoint pool width of a fleet client; ROADMAP 16"),
    "FailoverClient.retry_policy": (
        "claim", "failover retry schedule (tests/replication/test_failover.py); "
        "ROADMAP 16"),
    "FailoverClient.failure_threshold": (
        "claim", "endpoint breaker threshold (tests/replication/test_failover.py); "
        "ROADMAP 16"),
    "FailoverClient.prefer_replicas": (
        "claim", "read routing to replicas (tests/replication/test_failover.py); "
        "ROADMAP 16"),
    "FailoverClient.read_your_writes_timeout_seconds": (
        "claim", "read-your-writes wait on a lagging replica; ROADMAP 16"),
    "FailoverClient.connect_timeout_seconds": (
        "claim", "fast failover off a dead primary; ROADMAP 16"),
    "FailoverClient.request_timeout_seconds": (
        "claim", "request bound per endpoint; ROADMAP 16"),
    "FailoverClient.max_frame_bytes": (
        "claim", "frame limit per endpoint; ROADMAP 16"),
    "ShardRouter.partial_results": ("cli", "route --partial-results"),
    "ShardRouter.deadline_ms": ("cli", "route --deadline-ms"),
    "ShardRouter.retry_policy": (
        "claim", "per-shard retries (tools/sharding_smoke.py shortens them; "
        "router tests); ROADMAP 4 overlaps the hops"),
    "ShardRouter.failure_threshold": (
        "claim", "per-shard breaker threshold (router and resilience tests); "
        "ROADMAP 4"),
    "ShardRouter.breaker_cooldown_seconds": (
        "claim", "per-shard breaker cool-down (tests/sharding/test_router.py); "
        "ROADMAP 4"),
    "ShardRouter.owns_shards": (
        "claim", "test seam: a caller that keeps its shard backends open "
        "(tests/sharding/test_router.py); ROADMAP 4"),
    # -- repro.replication -----------------------------------------------
    "ReplicaDatabase.name": ("cli", "serve --replica-of URL --replica-name NAME"),
    "ReplicaDatabase.token": ("cli", "serve --replica-of URL --token TOKEN"),
    "ReplicaDatabase.page_size": (
        "claim", "a replica's recovered page size; ROADMAP 16"),
    "ReplicaDatabase.pool_capacity": (
        "claim", "a replica's buffer pool; ROADMAP 16"),
    "ReplicaDatabase.reconnect_policy": (
        "claim", "reconnect backoff schedule (tests/test_resilience.py); "
        "ROADMAP 16"),
    "ReplicaDatabase.connect_timeout_seconds": (
        "claim", "dial bound to the primary; ROADMAP 16"),
    "ReplicaDatabase.stall_timeout_seconds": (
        "claim", "stalled-stream detection (tools/replication_smoke.py, chaos "
        "tests); ROADMAP 16"),
    "ReplicaDatabase.max_frame_bytes": (
        "claim", "shipped-batch frame limit (replication chaos tests); ROADMAP 16"),
    "ReplicaDatabase.auto_start": (
        "claim", "test seam: tests drive the tail loop by hand or only "
        "promote; ROADMAP 16"),
    # -- repro.concurrency -----------------------------------------------
    "RWLatch.name": ("workload", "Database names its facade latch RWLatch('db')"),
    # -- repro.core ------------------------------------------------------
    "SignatureScheme.seed": (
        "experiment", "the empirical testbed hashes with config.seed; the "
        "catalog forwards create_*_index(seed=)"),
    "ElementHasher.seed": (
        "experiment", "SignatureScheme forwards its seed"),
    "BitVector.words": (
        "claim", "BitVector's algebra (copy, |, &, ~, from_bytes) wraps "
        "existing words; only tests/core and the per-entry reference "
        "oracles run it; ROADMAP 10 keeps it as the drop-test reference"),
    # -- repro.storage ---------------------------------------------------
    "StorageManager.page_size": ("workload", "Database(page_size=PAGE_SIZE)"),
    "StorageManager.pool_capacity": (
        "experiment", "Database(pool_capacity=) of bench_ablation_buffer"),
    "DiskStore.page_size": ("workload", "StorageManager forwards its page size"),
    "BufferPool.capacity": (
        "experiment", "StorageManager forwards pool_capacity "
        "(bench_ablation_buffer)"),
    "DecodeSlot.traced": (
        "workload", "SSF and BSSF hold traced slots (decode=hit/miss spans)"),
    "Page.page_size": ("workload", "every page image is built at the file's page size"),
    "Page.data": ("workload", "device reads and imaged writes build pages from bytes"),
    "FaultInjector.rules": (
        "claim", "crash matrices and tools/lsm_smoke.py's crash drills; "
        "ROADMAP 9's simulation harness"),
    "FaultInjector.seed": (
        "claim", "seeded random faults (tests/faults/test_random_smoke.py); "
        "ROADMAP 9"),
    "FaultInjector.transient_read_rate": (
        "claim", "transient read faults (tests/faults/test_random_smoke.py); "
        "ROADMAP 9"),
    # -- repro.access ----------------------------------------------------
    "SequentialSignatureFile.file_prefix": (
        "workload", "the facility catalog names every SSF's files (LSM runs too)"),
    "BitSlicedSignatureFile.file_prefix": (
        "workload", "the facility catalog names every BSSF's files (LSM runs too)"),
    "BitSlicedSignatureFile.worst_case_insert": (
        "claim", "Table 7's worst-case BSSF insert, UC_I = F + 1 (empirical_updates "
        "measures only the expected case); ROADMAP 10 measures it or drops it"),
    "NestedIndex.file_prefix": (
        "workload", "the facility catalog names local_read's NIX files"),
    "NestedIndex.overflow_chains": (
        "experiment", "bench_ablation_skew's chained NIX (ablation_skew_chained)"),
    "BPlusTree.overflow_chains": (
        "experiment", "NestedIndex forwards overflow_chains (ablation_skew_chained)"),
    "LeafEntry.oids": ("workload", "NIX leaf entries carry their posting lists"),
    "LeafEntry.overflow_page": (
        "experiment", "chained posting lists (ablation_skew_chained)"),
    "OIDFile.entry_count": (
        "workload", "SSF/BSSF re-attach at recovery (churn_* recover_s)"),
    "SearchResult.detail": (
        "workload", "every facility search reports its drops and slices"),
    "SearchResult.words": (
        "workload", "SSF/BSSF searches hand their live words to drop resolution"),
    # -- repro.lsm -------------------------------------------------------
    "LSMSignatureFacility.flush_threshold": (
        "workload", "churn_lsm's facilities, through the catalog's defaults"),
    "LSMSignatureFacility.fanout": (
        "workload", "churn_lsm's facilities, through the catalog's defaults"),
    "Compactor.interval": (
        "claim", "background merge cadence (tests/lsm/test_compactor.py); "
        "ROADMAP 5 moves the merge onto this thread"),
    # -- repro.obs -------------------------------------------------------
    "Tracer.io_source": (
        "cli", "sigfile-repro trace; the executor traces against its "
        "storage (the ledger's --trace 1 pass)"),
    "Tracer.sinks": (
        "claim", "span sinks (tests/obs); ROADMAP 11's cross-boundary traces"),
    "Tracer.max_roots": (
        "claim", "bounded root ring for long sessions (tests/obs); ROADMAP 11"),
    "RingBufferSink.capacity": (
        "claim", "in-memory span sink (tests/obs); ROADMAP 11"),
    # -- repro.shell -----------------------------------------------------
    "Shell.database": ("cli", "sigfile-repro shell --load SNAPSHOT"),
}


def _api_packages() -> List[str]:
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "gen_api_docs.py"
    spec = importlib.util.spec_from_file_location("_census_gen_api_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGES


def _defaulted(function) -> List[str]:
    return [
        name
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


def _surface() -> Dict[str, List[str]]:
    """``{owner: [defaulted parameter, ...]}`` for every censused callable."""
    owners: Dict[str, List[str]] = {}
    seen = set()
    for package in _api_packages():
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if (
                not inspect.isclass(obj)
                or obj in seen
                or dataclasses.is_dataclass(obj)
                or issubclass(obj, BaseException)
            ):
                continue
            seen.add(obj)
            assert obj.__qualname__ not in owners, obj.__qualname__
            owners[obj.__qualname__] = _defaulted(obj.__init__)
    owners["Database.open"] = _defaulted(Database.open)
    return owners


SURFACE = _surface()


def _entries_for(owner: str) -> List[str]:
    prefix = owner + "."
    return [
        key[len(prefix):]
        for key in CENSUS
        if key.startswith(prefix) and "." not in key[len(prefix):]
    ]


@pytest.mark.parametrize("owner", sorted(SURFACE))
def test_every_option_is_in_the_census(owner):
    missing = [p for p in SURFACE[owner] if f"{owner}.{p}" not in CENSUS]
    assert not missing, (
        f"{owner} has options no census entry names: {missing}; add each "
        "to CENSUS with what reaches it (a workload, an experiment, a CLI "
        "flag, or a claim naming its ROADMAP item), or delete it"
    )


@pytest.mark.parametrize("owner", sorted(SURFACE))
def test_no_census_entry_outlives_its_option(owner):
    stale = sorted(set(_entries_for(owner)) - set(SURFACE[owner]))
    assert not stale, f"CENSUS names options {owner} no longer has: {stale}"


def test_every_census_entry_names_a_censused_owner():
    owners = {key.rsplit(".", 1)[0] for key in CENSUS}
    assert owners <= set(SURFACE), sorted(owners - set(SURFACE))


def test_every_entry_says_what_reaches_it():
    for key, (kind, what) in CENSUS.items():
        assert kind in KINDS, f"{key}: kind {kind!r} is not one of {KINDS}"
        assert what.strip(), f"{key}: names nothing that reaches it"
        if kind == "claim":
            assert re.search(r"ROADMAP \d+", what), (
                f"{key}: a claim names the ROADMAP item that decides it"
            )
