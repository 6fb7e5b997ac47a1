#!/bin/sh
# Repo check: tier-1 test suite, the explicit gates below, the loopback
# drills, then the ledger benchmark's tests and smoke run with its tracer
# ceiling. The script stops at its first red step (set -e), so the ledger
# steps come last: a failure there cannot keep the drills from running.
set -e

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== tracing overhead guard =="
# Golden page-access counts must be bit-identical with a live tracer
# attached (tier-1 already covers this; kept as an explicit gate so a
# future tier-1 reshuffle cannot silently drop it).
python -m pytest tests/obs/test_no_overhead.py -q

echo "== option census =="
# Every defaulted constructor parameter of the documented API must name
# what reaches it (a ledger workload, a paper experiment, a CLI flag, or
# a claim with its ROADMAP item), and no census entry may outlive its
# parameter (tier-1 covers this too; an explicit gate so a reshuffle
# cannot drop it).
python -m pytest tests/test_option_census.py -q

echo "== page-count parity =="
# Every path that answers from decoded state and *charges* the pages it
# stands for (SSF/BSSF kernels, the OID table, drop resolution by page
# run on cached record decodes, the nested index's node map, and the
# writes that image the pages they rewrite from those decodes) must leave
# logical, physical and pool counters exactly where the per-page
# algorithms leave them, and a torn page must still stop a rewrite. Each
# of those decodes is held in one DecodeSlot, whose own verify (every
# facility's verify_decodes, LSM runs included) must find a poisoned
# decode, name its file and page and drop it (tier-1 covers this too; an
# explicit gate so a reshuffle cannot drop it).
python -m pytest tests/access/test_golden_page_accesses.py \
    tests/test_cached_mode.py tests/obs/test_no_overhead.py \
    tests/objects/test_fetch_many.py tests/objects/test_drop_resolution.py \
    tests/access/test_nix_cache.py \
    tests/access/test_kernel_parity.py tests/access/test_writer_parity.py \
    tests/access/test_verify_decodes.py tests/storage/test_decode_cache.py \
    tests/lsm/test_verify_decodes.py -q

echo "== LSM search equals in-place =="
# An LSM search derives the query's packed words once and tests the
# memtable in one row-kernel pass and each run through its inner
# facility's search_words: candidates (order included) must equal the
# in-place facility's under random interleavings, layouts must answer
# alike, and the memtable's drops must equal the per-entry oracle of
# tests/reference/memtable.py. A run's signature rows are its record: a
# flush seals the memtable's rows and a merge gathers its victims' rows,
# so neither hashes a set, the entry table round-trips the rows, and
# verify_decodes checks the held rows against the signature pages a merge
# copies them into (tier-1 covers this too; an explicit gate so a
# reshuffle cannot drop it).
python -m pytest tests/lsm/test_differential.py tests/lsm/test_run.py \
    tests/lsm/test_memtable_oracle.py tests/lsm/test_facility.py \
    tests/lsm/test_verify_decodes.py -q

echo "== front-of-query parity =="
# The scanner, the memoised plan pricing and the running statistics must
# be indistinguishable from what they replaced: the tokenise-then-walk
# parser and the un-memoised pricing live on as tests/reference/ oracles
# (same ParsedQuery or ParseError message; AccessPlan equal to the bit,
# cold and warm memo), and a refreshed AttributeStatistics must equal a
# scan at that instant whatever the write history (tier-1 covers this
# too; an explicit gate so a reshuffle cannot drop it).
python -m pytest tests/query/test_parser.py \
    tests/query/test_parser_properties.py tests/query/test_parser_oracle.py \
    tests/query/test_planner.py tests/query/test_plan_oracle.py \
    tests/objects/test_statistics.py tests/objects/test_running_statistics.py \
    tests/concurrency/test_statistics_refresh.py -q

echo "== facility catalog =="
# One table decides a facility's kind, options and files: every kind and
# layout must come back with the same class, catalog entry and create
# params through WAL replay, snapshot load, rebuild and partition, and the
# create_index record and snapshot entry fields are pinned literally, so
# logs and snapshots written by earlier builds still load (tier-1 covers
# this too; an explicit gate so a reshuffle cannot drop it). The snapshot
# container is written as version 2 (each page up to its last nonzero
# byte) and read as version 1 or 2; tests/persistence/test_snapshot.py
# loads a hand-written version-1 file.
python -m pytest tests/access/test_catalog.py tests/persistence \
    tests/objects/test_database.py tests/sharding/test_partitioner.py -q

echo "== REPORT.md is current =="
# The checked-in report must be what the experiments print today: a
# change that moves a figure or a table fails here until the report is
# regenerated (python -m repro.cli report).
report_tmp="$(mktemp)"
python -m repro.cli report --output "$report_tmp" 2> /dev/null
if ! cmp "$report_tmp" REPORT.md; then
    rm -f "$report_tmp"
    echo "REPORT.md is stale; run: python -m repro.cli report" >&2
    exit 1
fi
rm -f "$report_tmp"

echo "== fault injection (fixed seed) =="
python -m pytest tests/faults -q

echo "== wal crash matrix (fixed seed) =="
# Byte-equivalence of crash recovery at every sampled WAL-append, torn
# write, and device-write crash point, and of batched replay against the
# record-at-a-time oracle in tests/reference/replay.py; replay takes the
# facade's write path, so a replica's running statistics follow shipped
# records, and a durability="lsm" database stays "lsm" through reopen,
# checkpoint and promotion (tier-1 covers this too; an explicit gate so
# a tier-1 reshuffle cannot silently drop it). A checkpoint renames its
# snapshot, then fsyncs the WAL directory, then truncates the log (whose
# own rename is fsynced too): tests/wal/test_checkpoint_fsync.py holds
# that order, so a power loss cannot keep the truncation and lose the
# snapshot that covers the dropped records.
python -m pytest tests/faults/test_wal_crash_matrix.py \
    tests/wal/test_replay_batch.py tests/wal/test_checkpoint_fsync.py tests/wal \
    tests/objects/test_running_statistics.py \
    tests/replication/test_promote_layout.py -q

echo "== fault injection (randomized smoke) =="
# A fresh seed each run widens coverage over time; the seed is printed so
# any failure can be reproduced exactly.
FAULTS_RANDOM_SEED="${FAULTS_RANDOM_SEED:-$(python -c 'import secrets; print(secrets.randbelow(2**32))')}"
export FAULTS_RANDOM_SEED
echo "randomized fault seed: $FAULTS_RANDOM_SEED"
python -m pytest tests/faults/test_random_smoke.py -q

echo "== wal randomized smoke =="
# Same seed as above: random crash points and transient append faults.
python -m pytest tests/wal/test_random_smoke.py -q

echo "== concurrency (latches, service, equivalence, stress) =="
# The equivalence suite demands concurrent serving byte-identical to a
# sequential replay (results, plans, merged page counts); the stress
# test races readers against a writer under WAL durability and checks
# fsck + replay stay clean. Runs under the randomized seed exported
# above so failures reproduce exactly.
python -m pytest tests/concurrency -q

echo "== resilience =="
# One retry schedule, one circuit breaker and one deadline budget serve
# the router, the failover client, the remote client, admission, the
# replica's reconnect loop and the buffer pool's device retries: each
# schedule against the formula its loop used before, the breaker's
# counts under contention, and every suite whose loop calls it (tier-1
# covers this too; an explicit gate so a reshuffle cannot drop it).
python -m pytest tests/test_resilience.py tests/sharding \
    tests/replication/test_failover.py tests/serving/test_reconnect.py \
    tests/concurrency/test_service.py tests/faults/test_fault_injector.py -q

echo "== serving =="
# One QueryBackend contract over every backend make_service and connect
# build (one-worker and thread QueryService, remote client, routers over
# each, LSM and replicated), and the wire codec's three option keys and
# its refusal of malformed ones (tier-1 covers this too; an explicit gate
# so a reshuffle cannot drop it).
python -m pytest tests/serving -q

echo "== replication smoke (loopback failover drill) =="
# Primary + tailing replica over loopback, random workload with a
# mid-stream checkpoint, hard primary kill, promote — the promoted
# replica must be byte-identical to the primary's durable prefix and the
# FailoverClient must ride the failover with zero transport errors.
python tools/replication_smoke.py

echo "== lsm smoke (flush/compact/crash drill) =="
# Fixed-seed churn over paired in-place / LSM databases: every canonical
# query must agree on plans, rows and object-file pages (with enough
# churn that the LSM path really flushed and compacted), then crash
# drills mid-run-file build and mid-manifest install must recover to the
# durable prefix with a clean deep fsck.
python tools/lsm_smoke.py

echo "== sharding smoke (loopback chaos drill) =="
# Three hash-partitioned shard servers behind a ShardRouter: healthy
# merges must be bit-identical to unsharded answers (rows + object-file
# page counts), a hard shard kill must raise the typed strict-mode error
# and keep degraded mode answering exact subsets, and the restarted
# shard must rejoin within the breaker cool-down.
python tools/sharding_smoke.py

echo "== ledger benchmark (its own tests + one smoke run) =="
# The ledger (BENCHMARK.json) imports planner, facility, wire and
# sharding internals from src/; running its tests and a smoke pass here
# makes a src/ change that breaks those imports fail in check, not in
# the benchmark run.
python -m pytest benchmarks/ledger/tests -q
rm -f /tmp/LEDGER_smoke.jsonl
python3 benchmarks/ledger/run.py --all --smoke \
    --out /tmp/LEDGER_smoke.jsonl > /dev/null

echo "== tracer ceiling (ledger trace_overhead_ratio) =="
# On local_read's traced pass the ledger times every other end-to-end
# request without a span; a request under an active tracer may cost at
# most 1.4x one without. The ceiling is loose so CI noise cannot flake it,
# while a tracer that does real work per span still fails it.
python3 benchmarks/ledger/run.py --workload local_read --trace 1 --smoke \
    --out /tmp/LEDGER_smoke.jsonl > /dev/null
python - <<'PY'
import json
import sys

with open("/tmp/LEDGER_smoke.jsonl") as stream:
    record = json.loads(stream.read().splitlines()[-1])
ratio = record["metrics"]["ledger.trace_overhead_ratio"]["value"]
print(f"tracer overhead: {ratio:.2f}x (ceiling 1.4x)")
sys.exit(0 if ratio <= 1.4 else 1)
PY

echo "OK"
