"""The ledger's ``storage.decode_cache_hit_ratio`` line, gated from tier-1.

The ledger's own check of this line —
``benchmarks/ledger/tests/test_ledger.py::test_the_decode_cache_separates_read_from_churn``
— also demands that ``churn_wal`` reads *below* ``local_read``: "every
in-place write invalidates the decode cache". That stopped being true when
in-place writes began patching the cached payloads (``DecodeSlot.follow``),
and it is the one assertion there that now fails; the file belongs to the
benchmark and is restated with it, not with the change it measures. What
that test still rightly asserts, and what replaces the line that no longer
holds, is kept here so the suite that gates every PR covers it.

The counters behind the line are every ``DecodeSlot``'s, and that now
includes each object file's record decode: drop resolution looks it up
once per query and class (``ObjectFile.select``), and in-place object
writes patch it like the facilities' payloads, so the object-file lookups
count as hits here on every workload.

Three traced ``--smoke`` runs of the ledger command, about two seconds each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1993  # the ledger tests' own
NAME = "storage.decode_cache_hit_ratio"


def traced_hit_ratio(workload: str) -> float:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "benchmarks", "ledger", "run.py"),
            "--workload", workload, "--smoke", "--trace", "1", "--seed", str(SEED),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"][NAME]["value"]


@pytest.fixture(scope="module")
def local() -> float:
    return traced_hit_ratio("local_read")


def test_a_read_only_workload_always_hits(local):
    assert local >= 0.95


def test_in_place_writes_carry_the_payloads_across(local):
    """Was ``churn_wal < local``: a write dropped both payloads, ratio 0.0."""
    assert traced_hit_ratio("churn_wal") >= 0.9


def test_lsm_churn_never_hits_more_than_reads_do(local):
    # A sealed run's first search decodes it once; an unchanged run never again.
    assert traced_hit_ratio("churn_lsm") <= local
