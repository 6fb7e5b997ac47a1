"""An LSM facility's ``verify_decodes`` reaches the decodes of its runs.

Each run is an inner SSF or BSSF with its own held decodes, which
``check_consistency`` (and ``run_fsck --deep``) must check like those of
an in-place facility: a poisoned run decode is named and dropped. A run
also holds its signature rows, which a merge writes into new durable
pages: a poisoned row must be named by its run before it is copied.
"""

from __future__ import annotations

import pytest

from repro.errors import IndexCorruptionError
from repro.objects.database import Database
from repro.objects.schema import ClassSchema
from tests.access.test_writer_parity import preload_set


def two_runs():
    """A database whose LSM BSSF index has a bulk-loaded BSSF run and a
    flushed SSF run, every run decode held."""
    db = Database(page_size=512)
    db.define_class(ClassSchema.build("Item", items="set"))
    for serial in range(40):
        db.insert("Item", {"items": set(preload_set(serial))})
    lsm = db.create_bssf_index("Item", "items", 64, 2, lsm=True, flush_threshold=10)
    for serial in range(40, 50):
        db.insert("Item", {"items": set(preload_set(serial))})
    assert [run.layout for run in lsm.runs] == ["bssf", "ssf"]
    db.check_consistency()  # searches fill every run's decodes
    return db, lsm


def poison_run_0_slices(lsm):
    """Flip a bit of the BSSF run's held slice matrix (slice 5, page 0)."""
    inner = lsm.runs[0].inner
    inner._decode.held()[1][5, 0] ^= 1
    return inner._decode, inner._slice_files[5].name


def poison_run_1_oids(lsm):
    """Flip a bit of the SSF run's held OID table (entry 3, page 0)."""
    oids = lsm.runs[1].inner.oid_file
    oids._decode.held()[1][0][3] ^= 1
    return oids._decode, oids.file.name


@pytest.mark.parametrize("poison", [poison_run_0_slices, poison_run_1_oids])
def test_a_poisoned_run_decode(poison):
    db, lsm = two_runs()
    slot, name = poison(lsm)
    with pytest.raises(IndexCorruptionError, match=rf"'{name}'.* page 0 "):
        db.check_consistency()
    assert slot.held() is None
    db.check_consistency()  # dropped, decoded afresh


@pytest.mark.parametrize("run_index", [0, 1])
def test_a_poisoned_run_row(run_index):
    """Rows are checked against the signature file: read directly for the
    SSF run, transposed from the slice matrix for the BSSF run."""
    db, lsm = two_runs()
    run = lsm.runs[run_index]
    run.words = run.words.copy()
    run.words[3, 0] ^= 1
    with pytest.raises(
        IndexCorruptionError, match=rf"run {run.run_id}: held signature row 3 "
    ):
        db.check_consistency()
    run.words[3, 0] ^= 1
    db.check_consistency()
