"""LSM-structured write path for signature facilities.

In-place facility maintenance (ROADMAP item 2) mutates signature files
under the database write latch and pays one WAL fsync per update. The LSM
path restructures writes as append-only:

* :class:`~repro.lsm.memtable.MemTable` — absorbs inserts/deletes in
  memory; the WAL alone makes them durable, so fsyncs can be amortized
  with a group-commit interval.
* :class:`~repro.lsm.run.SignatureRun` — an immutable signature segment
  (reusing the packed kernels and per-page CRC sidecars) whose record is
  its signature rows, held and written to its entry table: sequential
  when sealed from a flushed memtable, in the facility's kind when
  bulk-loaded or merged.
* :class:`~repro.lsm.manifest.RunManifest` — dual-slot, versioned,
  checksummed installs of one fixed-size descriptor per live run; a torn
  install rolls back to the previous version.
* :class:`~repro.lsm.compactor.Compactor` — tiered merges of runs,
  inline (deterministic) or on a background thread.
* :class:`~repro.lsm.facility.LSMSignatureFacility` — the
  :class:`~repro.access.base.SetAccessFacility` facade tying them
  together; query answers are bit-identical to the in-place path.
"""

from repro.lsm.compactor import Compactor
from repro.lsm.facility import LSMSignatureFacility
from repro.lsm.manifest import RunManifest
from repro.lsm.memtable import MemTable
from repro.lsm.run import SignatureRun

__all__ = [
    "Compactor",
    "LSMSignatureFacility",
    "MemTable",
    "RunManifest",
    "SignatureRun",
]
