"""Recovery: fsck sweeps and facility reconstruction.

Access facilities are derived data — anything fault injection (or a real
fault) destroys can be rebuilt from the object file. :func:`run_fsck`
finds the damage; :func:`rebuild_facility` repairs it.
"""

from repro.access.catalog import FACILITY_KINDS, facility_of_file
from repro.recovery.fsck import FsckIssue, FsckReport, run_fsck
from repro.recovery.rebuild import rebuild_degraded, rebuild_facility

__all__ = [
    "FACILITY_KINDS",
    "FsckIssue",
    "FsckReport",
    "facility_of_file",
    "rebuild_degraded",
    "rebuild_facility",
    "run_fsck",
]
