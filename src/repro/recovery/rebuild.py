"""Facility reconstruction from the object file.

SSF, BSSF and NIX are *derived* structures: every bit of their content is a
function of the live objects, so losing or corrupting one is never fatal —
it can be dropped and bulk-loaded again from the object store. This module
is the single implementation of that rebuild, shared by
:meth:`Database.rebuild_facility`, :meth:`Database.vacuum_index` (a rebuild
is exactly a vacuum: tombstones do not survive it), and ``fsck --repair``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import AccessFacilityError
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:
    from repro.access.base import SetAccessFacility
    from repro.objects.database import Database


def rebuild_facility(
    database: "Database",
    class_name: str,
    attribute: str,
    facility_name: Optional[str] = None,
) -> "SetAccessFacility":
    """Drop one facility's files and bulk-load a fresh one from the objects.

    Works whether or not the old files are readable — configuration
    (signature scheme, option flags) lives on the in-memory handle, and the
    new content comes entirely from the object file. Clears the facility's
    degraded mark and increments the ``recovery.rebuilds`` metric. Returns
    the new facility; the old handle is invalid afterwards.
    """
    old = database.index(class_name, attribute, facility_name)
    name = old.name
    with database._wal_op(lambda: ["rebuild", class_name, attribute, name]):
        del database._indexes[(class_name, attribute)][name]
        prefix = f"{old.file_prefix}:"
        for file_name in list(database.storage.store.file_names()):
            if file_name.startswith(prefix):
                database.storage.drop_file(file_name)
        try:
            # The create path's backfill bulk-loads the surviving objects
            # (an LSM facility seals them into one fresh run; the prefix
            # drop above removed every run file and manifest slot). The
            # params name the layout, so the new facility keeps the old's.
            kind, params = old.create_params()
            rebuilt = database.create_index(kind, class_name, attribute, params)
        except Exception:
            # The facility is gone and could not be recreated; leave the
            # degraded mark so queries keep falling back to scans.
            database.mark_degraded(class_name, attribute, name, "rebuild failed")
            raise
    database.clear_degraded(class_name, attribute, name)
    REGISTRY.counter("recovery.rebuilds").inc()
    return rebuilt


def rebuild_degraded(database: "Database") -> List[str]:
    """Rebuild every facility currently marked degraded.

    Returns the rebuilt paths as ``class.attribute/facility`` strings.
    Facilities whose registration disappeared (e.g. dropped concurrently)
    are skipped rather than fatal.
    """
    rebuilt = []
    for (class_name, attribute, name) in sorted(database._degraded):
        try:
            rebuild_facility(database, class_name, attribute, name)
        except AccessFacilityError:
            continue
        rebuilt.append(f"{class_name}.{attribute}/{name}")
    return rebuilt
