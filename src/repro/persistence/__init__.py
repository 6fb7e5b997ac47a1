"""Database snapshots: save/load a full Database to/from a single file."""

from repro.persistence.format import FORMAT_VERSION, MAGIC
from repro.persistence.snapshot import (
    build_catalog,
    load_database,
    save_database,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "build_catalog",
    "load_database",
    "save_database",
]
