"""Paged storage substrate: simulated disk, buffer pool, I/O accounting.

The OODB object store and every access facility (SSF, BSSF, NIX) are built
on this layer; its logical page-access counters are the empirical
counterpart of the paper's analytical cost model.
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.decode_cache import DecodeSlot
from repro.storage.disk import DiskStore
from repro.storage.faults import (
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    with_retries,
)
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.paged_file import PagedFile, StorageManager
from repro.storage.stats import FileIOCounts, IOSnapshot, IOStatistics

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_RETRY_POLICY",
    "DecodeSlot",
    "DiskStore",
    "FaultInjector",
    "FaultRule",
    "FileIOCounts",
    "InjectedFault",
    "IOSnapshot",
    "IOStatistics",
    "Page",
    "PagedFile",
    "RetryPolicy",
    "StorageManager",
    "with_retries",
]
