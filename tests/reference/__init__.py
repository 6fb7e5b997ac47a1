"""Per-page reference implementations of SSF, BSSF, the OID file and NIX.

The shipped facilities answer searches from decoded word matrices and
*charge* the pages the paper's algorithms read (``peek_page`` +
``charge_reads`` / ``touch_files``). The classes here are the algorithms
themselves, transliterated: one ``PagedFile.read_page`` per page, one
``unpackbits`` per page image, a Python loop per slice. They are the
oracle the parity, golden and tracing-on suites compare against — built
on a twin ``StorageManager`` holding the same page files, so every
counter they produce is a real fetch the shipped path has to reproduce.

Each oracle subclasses the shipped class and overrides exactly the methods
the shipped class answers from packed words: those that read or build
signature pages in bulk (``bulk_load``, ``read_slice``, ``search_*``), the
writes (``insert`` and ``delete``, and ``apply`` as one of them per op,
where the shipped ``apply`` writes each page of a batch once) and, on the
OID file, ``get_many``, ``append`` plus the ``delete`` and ``scan_live``
scans, which here fetch every page they touch and compare one slot at a
time through ``Page.read_bytes``. The oracles never read a decode cache.

:mod:`tests.reference.nix_tree` does the same for the nested index: a
B+-tree that fetches and decodes (one field at a time, through
:mod:`tests.reference.nix_node`) every page it touches, under searches
that loop over Python sets of ``OID`` objects.
:mod:`tests.reference.drop_resolution` is drop resolution as the
executor once ran it: one ``fetch`` and one predicate test per candidate.
:mod:`tests.reference.replay` is WAL replay as it once ran: every
record's facility upkeep applied with the record, one op per call.
"""

from tests.reference.bssf import ReferenceBSSF
from tests.reference.drop_resolution import ReferenceObjectStore
from tests.reference.nix_tree import ReferenceBPlusTree, ReferenceNestedIndex
from tests.reference.oid_file import ReferenceOIDFile
from tests.reference.ssf import ReferenceSSF

__all__ = [
    "ReferenceBPlusTree",
    "ReferenceBSSF",
    "ReferenceNestedIndex",
    "ReferenceOIDFile",
    "ReferenceObjectStore",
    "ReferenceSSF",
]
