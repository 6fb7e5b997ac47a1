"""Per-page reference implementations of SSF, BSSF and the OID lookup.

The shipped facilities answer searches from decoded word matrices and
*charge* the pages the paper's algorithms read (``peek_page`` +
``charge_reads`` / ``touch_files``). The classes here are the algorithms
themselves, transliterated: one ``PagedFile.read_page`` per page, one
``unpackbits`` per page image, a Python loop per slice. They are the
oracle the parity, golden and tracing-on suites compare against — built
on a twin ``StorageManager`` holding the same page files, so every
counter they produce is a real fetch the shipped path has to reproduce.

Each oracle subclasses the shipped class and overrides exactly the methods
that read or build signature pages in bulk (``bulk_load``, ``read_slice``,
``search_*``, ``get_many``); single-page maintenance (``insert``,
``delete``, ``scan_live``) has only ever had one implementation and is
inherited.
"""

from tests.reference.bssf import ReferenceBSSF
from tests.reference.oid_file import ReferenceOIDFile
from tests.reference.ssf import ReferenceSSF

__all__ = ["ReferenceBSSF", "ReferenceOIDFile", "ReferenceSSF"]
