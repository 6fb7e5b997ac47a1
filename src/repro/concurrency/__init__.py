"""Concurrency primitives for serving many queries at once.

The reproduction's substrate was built single-threaded; this package adds
the pieces that let it serve concurrent traffic without perturbing the
golden page-access counts the reproduction depends on:

* :class:`~repro.concurrency.latch.RWLatch` — a writer-preference,
  reentrant-read reader-writer latch installed at the
  :class:`~repro.objects.database.Database` facade (queries share it in
  read mode; every mutating facade operation takes it in write mode).

Thread-safety of the shared storage substrate (buffer pool, decode cache,
disk store, metrics registry, per-thread I/O accounting) lives with the
components themselves; see ``docs/CONCURRENCY.md`` for the full latch
hierarchy and the exact thread-safety contract. The worker-pool serving
surface is :class:`repro.server.QueryService`.
"""

from repro.concurrency.latch import RWLatch

__all__ = ["RWLatch"]
