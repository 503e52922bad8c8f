"""Persistent verdict store: the L2 tier behind the engine cache.

The in-memory :class:`~repro.engine.DecompositionCache` (L1) makes expensive
decompositions and finished verdicts compute-once within a process; this
package makes the *verdict* compute-once across processes and restarts:
:class:`DecompositionStore` is a content-addressed, file-backed store of
finished :class:`~repro.passivity.PassivityReport` objects
(directory-sharded uncompressed ``.npz`` blobs holding the report's JSON
form, atomic renames, size-budget LRU eviction, corruption-tolerant loads)
keyed by the same verdict keys as the cache.

Attach a store when constructing a cache —
``DecompositionCache(store=DecompositionStore("…"))`` — and every consumer
up the stack (``check_passivity``, :class:`~repro.engine.BatchRunner`
process workers, the :class:`~repro.service.PassivityService` process-pool
executor) shares verdicts fleet-wide.  See ``docs/store.md``.
"""

from repro.store.store import DecompositionStore

__all__ = ["DecompositionStore"]
