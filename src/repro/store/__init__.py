"""Persistent decomposition store: the L2 tier behind the engine cache.

The in-memory :class:`~repro.engine.DecompositionCache` (L1) makes expensive
decompositions compute-once within a process; this package makes them
compute-once across *processes and restarts*:

* :mod:`repro.store.store` — :class:`DecompositionStore`, a
  content-addressed, file-backed store (directory-sharded uncompressed
  ``.npz`` blobs, atomic renames, size-budget LRU eviction,
  corruption-tolerant loads) keyed by the same ``(fingerprint, kind)``
  pairs as the cache,
* :mod:`repro.store.codec` — pickle-free (de)hydration of the persisted
  cache kinds (finished verdicts, admissible reduction, Riccati
  certificate, update lineage), including allow-listed negative entries.

Attach a store when constructing a cache —
``DecompositionCache(store=DecompositionStore("…"))`` — and every consumer
up the stack (``check_passivity``, :class:`~repro.engine.BatchRunner`
process workers, the :class:`~repro.service.PassivityService` process-pool
executor) shares decompositions fleet-wide.  See ``docs/store.md``.
"""

from repro.store.codec import PERSISTED_KINDS, decode_entry, encode_entry
from repro.store.store import DecompositionStore

__all__ = [
    "DecompositionStore",
    "PERSISTED_KINDS",
    "encode_entry",
    "decode_entry",
]
