"""Fingerprint-keyed cache of expensive decomposition intermediates.

Every passivity method in the library front-loads an O(n^3) structural
computation — the grade-1/2 chain structure at infinity for the SHH test, the
(quasi-)Weierstrass canonical form for the decomposition baseline, the
admissible Schur-complement reduction for the GARE test, the additive
decomposition for enforcement and model reduction.  When several methods (or
repeated calls) analyse the *same* system, those intermediates are identical
and recomputing them is pure waste.

:class:`DecompositionCache` keys each intermediate by a SHA-256 fingerprint of
the system matrices ``(E, A, B, C, D)`` together with the tolerance bundle
(rank decisions depend on the thresholds, so the same matrices under different
tolerances are different cache entries).  The cache is bounded (LRU), thread
safe, and keeps per-kind hit/miss counters so batch sweeps can verify the
sharing actually happened.

One kind holds no intermediate: ``verdict`` is the finished
:class:`~repro.passivity.PassivityReport` of a ``check_passivity`` call,
keyed by :func:`~repro.engine.api.verdict_key` (fingerprint, method, runner,
options in their :func:`canonical_options` form) and read through
:meth:`DecompositionCache.verdict` before any other work.  It is also the
only kind the optional persistent store (L2) holds; every intermediate lives
in L1 only.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.decompose import AdditiveDecomposition, additive_decomposition
from repro.descriptor.system import DescriptorSystem, StateSpace
from repro.descriptor.weierstrass import WeierstrassForm, weierstrass_form
from repro.exceptions import NotAdmissibleError, SerializationError
from repro.linalg.pencil import SpectralContext, compute_spectral_context
from repro.linalg.sparse import SparseDeflation
from repro.obs.trace import trace_span
from repro.passivity.gare_test import (
    GareCertificate,
    admissible_to_state_space,
    solve_gare_certificate,
)
from repro.passivity.m1 import InfiniteChainData, impulsive_chain_data
from repro.passivity.result import PassivityReport
from repro.passivity.sparse_shh import SPARSE_DEFLATION, fetch_sparse_deflation

__all__ = [
    "CacheStats",
    "DecompositionCache",
    "SystemProfile",
    "canonical_options",
    "fingerprint_system",
    "profile_system",
    "CHAIN_DATA",
    "WEIERSTRASS_FORM",
    "ADDITIVE_DECOMPOSITION",
    "GARE_STATE_SPACE",
    "GARE_RICCATI",
    "SYSTEM_PROFILE",
    "PENCIL_SPECTRUM",
    "SPARSE_DEFLATION",
    "VERDICT",
    "KNOWN_KINDS",
    "ANCESTOR_KINDS",
]

#: Cache-entry kinds used by the built-in convenience accessors
#: (SPARSE_DEFLATION is owned by :mod:`repro.passivity.sparse_shh` and
#: re-exported here).
CHAIN_DATA = "chain_data"
WEIERSTRASS_FORM = "weierstrass_form"
ADDITIVE_DECOMPOSITION = "additive_decomposition"
GARE_STATE_SPACE = "gare_state_space"
GARE_RICCATI = "gare_riccati"
SYSTEM_PROFILE = "system_profile"
PENCIL_SPECTRUM = "pencil_spectrum"
#: The finished report of one ``check_passivity`` call.  Keyed by a verdict
#: key, not a system fingerprint, so it is read and written only through
#: :meth:`DecompositionCache.verdict` / :meth:`DecompositionCache.put_verdict`
#: and is not in :data:`KNOWN_KINDS`.  The only kind the L2 store holds.
VERDICT = "verdict"

#: Every cache kind the engine knows how to produce and consume.
#: :meth:`DecompositionCache.seed` validates against this set: seeding an
#: unknown kind would silently store an entry no accessor ever reads, which
#: is always a caller bug (typically a typo'd kind string).
KNOWN_KINDS = frozenset(
    {
        CHAIN_DATA,
        WEIERSTRASS_FORM,
        ADDITIVE_DECOMPOSITION,
        GARE_STATE_SPACE,
        GARE_RICCATI,
        SYSTEM_PROFILE,
        PENCIL_SPECTRUM,
        SPARSE_DEFLATION,
    }
)

#: Cache kinds whose presence makes a system a useful warm-start ancestor:
#: holding any of these means an incremental update can skip real work.
ANCESTOR_KINDS = frozenset({PENCIL_SPECTRUM, GARE_RICCATI, SYSTEM_PROFILE})


def fingerprint_system(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> str:
    """SHA-256 fingerprint of ``(E, A, B, C, D)`` plus the tolerance bundle.

    Two systems share a fingerprint exactly when their matrices are
    numerically identical and the rank/definiteness thresholds agree, which is
    the condition under which every decomposition intermediate coincides.

    The pencil stamps ``E`` and ``A`` are hashed through their *canonical CSR*
    triplets (sorted indices, duplicates summed, explicit zeros dropped), so:

    * a sparse-backed system is fingerprinted without ever densifying — the
      hash cost is O(nnz), not O(n^2) bytes,
    * a dense system and its sparse representation hash to the *same* key and
      therefore share cache entries,
    * structurally different sparsity patterns hash differently (the column
      index array is part of the digest).

    The thin matrices ``B``, ``C``, ``D`` are hashed as dense bytes (both
    representations store them dense).

    The digest is memoized on the (immutable) system instance per tolerance
    bundle: every cache operation re-fingerprints its argument, and on the
    incremental tier's hot path that adds up to a dozen hashes per corner.
    """
    tol = tol or DEFAULT_TOLERANCES
    memo_key = astuple(tol)
    memo = system.__dict__.get("_fingerprint_memo")
    if memo is not None and memo_key in memo:
        return memo[memo_key]
    hasher = hashlib.sha256()
    # sparse_e / sparse_a are canonical CSR in every path (__post_init__
    # canonicalizes sparse inputs, the dense view caches a canonicalized
    # conversion), so they are hashed directly.
    for label, canonical in (("E", system.sparse_e), ("A", system.sparse_a)):
        hasher.update(label.encode())
        hasher.update(repr(canonical.shape).encode())
        hasher.update(np.asarray(canonical.indptr, dtype=np.int64).tobytes())
        hasher.update(np.asarray(canonical.indices, dtype=np.int64).tobytes())
        hasher.update(np.ascontiguousarray(canonical.data).tobytes())
    for label, matrix in zip("BCD", (system.b, system.c, system.d)):
        hasher.update(label.encode())
        hasher.update(repr(matrix.shape).encode())
        hasher.update(np.ascontiguousarray(matrix).tobytes())
    hasher.update(repr(astuple(tol)).encode())
    digest = hasher.hexdigest()
    if memo is None:
        memo = {}
        object.__setattr__(system, "_fingerprint_memo", memo)
    memo[memo_key] = digest
    return digest


class _NoExactForm(Exception):
    """An option value has no exact canonical form."""


def _canonical(value: Any) -> Any:
    """Type-tagged, exact JSON form of one option value (see below)."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, int):
        return ["int", str(value)]
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, complex):
        return ["complex", value.real.hex(), value.imag.hex()]
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise _NoExactForm
        digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        return ["ndarray", array.dtype.str, list(array.shape), digest]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_canonical(item) for item in value]]
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise _NoExactForm
        return ["dict", [[key, _canonical(value[key])] for key in sorted(value)]]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = f"{type(value).__module__}.{type(value).__qualname__}"
        fields = [
            [item.name, _canonical(getattr(value, item.name))]
            for item in dataclasses.fields(value)
        ]
        return ["dataclass", name, fields]
    raise _NoExactForm


def canonical_options(options: Dict[str, Any]) -> Optional[str]:
    """Exact canonical form of a method-options dict, or ``None``.

    Two dicts share a form exactly when they hold equal values of equal
    types: floats compare by their bits, arrays by dtype, shape and a
    SHA-256 of their bytes (never by ``repr``, which elides the middle of a
    large array), dataclasses field by field.  A value of any other type —
    or an object array — has no exact form, and the call that carries it is
    neither coalesced by the service nor cached as a verdict.
    """
    try:
        return json.dumps(_canonical(dict(options)), separators=(",", ":"))
    except _NoExactForm:
        return None


#: The counters a :class:`CacheStats` sums; each is also a read-only attribute.
_COUNTERS = (
    "hits", "misses", "evictions", "factorizations", "l2_hits", "l2_misses",
    "l2_evictions", "incremental_hits", "incremental_fallbacks",
)


class CacheStats:
    """Hit/miss/eviction/factorization accounting, in aggregate and per kind.

    ``factorizations`` counts the *actual decomposition computations* the
    cache performed (every ``compute()`` it ran, including negatively cached
    refusals).  Hits and seeded entries do not count, so the counter is the
    assertable "how many O(n^3) factorizations did this workload really pay
    for" telemetry the single-factorization regression tests pin down.

    ``l2_hits`` / ``l2_misses`` / ``l2_evictions`` account for the optional
    persistent verdict store (:class:`~repro.store.DecompositionStore`): an
    L1 verdict miss answered from the store is an ``l2_hit``, one the store
    cannot answer is an ``l2_miss``, and store-side size-budget evictions
    triggered by this cache's writes are ``l2_evictions``.  They count only
    under ``verdict`` and stay zero for a store-less cache.

    ``incremental_hits`` / ``incremental_fallbacks`` account for the
    perturbation-aware tier (:mod:`repro.engine.incremental`): a hit is a
    verdict certified from a nearby ancestor without the cold factorizations,
    a fallback is an attempted update whose validity bound or residual test
    failed (the verdict was then recomputed from scratch, so fallbacks are
    a cost, never a correctness, signal).  ``update_residual_max`` is the
    high-watermark of the certified update residuals accepted so far.

    Lookups of the ``verdict`` kind (finished reports) count like any other
    kind; they never count a factorization.

    Every count lives in one mapping, :attr:`counts`, keyed by
    ``(kind, counter)``; counters no kind owns (``evictions``,
    ``l2_evictions`` and the incremental pair) sit under kind ``None``.  The
    aggregates of these counters and :attr:`by_kind` are derived from it,
    so :meth:`merge` adds, :meth:`minus` subtracts and :meth:`snapshot`
    copies in one loop each.  ``update_residual_max`` is a running maximum,
    not a sum: merging keeps the larger, a delta keeps the current value.
    Reads iterate over a copy of the mapping, so reading a live cache's
    counters never fails; for a consistent copy of several counters at
    once, use :meth:`DecompositionCache.stats_since`, which holds the
    cache's lock.
    """

    def __init__(self) -> None:
        self.counts: Dict[Tuple[Optional[str], str], int] = {}
        self.update_residual_max = 0.0

    def add(self, counter: str, kind: Optional[str] = None, n: int = 1) -> None:
        """Count ``n`` events of ``counter``, under ``kind`` when one owns it."""
        key = (kind, counter)
        self.counts[key] = self.counts.get(key, 0) + n

    def record(self, kind: str, hit: bool) -> None:
        """Count one lookup of ``kind``."""
        self.add("hits" if hit else "misses", kind)

    def record_factorization(self, kind: str) -> None:
        """Count one actual decomposition computation for ``kind``."""
        self.add("factorizations", kind)

    def record_incremental(self, hit: bool, residual: float = 0.0) -> None:
        """Count one incremental-update attempt (hit or certified fallback)."""
        self.add("incremental_hits" if hit else "incremental_fallbacks")
        if hit:
            self.update_residual_max = max(self.update_residual_max, float(residual))

    def record_l2(self, kind: str, hit: bool) -> None:
        """Count one store (L2) consultation for ``kind``."""
        self.add("l2_hits" if hit else "l2_misses", kind)

    def total(self, counter: str) -> int:
        """``counter`` summed over every kind (the aggregate attributes)."""
        return sum(n for (_, name), n in list(self.counts.items()) if name == counter)

    def hits_for(self, kind: str) -> int:
        """Number of cache hits recorded for ``kind``."""
        return self.counts.get((kind, "hits"), 0)

    def misses_for(self, kind: str) -> int:
        """Number of cache misses recorded for ``kind``."""
        return self.counts.get((kind, "misses"), 0)

    def factorizations_for(self, kind: str) -> int:
        """Number of actual computations performed for ``kind``."""
        return self.counts.get((kind, "factorizations"), 0)

    @property
    def by_kind(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {counter: n}}``: ``hits`` and ``misses`` always, others once counted."""
        view: Dict[str, Dict[str, int]] = {}
        for (kind, counter), n in list(self.counts.items()):
            if kind is not None:
                view.setdefault(kind, {"hits": 0, "misses": 0})[counter] = n
        return view

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter set into this one (batch-worker aggregation)."""
        for (kind, counter), n in list(other.counts.items()):
            self.add(counter, kind, n)
        self.update_residual_max = max(self.update_residual_max, other.update_residual_max)

    def minus(self, baseline: "CacheStats") -> "CacheStats":
        """Counter deltas since ``baseline`` (per-sweep telemetry)."""
        delta = CacheStats()
        delta.update_residual_max = self.update_residual_max
        for key, n in list(self.counts.items()):
            if n != baseline.counts.get(key, 0):
                delta.counts[key] = n - baseline.counts.get(key, 0)
        return delta

    def snapshot(self) -> "CacheStats":
        """Independent copy of the current counters."""
        return self.minus(CacheStats())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when none ran)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


for _counter in _COUNTERS:
    setattr(
        CacheStats,
        _counter,
        property(
            lambda self, _counter=_counter: self.total(_counter),
            doc=f"``{_counter}`` summed over every kind.",
        ),
    )
del _counter


class DecompositionCache:
    """Bounded, thread-safe cache of per-system decomposition intermediates.

    Parameters
    ----------
    maxsize:
        Maximum number of cached entries (across all kinds); the least
        recently used entry is evicted first.  ``None`` disables eviction.
    store:
        Optional persistent verdict tier (:class:`~repro.store.DecompositionStore`
        or anything with its ``load``/``put`` surface).  An L1 miss in
        :meth:`verdict` consults the store — a hit answers the check with no
        work at all (``stats.l2_hits``) — and :meth:`put_verdict` writes
        finished reports back best-effort, so identical checks share their
        verdict across processes and restarts.  Intermediates never reach
        the store.  Store failures never fail a lookup; they degrade to
        computing.
    """

    def __init__(
        self,
        maxsize: Optional[int] = 256,
        store: Optional[Any] = None,
        ancestor_capacity: int = 32,
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be at least 1 (or None for unbounded)")
        if ancestor_capacity < 0:
            raise ValueError("ancestor_capacity must be non-negative")
        self.maxsize = maxsize
        self.store = store
        self.stats = CacheStats()
        self.ancestor_capacity = ancestor_capacity
        self._entries: "OrderedDict[Tuple[str, str], Tuple[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._key_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._ancestors: "OrderedDict[str, DescriptorSystem]" = OrderedDict()
        self._ancestor_lock = threading.Lock()

    def stats_since(self, baseline: Optional[CacheStats] = None) -> CacheStats:
        """Counters since ``baseline``; without one, a copy of :attr:`stats`.

        Taken under the cache's lock: cells on other threads record into
        the same counters while a caller reads them.
        """
        with self._lock:
            return self.stats.minus(baseline or CacheStats())

    def record_incremental(self, hit: bool, residual: float = 0.0) -> None:
        """Count one incremental-update attempt, under the cache's lock."""
        with self._lock:
            self.stats.record_incremental(hit, residual)

    def attach_store(self, store: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) the persistent L2 tier.

        Used by the service to point an already-built runner's cache at a
        store; entries cached in L1 before the attach stay valid.
        """
        self.store = store

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached entry (the counters keep their history)."""
        with self._lock:
            self._entries.clear()
            self._key_locks.clear()
        with self._ancestor_lock:
            self._ancestors.clear()

    # ------------------------------------------------------------------
    # Ancestor registry — the perturbation-aware tier's similarity index.
    # ------------------------------------------------------------------
    def register_ancestor(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> None:
        """Remember ``system`` as a potential warm-start ancestor.

        Systems whose spectral context / Riccati certificate pass through
        :meth:`get_or_compute` register themselves automatically; sweep
        drivers may also register explicitly.  The registry is a bounded LRU
        keyed by fingerprint (capacity ``ancestor_capacity``) holding the
        *system* objects, because computing a delta against a candidate needs
        its matrices, not just its hash.
        """
        if self.ancestor_capacity == 0:
            return
        fingerprint = fingerprint_system(system, tol)
        with self._ancestor_lock:
            self._ancestors[fingerprint] = system
            self._ancestors.move_to_end(fingerprint)
            while len(self._ancestors) > self.ancestor_capacity:
                self._ancestors.popitem(last=False)

    def nearest(
        self,
        system: DescriptorSystem,
        tol: Optional[Tolerances] = None,
        kinds: Tuple[str, ...] = (PENCIL_SPECTRUM,),
        max_distance: Optional[float] = None,
    ) -> Optional[Tuple[DescriptorSystem, float]]:
        """Locate the registered ancestor nearest to ``system``.

        Candidates must have the same matrix shapes, a *different*
        fingerprint, and currently hold a cached entry for **every** kind in
        ``kinds`` (an ancestor whose decompositions were evicted cannot seed
        an update).  Distance is the structured relative delta
        :func:`~repro.engine.incremental.delta_distance` — the sum over
        (E, A, B, C, D) of ``||delta||_F / max(1, ||ancestor||_F)``.

        Returns ``(ancestor, distance)`` for the closest candidate within
        ``max_distance`` (unbounded when ``None``), else ``None``.
        """
        from repro.engine.incremental import delta_distance

        fingerprint = fingerprint_system(system, tol)
        shapes = (
            system.e.shape,
            system.a.shape,
            system.b.shape,
            system.c.shape,
            system.d.shape,
        )
        with self._ancestor_lock:
            candidates = list(self._ancestors.items())
        best: Optional[Tuple[DescriptorSystem, float]] = None
        for cand_fp, candidate in reversed(candidates):
            if cand_fp == fingerprint:
                continue
            cand_shapes = (
                candidate.e.shape,
                candidate.a.shape,
                candidate.b.shape,
                candidate.c.shape,
                candidate.d.shape,
            )
            if cand_shapes != shapes:
                continue
            with self._lock:
                held = all((cand_fp, kind) in self._entries for kind in kinds)
            if not held:
                continue
            distance = delta_distance(candidate, system)
            if max_distance is not None and distance > max_distance:
                continue
            if best is None or distance < best[1]:
                best = (candidate, distance)
        return best

    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        system: DescriptorSystem,
        kind: str,
        compute: Callable[[], Any],
        tol: Optional[Tolerances] = None,
        cache_errors: Tuple[type, ...] = (),
    ) -> Any:
        """Return the cached intermediate of ``kind`` for ``system``.

        On a miss, ``compute()`` runs exactly once per key even under
        concurrent access (a per-key lock serializes racing threads) and the
        result is stored.  Exceptions of a type listed in ``cache_errors`` are
        cached as negative entries and re-raised on every subsequent lookup;
        any other exception propagates without polluting the cache.  L1
        only: the store holds verdicts, not intermediates.
        """
        key = (fingerprint_system(system, tol), kind)
        if kind in ANCESTOR_KINDS:
            self.register_ancestor(system, tol)
        with trace_span(f"cache.{kind}", order=system.order) as span:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    span.set(outcome="l1_hit")
                    return self._unwrap(key, kind, cached)
                key_lock = self._key_locks.setdefault(key, threading.Lock())
            with key_lock:
                with self._lock:
                    cached = self._entries.get(key)
                    if cached is not None:
                        span.set(outcome="l1_hit")
                        return self._unwrap(key, kind, cached)
                span.set(outcome="computed")
                try:
                    value = compute()
                except cache_errors as error:
                    self._store(key, kind, ("error", error), computed=True)
                    raise
                except BaseException:
                    # Not cached: drop the per-key lock so repeated failures
                    # on distinct systems cannot grow _key_locks without
                    # bound.
                    with self._lock:
                        self._key_locks.pop(key, None)
                    raise
                self._store(key, kind, ("value", value), computed=True)
                return value

    def contains(
        self,
        system: DescriptorSystem,
        kind: str,
        tol: Optional[Tolerances] = None,
    ) -> bool:
        """True when an entry of ``kind`` is cached for ``system`` (no stats).

        Reads L1 only, by design: the store holds verdicts, never the
        factors an incremental update needs from an ancestor.
        """
        key = (fingerprint_system(system, tol), kind)
        with self._lock:
            return key in self._entries

    def seed(
        self,
        system: DescriptorSystem,
        kind: str,
        value: Any,
        tol: Optional[Tolerances] = None,
    ) -> None:
        """Store a precomputed intermediate without running (or counting) a compute.

        Used to transfer decompositions across process boundaries: the batch
        runner computes a system's spectral context once in the parent and
        seeds each worker-local cache with it, so the worker's lookups are
        hits and its ``factorizations`` counter stays at zero.

        Raises
        ------
        SerializationError
            When ``kind`` is not one of :data:`KNOWN_KINDS` — no accessor
            would ever read such an entry, so accepting it would silently
            drop the seeded decomposition (typically a typo'd kind string).
        """
        if kind not in KNOWN_KINDS:
            raise SerializationError(
                f"cannot seed unknown cache kind {kind!r}; known kinds: "
                f"{', '.join(sorted(KNOWN_KINDS))}"
            )
        key = (fingerprint_system(system, tol), kind)
        if kind in ANCESTOR_KINDS:
            self.register_ancestor(system, tol)
        self._store(key, kind, ("value", value), computed=False, count_miss=False)

    def verdict(self, key: str) -> Optional[PassivityReport]:
        """The finished report cached under verdict key ``key``, or ``None``.

        Reads L1, then the store; an L2 hit is promoted to L1.  Counted
        under ``stats.by_kind["verdict"]`` like any kind (an L2 hit is an L1
        miss plus an ``l2_hit``) and traced as a ``cache.verdict`` span.
        Returns a copy, so the caller may stamp it freely.
        """
        entry_key = (key, VERDICT)
        with trace_span(f"cache.{VERDICT}") as span:
            with self._lock:
                cached = self._entries.get(entry_key)
                if cached is not None:
                    self._unwrap(entry_key, VERDICT, cached)
            if cached is not None:
                # Stored reports are never mutated, so copy outside the lock.
                span.set(outcome="l1_hit")
                return copy.deepcopy(cached[1])
            loaded = None
            if self.store is not None:
                try:
                    loaded = self.store.load(key)
                except Exception:  # noqa: BLE001 - L2 is an accelerator, not a dependency
                    pass
                with self._lock:
                    self.stats.record_l2(VERDICT, hit=loaded is not None)
            if loaded is None:
                with self._lock:
                    self.stats.record(VERDICT, hit=False)
                span.set(outcome="miss")
                return None
            span.set(outcome="l2_hit")
            self._store(entry_key, VERDICT, ("value", loaded), computed=False)
            return copy.deepcopy(loaded)

    def put_verdict(
        self, key: str, report: PassivityReport, persist: bool = True
    ) -> None:
        """Cache a copy of ``report`` under verdict key ``key``.

        Written through to the store unless ``persist`` is false (the
        service seeds its own L1 with verdicts a worker already persisted).
        Counts neither a miss nor a factorization: the lookup that missed
        and the decompositions behind the report were counted already.
        """
        stored = copy.deepcopy(report)
        self._store((key, VERDICT), VERDICT, ("value", stored), computed=False,
                    count_miss=False)
        if not persist or self.store is None:
            return
        try:
            evicted = self.store.put(key, stored)
        except Exception:  # noqa: BLE001 - persistence failures degrade, not fail
            return
        if evicted:
            with self._lock:
                self.stats.add("l2_evictions", n=evicted)

    def _unwrap(self, key, kind: str, entry: Tuple[str, Any]) -> Any:
        # Caller holds self._lock.
        self.stats.record(kind, hit=True)
        self._entries.move_to_end(key)
        tag, payload = entry
        if tag == "error":
            raise payload
        return payload

    def _store(
        self,
        key,
        kind: str,
        entry: Tuple[str, Any],
        computed: bool = True,
        count_miss: bool = True,
    ) -> None:
        with self._lock:
            if count_miss:
                self.stats.record(kind, hit=False)
            if computed:
                self.stats.record_factorization(kind)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._key_locks.pop(key, None)
            while self.maxsize is not None and len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.add("evictions")

    # ------------------------------------------------------------------
    # Convenience accessors for the intermediates the engine shares.
    # ------------------------------------------------------------------
    def chain_data(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> InfiniteChainData:
        """Grade-1/2 chain structure at infinity (Section 3.4 machinery)."""
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            CHAIN_DATA,
            lambda: impulsive_chain_data(system, effective),
            tol=effective,
        )

    def spectral(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> SpectralContext:
        """Ordered-QZ spectral context of the pencil ``(E, A)``.

        The compute-once bundle behind the engine's dense path: regularity,
        stability, the finite/infinite split and the Weierstrass transform
        seeds all come from this single factorization, which the profile, the
        passivity methods and the spectral separation share through the cache.
        The SHH test reads only regularity and stability, so it uses a context
        that is already cached but never requests one: cold, it classifies
        the pencil from its eigenvalues alone (no Schur vectors).
        """
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            PENCIL_SPECTRUM,
            lambda: compute_spectral_context(system.e, system.a, effective),
            tol=effective,
        )

    def weierstrass(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> WeierstrassForm:
        """(Quasi-)Weierstrass canonical form of the system.

        The ordered QZ underlying the form is fetched through
        :meth:`spectral`, so a cached spectral context makes this a
        reordering-free construction on top of the existing factorization.
        """
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            WEIERSTRASS_FORM,
            lambda: weierstrass_form(
                system, effective, context=self.spectral(system, effective)
            ),
            tol=effective,
        )

    def additive(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> AdditiveDecomposition:
        """Additive decomposition ``G = G_sp + M0 + s M1 + ...`` (Eq. 3)."""
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            ADDITIVE_DECOMPOSITION,
            lambda: additive_decomposition(
                system, effective, context=self.spectral(system, effective)
            ),
            tol=effective,
        )

    def gare_state_space(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> StateSpace:
        """Admissible Schur-complement reduction used by the GARE test.

        The admissibility pre-check inside the reduction reads the cached
        spectral context instead of re-running its own pencil spectrum.

        Raises
        ------
        NotAdmissibleError
            If the system is not admissible; the refusal is cached so repeated
            GARE attempts on the same system stay cheap.
        """
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            GARE_STATE_SPACE,
            lambda: admissible_to_state_space(
                system, effective, context=self.spectral(system, effective)
            ),
            tol=effective,
            cache_errors=(NotAdmissibleError,),
        )

    def gare_certificate(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> GareCertificate:
        """Riccati certificate of the GARE test (the expensive solve).

        Built on top of :meth:`gare_state_space`, so one cache fetch chain
        answers the whole GARE pipeline — admissibility, reduction and ARE
        solve — from prior work in this cache.  Solver failures are *values*
        here (captured inside the certificate), so they are cached like
        successes.

        Raises
        ------
        NotAdmissibleError
            If the system is not admissible (propagated from the underlying
            reduction, whose refusal is negatively cached).
        """
        effective = tol or DEFAULT_TOLERANCES
        return self.get_or_compute(
            system,
            GARE_RICCATI,
            lambda: solve_gare_certificate(
                self.gare_state_space(system, effective), effective
            ),
            tol=effective,
        )

    def sparse_deflation(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> SparseDeflation:
        """Permutation-based nondynamic-mode deflation of the sparse backend.

        Raises
        ------
        ReductionError
            If the sparse deflation does not apply (impulsive modes, or a
            kernel of ``E`` not spanned by coordinate vectors); the refusal is
            cached so repeated sparse attempts on the same system stay cheap.
        """
        return fetch_sparse_deflation(system, tol or DEFAULT_TOLERANCES, self)

    def profile(
        self, system: DescriptorSystem, tol: Optional[Tolerances] = None
    ) -> "SystemProfile":
        """Cached :func:`profile_system` of the system."""
        return profile_system(system, tol, cache=self)


@dataclass(frozen=True)
class SystemProfile:
    """Structural summary of a descriptor system used for method dispatch.

    Attributes
    ----------
    fingerprint:
        The system's cache fingerprint (matrices + tolerances).
    order / n_inputs / n_outputs / is_square_io:
        Shape information.
    is_regular / is_stable:
        Pencil regularity and stability of the finite spectrum (``is_stable``
        is ``False`` for an irregular pencil, whose spectrum is undefined).
    n_impulsive_chains:
        Number of grade-2 generalized eigenvector chains at infinity, i.e.
        the number of impulsive modes.
    has_higher_grade:
        True when grade-3 (or higher) chains exist — the system then has
        Markov parameters of order >= 2 and cannot be passive.
    """

    fingerprint: str
    order: int
    n_inputs: int
    n_outputs: int
    is_square_io: bool
    is_regular: bool
    is_stable: bool
    n_impulsive_chains: int
    has_higher_grade: bool

    @property
    def is_impulse_free(self) -> bool:
        """True when the pencil has no grade-2 chains (no impulsive modes)."""
        return self.n_impulsive_chains == 0

    @property
    def is_admissible(self) -> bool:
        """Regular, stable and impulse-free (the paper's admissibility)."""
        return self.is_regular and self.is_stable and self.is_impulse_free


def profile_system(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    cache: Optional[DecompositionCache] = None,
) -> SystemProfile:
    """Compute (or fetch) the structural profile of ``system``.

    The profile drives the engine's auto-selection and admissibility
    pre-screening.  The underlying chain-structure computation is shared with
    the SHH test and the pencil spectrum with every spectral consumer (method
    step-0 classification, GARE admissibility, Weierstrass reduction) through
    the cache, so profiling before testing costs nothing extra.
    """
    effective = tol or DEFAULT_TOLERANCES

    def compute() -> SystemProfile:
        chains = (
            cache.chain_data(system, effective)
            if cache is not None
            else impulsive_chain_data(system, effective)
        )
        context = (
            cache.spectral(system, effective)
            if cache is not None
            else compute_spectral_context(system.e, system.a, effective)
        )
        regular = context.is_regular
        stable = context.is_stable
        return SystemProfile(
            fingerprint=fingerprint_system(system, effective),
            order=system.order,
            n_inputs=system.n_inputs,
            n_outputs=system.n_outputs,
            is_square_io=system.is_square_io,
            is_regular=regular,
            is_stable=stable,
            n_impulsive_chains=chains.n_chains,
            has_higher_grade=chains.has_higher_grade,
        )

    if cache is None:
        return compute()
    return cache.get_or_compute(system, SYSTEM_PROFILE, compute, tol=effective)
