"""Parallel batch execution of passivity tests over systems x methods.

A production passivity service checks many macromodels with several methods;
the individual tests are independent, so the sweep parallelizes trivially.
:class:`BatchRunner` fans the ``systems x methods`` grid out over a process
pool (or a thread pool / serial loop), applies a best-effort per-task timeout,
and returns results in deterministic ``(system, method)`` order regardless of
completion order, together with timing telemetry and the cache counters that
show how many decompositions were shared.

Backends
--------
``"process"``
    One :func:`~repro.engine.executor.run_cells` task per *group* of systems
    — a micro-batch chunk, one piece of a warm-start chain, or a single
    system as a group of one — on a :class:`~repro.engine.executor.SupervisedPool`.
    A task runs all requested methods on its group through one worker-local
    :class:`DecompositionCache`, so per-system intermediates are still shared,
    and returns one counter delta that is merged into the outcome.  Method
    runners must be picklable (module-level functions) — the built-in registry
    qualifies.  When the runner's cache has a persistent store attached, the
    store is shipped along (workers re-open the same root) so worker-local
    caches share decompositions through the L2 tier as well.  Every payload
    (systems, spectral contexts) travels through the pool's pickle pipe.
    Small dense systems are micro-batched several-per-worker-cell
    (``batch_small_systems`` knob) so dispatch overhead amortizes.  A worker
    crash rebuilds the pool and resubmits each interrupted task once.
``"thread"``
    One task per ``(system, method)`` pair sharing the runner's cache; NumPy
    releases the GIL in the O(n^3) kernels, so threads overlap well.
``"serial"``
    In-process loop, mainly for debugging and deterministic accounting.
``"auto"``
    ``"process"`` when a pool can be created, otherwise ``"serial"``.

Timeouts are enforced while *collecting* results: a task that exceeds
``task_timeout`` is reported as ``timed_out`` and the sweep moves on.  A
sweep whose every task finished joins its process pool before ``run()``
returns, so no worker outlives the call.  After a timeout, queued cells that
never started are cancelled and ``run()`` returns without joining hung
workers — an already-running worker cannot be forcibly killed (the usual
executor limitation) and keeps running in the background until it finishes.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.engine.cache import (
    PENCIL_SPECTRUM,
    CacheStats,
    DecompositionCache,
    fingerprint_system,
)
from repro.engine.executor import CellTask, SupervisedPool, _run_cell, run_cells
from repro.engine.incremental import delta_distance, family_key
from repro.engine.registry import DEFAULT_REGISTRY, MethodRegistry, UnknownMethodError
from repro.linalg.pencil import SpectralContext
from repro.obs.metrics import METRICS, observe_span_tree
from repro.obs.trace import JobTrace
from repro.passivity.result import PassivityReport

__all__ = ["BatchResult", "BatchOutcome", "BatchRunner"]


@dataclass
class BatchResult:
    """Outcome of one ``(system, method)`` cell of a batch sweep."""

    system_index: int
    method: str
    report: Optional[PassivityReport] = None
    seconds: Optional[float] = None
    error: Optional[str] = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """True when the method ran to a verdict."""
        return self.report is not None and self.error is None and not self.timed_out

    @property
    def skipped(self) -> bool:
        """True when the engine refused the cell (e.g. over the order limit)."""
        return bool(
            self.report is not None
            and self.report.diagnostics.get("engine", {}).get("skipped")
        )

    @property
    def is_passive(self) -> Optional[bool]:
        """The verdict; ``None`` when the cell failed, timed out or was
        skipped (matching the harness's ``None`` for NIL entries)."""
        if not self.ok or self.skipped:
            return None
        return self.report.is_passive


@dataclass
class BatchOutcome:
    """Ordered results plus telemetry of one :meth:`BatchRunner.run` sweep."""

    results: List[BatchResult]
    cache_stats: CacheStats
    total_seconds: float
    backend: str
    n_workers: int
    #: Micro-batch telemetry: number of multi-system worker cells and the
    #: number of jobs that rode them (0 when the policy stayed off).
    n_batches: int = 0
    n_batched_jobs: int = 0
    #: Always 0: every payload rides the pickle pipe.  Kept because the
    #: benchmark's traced runs still read it.
    shm_bytes: int = 0
    #: Sweep-mode warm-start telemetry: number of perturbation-family
    #: chains planned and the number of jobs riding them (0 with
    #: ``incremental="off"``); the incremental hit/fallback counters
    #: themselves live on ``cache_stats``.
    n_chains: int = 0
    n_chained_jobs: int = 0
    #: Times the process pool was rebuilt mid-sweep after a worker crash
    #: (:class:`~concurrent.futures.process.BrokenProcessPool`); crashed
    #: tasks are resubmitted once to the replacement pool before their
    #: cells are marked failed.
    pool_restarts: int = 0

    @property
    def batch_occupancy(self) -> float:
        """Mean jobs per micro-batch cell (0.0 when nothing was batched)."""
        if self.n_batches == 0:
            return 0.0
        return self.n_batched_jobs / self.n_batches

    def by_system(self, system_index: int) -> List[BatchResult]:
        """All cells of one system, in requested-method order."""
        return [r for r in self.results if r.system_index == system_index]

    def verdicts(self) -> Dict[Tuple[int, str], Optional[bool]]:
        """``(system_index, method) -> is_passive`` for quick assertions."""
        return {(r.system_index, r.method): r.is_passive for r in self.results}

    @property
    def n_timed_out(self) -> int:
        """Number of cells abandoned by the per-task timeout."""
        return sum(1 for r in self.results if r.timed_out)

    @property
    def n_failed(self) -> int:
        """Number of cells whose method raised (``result.error`` set)."""
        return sum(1 for r in self.results if r.error is not None)


def _notify_progress(progress, result) -> None:
    """Invoke a per-cell progress callback, swallowing its exceptions.

    The callback is observability plumbing (streaming push, progress bars);
    a faulty observer must never fail the sweep it watches.
    """
    if progress is None:
        return
    try:
        progress(result)
    except Exception:  # noqa: BLE001 - observer faults never fail the sweep
        pass


def _fill_idle_workers(
    chains: List[List[int]], n_other_tasks: int, n_workers: int
) -> List[List[int]]:
    """Split warm-start chains into pieces until every pool worker has a task.

    While the chain pieces plus ``n_other_tasks`` (micro-batch chunks and
    single cells) number fewer than ``n_workers``, the longest piece with at
    least three members is cut into two contiguous halves of its delta walk,
    the shorter half first.  Both halves lead with the chain's root:
    successors warm-start from the cache's nearest ``PENCIL_SPECTRUM`` entry,
    which only a cold factorization seeds, so a piece led by a perturbed
    corner would see most of its successors refuse the update and fall back
    cold.  Each extra piece pays one extra cold root on a worker that would
    otherwise idle; the caller records only the first result of the
    duplicated root.
    """
    pieces = list(chains)
    while pieces and len(pieces) + n_other_tasks < n_workers:
        at = max(range(len(pieces)), key=lambda i: len(pieces[i]))
        root, successors = pieces[at][0], pieces[at][1:]
        if len(successors) < 2:
            break
        half = len(successors) // 2
        pieces[at : at + 1] = [[root] + successors[:half], [root] + successors[half:]]
    return pieces


class BatchRunner:
    """Fan passivity tests over ``systems x methods`` with pooling and caching.

    Parameters
    ----------
    registry:
        Method registry used for dispatch (default: the process-wide one).
        With the ``"process"`` backend a custom registry must be picklable.
    cache:
        Shared :class:`DecompositionCache` for the ``"thread"``/``"serial"``
        backends; a fresh one is created when omitted.  The ``"process"``
        backend uses worker-local caches instead and merges their counters,
        but the parent cache still holds the precomputed spectral contexts
        shipped to the workers (so repeated sweeps reuse them).
        After a timed-out thread cell, the abandoned task keeps running and
        eventually records into this cache, so per-sweep stats deltas of
        *later* ``run()`` calls on the same runner are best-effort; use a
        fresh runner when exact accounting matters.
    max_workers:
        Pool size (default: executor's choice).
    task_timeout:
        Best-effort per-task timeout in seconds (``None`` disables).  The
        budget is per *system*: a micro-batched chunk of ``k`` systems is
        waited on for ``k * task_timeout``.
    backend:
        ``"auto"``, ``"process"``, ``"thread"`` or ``"serial"``.
    tol:
        Tolerance bundle applied to every test (also the cache key).
    precompute_spectral:
        When true (default), spectral contexts are hoisted out of the
        workers into the runner's persistent cache before the cells fan out:
        thread/serial workers hit them through the shared cache and process
        workers receive the serialized ``Q``/``Z``/``alpha``/``beta`` bundle
        in their task payload and seed their worker-local caches.  The
        parent only *computes* a context when that is a guaranteed win — the
        fingerprint is duplicated within the sweep (one factorization
        replaces several) or the context is already cached from an earlier
        sweep (no parent-side compute); a unique cold system keeps its
        factorization in the worker, where it runs in parallel with the
        other cells.  Systems are also skipped when they are sparse-backed
        (materializing the dense pencil would defeat the sparse backend) or
        when no requested method would consult the spectral cache (e.g. a
        pure-LMI sweep, or every spectral method refusing on its order
        limit).
    batch_small_systems:
        Micro-batch policy of the ``"process"`` backend.  Small dense
        systems (order ≤ ``small_system_order``) are grouped several-per
        worker cell, amortizing process round trips that otherwise dominate
        small-job sweeps.  ``"auto"`` (default) enables grouping only when
        the sweep holds enough small systems to matter
        (``>= max(8, 2 * workers)``); ``True`` / ``False`` force the policy.
        The per-task timeout covers a whole chunk, and a chunk shares one
        worker-local cache (its stats merge once per chunk, keeping the
        counters exact).
    small_system_order:
        Largest order still considered "small" for the batching policy
        (default 100 — where per-job numerical work stops dominating the
        process round trip).
    batch_size:
        Jobs per micro-batch chunk; default sizes chunks to roughly two
        waves per worker, capped at 32.
    incremental:
        Sweep-mode warm starting (default ``"off"``).  With ``"sweep"``,
        dense systems of identical shape are grouped into perturbation
        families and each family is ordered into a chain by structured
        delta distance (greedy nearest-neighbor walk); every chained job
        runs with ``ancestor="auto"``, so after the chain's root pays the
        one cold QZ each successor is certified by the perturbation-aware
        update tier (falling back to cold, and becoming the new warm-start
        root, whenever a validity bound fails — verdicts never weaken).
        Chains run in order: serially inline, and one pool task per chain on
        the thread backend.  On the process backend each chain runs as a
        worker chunk sharing one worker-local cache, so it pays a single
        cold factorization; when the sweep would leave pool workers idle,
        the longest chains are split into pieces that each repeat the
        chain's root (one extra cold factorization per extra piece, on an
        otherwise idle worker — the root's verdict is recorded once).
        ``n_chains`` / ``n_chained_jobs`` count the planned chains either
        way.  Systems without a same-shape partner run exactly as with
        ``"off"``.
    """

    def __init__(
        self,
        registry: Optional[MethodRegistry] = None,
        cache: Optional[DecompositionCache] = None,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        backend: str = "auto",
        tol: Optional[Tolerances] = None,
        precompute_spectral: bool = True,
        batch_small_systems: Any = "auto",
        small_system_order: int = 100,
        batch_size: Optional[int] = None,
        incremental: str = "off",
    ) -> None:
        if backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if incremental not in ("off", "sweep"):
            raise ValueError(
                f"incremental must be 'off' or 'sweep', got {incremental!r}"
            )
        if batch_small_systems not in ("auto", True, False):
            raise ValueError(
                f"batch_small_systems must be 'auto', True or False, "
                f"got {batch_small_systems!r}"
            )
        self.registry = registry or DEFAULT_REGISTRY
        self.cache = cache if cache is not None else DecompositionCache()
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.backend = backend
        self.tol = tol or DEFAULT_TOLERANCES
        self.precompute_spectral = precompute_spectral
        self.batch_small_systems = batch_small_systems
        self.small_system_order = int(small_system_order)
        self.batch_size = batch_size
        self.incremental = incremental

    # ------------------------------------------------------------------
    def _wants_spectral_context(
        self,
        system: DescriptorSystem,
        methods: Tuple[str, ...],
        method_options: Dict[str, Dict[str, Any]],
    ) -> bool:
        """True when some requested method would read the system's context.

        ``"auto"`` always profiles (the profile is built from the context);
        named methods must advertise ``uses_spectral_cache`` and actually run
        — a cell the engine will refuse on its (possibly overridden) order
        limit never touches the cache.
        """
        for method in methods:
            if method == "auto":
                return True
            spec = self.registry.resolve(method)
            if not spec.uses_spectral_cache:
                continue
            options = method_options.get(method, {})
            limit = options.get("order_limit", spec.order_limit)
            if limit is not None and system.order > limit:
                continue
            return True
        return False

    def _spectral_contexts(
        self,
        systems: List[DescriptorSystem],
        methods: Tuple[str, ...],
        method_options: Dict[str, Dict[str, Any]],
    ) -> Dict[int, SpectralContext]:
        """Hoist per-system spectral contexts out of the workers.

        Returns ``system index -> context`` for every system where the hoist
        is a guaranteed win: some requested method will consult the context,
        and the factorization is either already cached (no parent-side
        compute) or shared by several sweep entries with the same fingerprint
        (one parent-side factorization replaces several worker-side ones).  A
        unique cold system is left to its worker so its factorization runs in
        parallel with the other cells.  Failures are silently skipped — the
        affected worker simply computes (or gracefully refuses) on its own.
        """
        contexts: Dict[int, SpectralContext] = {}
        if not self.precompute_spectral:
            return contexts
        fingerprints: Dict[int, str] = {}
        occurrences: Dict[str, int] = {}
        for index, system in enumerate(systems):
            if system.is_sparse:
                continue
            if not self._wants_spectral_context(system, methods, method_options):
                continue
            fingerprint = fingerprint_system(system, self.tol)
            fingerprints[index] = fingerprint
            occurrences[fingerprint] = occurrences.get(fingerprint, 0) + 1
        for index, fingerprint in fingerprints.items():
            system = systems[index]
            if occurrences[fingerprint] < 2 and not self.cache.contains(
                system, PENCIL_SPECTRUM, self.tol
            ):
                continue
            try:
                contexts[index] = self.cache.spectral(system, self.tol)
            except Exception:  # noqa: BLE001 - precompute is best-effort
                continue
        return contexts

    # ------------------------------------------------------------------
    def _plan_sweep_chains(
        self, systems: List[DescriptorSystem]
    ) -> List[List[int]]:
        """Order perturbation families into warm-start chains (sweep mode).

        Dense systems are grouped by matrix shapes; each group with at
        least two members becomes a chain ordered by a greedy
        nearest-neighbor walk on the structured delta distance (the same
        metric :meth:`DecompositionCache.nearest` ranks ancestors with), so
        consecutive jobs are the closest available perturbation pairs and
        the incremental tier's first-order bounds stay tight.  The walk
        costs ``O(k^2)`` distance evaluations per family — each ``O(n^2)``,
        negligible next to one ``O(n^3)`` factorization — and is only
        planned when ``incremental="sweep"``.
        """
        if self.incremental != "sweep":
            return []
        groups: Dict[Tuple[Tuple[int, ...], ...], List[int]] = {}
        for si, system in enumerate(systems):
            if not system.is_sparse:
                groups.setdefault(family_key(system), []).append(si)
        chains: List[List[int]] = []
        for members in groups.values():
            if len(members) < 2:
                continue
            remaining = list(members[1:])
            chain = [members[0]]
            while remaining:
                last = systems[chain[-1]]
                nearest_pos = min(
                    range(len(remaining)),
                    key=lambda pos: delta_distance(last, systems[remaining[pos]]),
                )
                chain.append(remaining.pop(nearest_pos))
            chains.append(chain)
        return chains

    # ------------------------------------------------------------------
    def run_cell(
        self,
        system: DescriptorSystem,
        method: str = "auto",
        options: Optional[Dict[str, Any]] = None,
        system_index: int = 0,
        ancestor: Optional[Any] = None,
    ) -> BatchResult:
        """Run one ``(system, method)`` cell synchronously in this thread.

        The per-cell hook behind the :mod:`repro.service` job queue: each
        service worker executes exactly one cell through the runner's shared
        cache, registry and tolerance bundle, so concurrent jobs on the same
        system share decompositions exactly like the cells of a
        :meth:`run` sweep (the cache's per-key locks guarantee each
        intermediate is computed once even when duplicate jobs race).

        Parameters
        ----------
        system:
            The descriptor system under test.
        method:
            Registry name/alias or ``"auto"``; validated before any work is
            spent (:class:`~repro.engine.registry.UnknownMethodError` on a
            typo, matching :meth:`run`).
        options:
            Extra keyword arguments for the method runner.
        system_index:
            Index recorded on the returned :class:`BatchResult` (the service
            does not use sweep positions; callers embedding cells in a larger
            sweep can label them).
        ancestor:
            Optional warm-start hint forwarded to
            :func:`~repro.engine.api.check_passivity` — a nearby system
            whose decompositions sit in the runner's cache, or ``"auto"``
            (the service's sweep-aware dispatch passes the family root
            here).

        Returns
        -------
        BatchResult
            The cell outcome; a method that raised is reported through
            ``result.error`` rather than propagating, exactly like a sweep
            cell.
        """
        if method != "auto":
            self.registry.resolve(method)
        report, seconds, error = _run_cell(
            system, method, self.tol, self.cache, self.registry,
            dict(options or {}), ancestor=ancestor,
        )
        return BatchResult(system_index, method, report, seconds, error)

    # ------------------------------------------------------------------
    def run(
        self,
        systems: Sequence[DescriptorSystem],
        methods: Sequence[str] = ("auto",),
        method_options: Optional[Dict[str, Dict[str, Any]]] = None,
        progress: Optional[Callable[[BatchResult], None]] = None,
    ) -> BatchOutcome:
        """Run every method on every system and collect ordered results.

        ``methods`` entries are registry names/aliases or ``"auto"``; all are
        validated up front so a typo fails before any work is spent.
        ``method_options`` maps a requested method name to extra keyword
        arguments for its runner.

        ``progress`` is invoked once per completed cell (with its
        :class:`BatchResult`) as results land, *before* the sweep finishes —
        the hook streaming front-ends use to push incremental verdicts.  It
        runs on the collecting thread, completion order is not the sweep
        order, and exceptions it raises are swallowed.
        """
        systems = list(systems)
        methods = tuple(methods)
        for name in method_options or {}:
            if name != "auto" and name not in self.registry:
                known = ", ".join(sorted(self.registry.known_names()))
                raise UnknownMethodError(
                    f"method_options given for unknown method {name!r}; "
                    f"registered methods: {known}"
                )

        def canonical(name: str) -> str:
            return name if name == "auto" else self.registry.resolve(name).name

        # Validate every requested method up front and normalize the options
        # keys, so options given under an alias ("shh") reach a sweep that
        # requested the canonical name ("proposed") and vice versa.
        by_canonical: Dict[str, Dict[str, Any]] = {}
        for name, opts in (method_options or {}).items():
            by_canonical.setdefault(canonical(name), {}).update(opts)
        method_options = {method: by_canonical.get(canonical(method), {}) for method in methods}

        start = time.perf_counter()
        # The runner's cache (and its counters) outlives individual sweeps;
        # outcomes report per-sweep deltas.  The baseline is taken *before*
        # the spectral precompute so the parent-side factorizations show up
        # in the sweep's telemetry.
        stats_baseline = self.cache.stats.snapshot()
        contexts = self._spectral_contexts(systems, methods, method_options)
        chains = self._plan_sweep_chains(systems)
        backend = self.backend
        if backend in ("auto", "process"):
            # Only pool *creation* triggers the serial fallback; a pool that
            # breaks mid-sweep surfaces as per-cell errors instead of silently
            # discarding completed work and re-running everything locally.
            try:
                pool = SupervisedPool(max_workers=self.max_workers)
            except (OSError, PermissionError):
                if backend == "process":
                    raise
                outcome = self._run_local(
                    systems, methods, method_options, "serial", stats_baseline,
                    chains, progress,
                )
            else:
                outcome = self._run_process(
                    pool, systems, methods, method_options, contexts,
                    stats_baseline, chains, progress,
                )
        else:
            outcome = self._run_local(
                systems, methods, method_options, backend, stats_baseline,
                chains, progress,
            )
        outcome.total_seconds = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------
    def _run_local(
        self,
        systems: List[DescriptorSystem],
        methods: Tuple[str, ...],
        method_options: Dict[str, Dict[str, Any]],
        backend: str,
        stats_baseline: CacheStats,
        chains: List[List[int]],
        progress: Optional[Callable[[BatchResult], None]] = None,
    ) -> BatchOutcome:
        # Thread/serial cells share the runner's cache, so the precomputed
        # spectral contexts are already where every worker will look for
        # them; no per-cell plumbing is needed.  Sweep chains run in delta
        # order against the shared cache (ancestor="auto"): the chain root
        # factorizes cold and registers itself, every successor warm-starts.
        registry = self.registry
        chained = {si for chain in chains for si in chain}
        results: Dict[Tuple[int, int], BatchResult] = {}

        def record(key: Tuple[int, int], result: BatchResult) -> None:
            results[key] = result
            _notify_progress(progress, result)

        def run_one(si: int, mi: int, method: str) -> None:
            report, seconds, error = _run_cell(
                systems[si], method, self.tol, self.cache, registry,
                method_options.get(method, {}),
                ancestor="auto" if si in chained else None,
            )
            record((si, mi), BatchResult(si, method, report, seconds, error))

        if backend == "serial":
            n_workers = 1
            order = [si for chain in chains for si in chain] + [
                si for si in range(len(systems)) if si not in chained
            ]
            for si in order:
                for mi, method in enumerate(methods):
                    run_one(si, mi, method)
        else:
            pool = ThreadPoolExecutor(max_workers=self.max_workers)
            try:
                n_workers = pool._max_workers

                def run_chain(chain: List[int]) -> List[Tuple[int, int, str, Any, Any, Any]]:
                    # One pool task per chain: the jobs of a chain are
                    # sequentially dependent (each warm-starts from cache
                    # state its predecessor created), while distinct chains
                    # and unchained cells still overlap across threads.
                    out = []
                    for si in chain:
                        for mi, method in enumerate(methods):
                            report, seconds, error = _run_cell(
                                systems[si], method, self.tol, self.cache,
                                registry, method_options.get(method, {}),
                                ancestor="auto",
                            )
                            out.append((si, mi, method, report, seconds, error))
                    return out

                chain_futures: List[Tuple[List[int], Future]] = [
                    (chain, pool.submit(run_chain, chain)) for chain in chains
                ]
                futures: List[Tuple[int, int, str, Future]] = [
                    (
                        si,
                        mi,
                        method,
                        pool.submit(
                            _run_cell, system, method, self.tol, self.cache,
                            registry, method_options.get(method, {}),
                        ),
                    )
                    for si, system in enumerate(systems)
                    if si not in chained
                    for mi, method in enumerate(methods)
                ]
                for si, mi, method, future in futures:
                    try:
                        report, seconds, error = future.result(timeout=self.task_timeout)
                        record((si, mi), BatchResult(si, method, report, seconds, error))
                    except FutureTimeoutError:
                        record((si, mi), BatchResult(si, method, timed_out=True))
                for chain, future in chain_futures:
                    # The per-system timeout budgets the whole chain, like a
                    # micro-batch chunk.
                    timeout = None
                    if self.task_timeout is not None:
                        timeout = self.task_timeout * len(chain)
                    try:
                        for si, mi, method, report, seconds, error in future.result(
                            timeout=timeout
                        ):
                            record(
                                (si, mi),
                                BatchResult(si, method, report, seconds, error),
                            )
                    except FutureTimeoutError:
                        for si in chain:
                            for mi, method in enumerate(methods):
                                if (si, mi) not in results:
                                    record(
                                        (si, mi),
                                        BatchResult(si, method, timed_out=True),
                                    )
            finally:
                # Do not join hung workers: cancel anything still queued and
                # return promptly; a running thread cannot be killed but must
                # not block the sweep either.
                pool.shutdown(wait=False, cancel_futures=True)

        ordered = [results[key] for key in sorted(results)]
        return BatchOutcome(
            results=ordered,
            cache_stats=self.cache.stats.minus(stats_baseline),
            total_seconds=0.0,
            backend=backend,
            n_workers=n_workers,
            n_chains=len(chains),
            n_chained_jobs=sum(len(chain) for chain in chains),
        )

    # ------------------------------------------------------------------
    def _plan_chunks(
        self,
        systems: List[DescriptorSystem],
        n_workers: int,
        exclude: frozenset = frozenset(),
    ) -> List[List[int]]:
        """Group small dense systems into micro-batch chunks.

        Returns a list of chunks (system-index lists); empty when the policy
        is off or the sweep is too small to benefit.  ``"auto"`` demands
        enough small systems for grouping to beat per-system dispatch
        (``>= max(8, 2 * workers)``); forced ``True`` batches whatever small
        systems exist.  Chunk size targets roughly two waves per worker so
        the pool stays load-balanced, capped at 32 jobs per chunk so one
        slow chunk cannot serialize the sweep.  ``exclude`` removes systems
        already claimed by sweep-mode chains (which ship as their own
        chunks).
        """
        policy = self.batch_small_systems
        if policy is False:
            return []
        small = [
            si for si, system in enumerate(systems)
            if si not in exclude
            and not system.is_sparse
            and system.order <= self.small_system_order
        ]
        if not small:
            return []
        if policy == "auto" and len(small) < max(8, 2 * n_workers):
            return []
        size = self.batch_size or max(1, min(32, -(-len(small) // (2 * n_workers))))
        return [small[k : k + size] for k in range(0, len(small), size)]

    # ------------------------------------------------------------------
    def _run_process(
        self,
        pool: SupervisedPool,
        systems: List[DescriptorSystem],
        methods: Tuple[str, ...],
        method_options: Dict[str, Dict[str, Any]],
        contexts: Dict[int, SpectralContext],
        stats_baseline: CacheStats,
        chains: List[List[int]],
        progress: Optional[Callable[[BatchResult], None]] = None,
    ) -> BatchOutcome:
        # Every task is one run_cells call on a group of systems: a chain
        # piece, a micro-batch chunk or a single system as a group of one.
        # The task's one worker-local cache shares per-system intermediates
        # across methods.  The registry is shipped to the workers (specs
        # pickle by reference, so runners must be module-level functions);
        # relying on the worker re-importing DEFAULT_REGISTRY would drop
        # dynamically registered methods under a spawn start method.  The
        # parent-computed spectral contexts are seeded into the task's cache
        # instead of re-factorizing the pencil.  A context shared by several
        # positions of one task is pickled once (pickle's memo).
        #
        # Parent-side precompute counters (the hoisted factorizations) join
        # the merged worker counters so the sweep telemetry stays complete.
        merged = self.cache.stats.minus(stats_baseline)
        results: Dict[Tuple[int, int], BatchResult] = {}

        def record(si: int, mi: int, result: BatchResult) -> None:
            # First result wins: a fanned-out chain runs its root in every
            # piece, and the root must reach results and progress once.
            if (si, mi) not in results:
                results[si, mi] = result
                _notify_progress(progress, result)

        def fail(group: List[int], **outcome: Any) -> None:
            for si in group:
                for mi, method in enumerate(methods):
                    record(si, mi, BatchResult(si, method, **outcome))

        #: Collection queue of ``[group, task, future, pool, retried]``: a
        #: task interrupted by a worker crash is resubmitted once to the
        #: rebuilt pool.
        tasks: "deque[List[Any]]" = deque()

        def enqueue(group: List[int], ancestor: Optional[str]) -> None:
            task = CellTask(
                [systems[si] for si in group],
                [
                    (position, method, method_options.get(method, {}), ancestor)
                    for position in range(len(group))
                    for method in methods
                ],
                self.tol,
                self.registry,
                (self.cache.maxsize, self.cache.store),
                {
                    position: contexts[si]
                    for position, si in enumerate(group)
                    if si in contexts
                },
            )
            future, task_pool = pool.submit(run_cells, task)
            tasks.append([group, task, future, task_pool, False])

        n_workers = pool.max_workers
        try:
            in_chains = frozenset(si for chain in chains for si in chain)
            chunks = self._plan_chunks(systems, n_workers, exclude=in_chains)
            in_chunks = {si for chunk in chunks for si in chunk}
            singles = [
                si for si in range(len(systems))
                if si not in in_chunks and si not in in_chains
            ]
            pieces = _fill_idle_workers(chains, len(chunks) + len(singles), n_workers)
            for piece in pieces:
                # One task per piece, in delta order: the task's one cache
                # makes position 0 the cold root and every later position an
                # "auto" warm start against it.
                enqueue(piece, "auto")
            for chunk in chunks:
                enqueue(chunk, None)
            for si in singles:
                enqueue([si], None)
            while tasks:
                group, task, future, task_pool, retried = tasks.popleft()
                # task_timeout budgets *one system's* worth of work; a task
                # bundling several systems is waited on for that many
                # budgets, so a caller's tuned timeout keeps its meaning.
                timeout = None
                if self.task_timeout is not None:
                    timeout = self.task_timeout * len(group)
                try:
                    outcomes, stats, spans = future.result(timeout=timeout)
                except FutureTimeoutError:
                    fail(group, timed_out=True)
                    continue
                except BrokenExecutor as error:
                    # A worker crash (OOM kill, segfault) breaks the whole
                    # pool: every in-flight future of that pool fails.  Heal
                    # it and resubmit each affected task once; only a task
                    # that breaks the *rebuilt* pool too fails its cells.
                    pool.heal(task_pool)
                    if not retried:
                        future, task_pool = pool.submit(run_cells, task)
                        tasks.append([group, task, future, task_pool, True])
                        continue
                    fail(group, error=f"{type(error).__name__}: {error}")
                    continue
                except Exception as error:  # noqa: BLE001 - costs this task only
                    # A task that returns no outcomes failed in transit: an
                    # unpicklable payload (pickle raises PicklingError,
                    # TypeError or AttributeError) or a pipe I/O failure.
                    # Both are deterministic — a retry cannot help; they cost
                    # the affected cells, not the whole sweep.
                    fail(group, error=f"{type(error).__name__}: {error}")
                    continue
                # Exactly one stats merge and one span replay per task: the
                # task shares one worker cache, so merging its delta once
                # keeps the factorization / L2 counters exact.
                merged.merge(stats)
                tree = JobTrace.from_jsonable(spans)
                # run_cells returns the cells in task order: per system, one
                # cell per entry of ``methods`` (duplicates stay distinct).
                cells = iter(outcomes)
                for si in group:
                    for mi, method in enumerate(methods):
                        report, seconds, error, cell_spans = next(cells)
                        tree.merge(JobTrace.from_jsonable(cell_spans))
                        record(si, mi, BatchResult(si, method, report, seconds, error))
                observe_span_tree(METRICS, tree)
        finally:
            pool.shutdown()

        ordered = [results[key] for key in sorted(results)]
        return BatchOutcome(
            results=ordered,
            cache_stats=merged,
            total_seconds=0.0,
            backend="process",
            n_workers=n_workers,
            n_batches=len(chunks),
            n_batched_jobs=sum(len(chunk) for chunk in chunks),
            n_chains=len(chains),
            n_chained_jobs=sum(len(chain) for chain in chains),
            pool_restarts=pool.restarts,
        )
