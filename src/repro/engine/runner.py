"""Parallel batch execution of passivity tests over systems x methods.

A production passivity service checks many macromodels with several methods;
the individual tests are independent, so the sweep parallelizes trivially.
:class:`BatchRunner` fans the ``systems x methods`` grid out over a pool,
applies a best-effort per-task timeout, and returns results in deterministic
``(system, method)`` order regardless of completion order, together with
timing telemetry and the cache counters that show how many decompositions
were shared.

Every backend runs the same plan and the same collection loop: one
:func:`~repro.engine.executor.run_cells` task per *group* of systems — one
piece of a warm-start chain, or a single system as a group of one — on a
:class:`~repro.engine.executor.SupervisedPool`.  A task runs all requested
methods on its group through one :class:`DecompositionCache`, so per-system
intermediates are shared across methods.  The backend only picks the pool.

Backends
--------
``"process"``
    A process pool.  Each task runs on a worker-local cache and returns one
    counter delta and its span trees, merged into the outcome and replayed
    into :data:`~repro.obs.metrics.METRICS` once per task.  Method runners
    must be picklable (module-level functions) — the built-in registry
    qualifies.  When the runner's cache has a persistent store attached, the
    store is shipped along (workers re-open the same root) so worker-local
    caches share decompositions through the L2 tier as well.  Every payload
    (systems, spectral contexts) travels through the pool's pickle pipe.  A
    worker crash rebuilds the pool and resubmits each interrupted task once.
``"thread"``
    A thread pool; every task runs on the runner's shared cache.  NumPy
    releases the GIL in the O(n^3) kernels, so threads overlap well.
``"serial"``
    An :class:`~repro.engine.executor.InlineExecutor`: each task runs in the
    calling thread when it is collected, on the runner's cache — mainly for
    debugging and deterministic accounting.
``"auto"``
    ``"process"`` when a pool can be created, otherwise ``"serial"``.

Timeouts are enforced while *collecting* results: a task that exceeds
``task_timeout`` is reported as ``timed_out`` and the sweep moves on (the
serial backend runs every task to completion).  A sweep whose every task
finished joins its pool before ``run()`` returns, so no worker outlives the
call.  After a timeout, queued tasks that never started are cancelled and
``run()`` returns without joining hung workers — an already-running worker
cannot be forcibly killed (the usual executor limitation) and keeps running
in the background until it finishes.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
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
from repro.engine.executor import CellTask, InlineExecutor, SupervisedPool, run_cells
from repro.engine.incremental import delta_distance, family_key
from repro.engine.registry import DEFAULT_REGISTRY, MethodRegistry, UnknownMethodError
from repro.linalg.pencil import SpectralContext
from repro.obs.metrics import METRICS, observe_span_tree
from repro.obs.trace import JobTrace
from repro.passivity.result import PassivityReport

__all__ = ["BatchResult", "BatchOutcome", "BatchRunner"]

#: The executor class behind each backend's :class:`SupervisedPool`;
#: ``"auto"`` tries a process pool first.
_EXECUTORS = {
    "auto": ProcessPoolExecutor,
    "process": ProcessPoolExecutor,
    "thread": ThreadPoolExecutor,
    "serial": InlineExecutor,
}


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

    While the chain pieces plus ``n_other_tasks`` (single systems) number
    fewer than ``n_workers``, the longest piece with at least three members
    is cut into two contiguous halves of its delta walk, the shorter half
    first.  Both halves lead with the chain's root:
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
        Shared :class:`DecompositionCache` the ``"thread"``/``"serial"``
        tasks run on; a fresh one is created when omitted.  The
        ``"process"`` backend uses worker-local caches instead and merges
        their counters, but the parent cache still holds the precomputed
        spectral contexts shipped to the workers (so repeated sweeps reuse
        them).  After a timed-out thread task, the abandoned task keeps
        running and eventually records into this cache, so per-sweep stats
        deltas of *later* ``run()`` calls on the same runner are
        best-effort; use a fresh runner when exact accounting matters.
    max_workers:
        Pool size, at least 1 (default: executor's choice).
    task_timeout:
        Best-effort per-task timeout in seconds, positive (``None``
        disables).  The budget is per *system*: a chain piece of ``k``
        systems is waited on for ``k * task_timeout``.
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
    incremental:
        Sweep-mode warm starting (default ``"off"``).  With ``"sweep"``,
        dense systems of identical shape are grouped into perturbation
        families and each family is ordered into a chain by structured
        delta distance (greedy nearest-neighbor walk); every chained job
        runs with ``ancestor="auto"``, so after the chain's root pays the
        one cold QZ each successor is certified by the perturbation-aware
        update tier (falling back to cold, and becoming the new warm-start
        root, whenever a validity bound fails — verdicts never weaken).
        Each chain runs in order as one task sharing one cache, so it pays
        a single cold factorization; when the sweep would leave pool
        workers idle, the longest chains are split into pieces that each
        repeat the chain's root (on the process backend one extra cold
        factorization per extra piece, on an otherwise idle worker; thread
        pieces share the runner cache — the root's verdict is recorded
        once).
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
        incremental: str = "off",
    ) -> None:
        if backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if incremental not in ("off", "sweep"):
            raise ValueError(
                f"incremental must be 'off' or 'sweep', got {incremental!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers!r}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout!r}")
        self.registry = registry or DEFAULT_REGISTRY
        self.cache = cache if cache is not None else DecompositionCache()
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.backend = backend
        self.tol = tol or DEFAULT_TOLERANCES
        self.precompute_spectral = precompute_spectral
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
        try:
            pool = SupervisedPool(
                max_workers=self.max_workers, executor=_EXECUTORS[backend]
            )
        except (OSError, PermissionError):
            # Only pool *creation* triggers the serial fallback; a pool that
            # breaks mid-sweep surfaces as per-cell errors instead of
            # silently discarding completed work and re-running it here.
            if backend != "auto":
                raise
            backend = "serial"
            pool = SupervisedPool(executor=InlineExecutor)
        if backend == "auto":
            backend = "process"
        outcome = self._run_tasks(
            pool, backend, systems, methods, method_options, contexts,
            stats_baseline, chains, progress,
        )
        outcome.total_seconds = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------
    def _run_tasks(
        self,
        pool: SupervisedPool,
        backend: str,
        systems: List[DescriptorSystem],
        methods: Tuple[str, ...],
        method_options: Dict[str, Dict[str, Any]],
        contexts: Dict[int, SpectralContext],
        stats_baseline: CacheStats,
        chains: List[List[int]],
        progress: Optional[Callable[[BatchResult], None]] = None,
    ) -> BatchOutcome:
        # Every task is one run_cells call on a group of systems: a chain
        # piece or a single system as a group of one.
        # The task's one cache shares per-system intermediates across
        # methods.  Thread and serial tasks run on the runner's cache, which
        # already holds the precomputed spectral contexts, and count their
        # stats and spans at the source.  A process task runs on a
        # worker-local cache seeded with the parent-computed contexts and
        # returns its counter delta and span trees, merged and replayed here
        # exactly once per task.  The registry is shipped to the workers
        # (specs pickle by reference, so runners must be module-level
        # functions); relying on the worker re-importing DEFAULT_REGISTRY
        # would drop dynamically registered methods under a spawn start
        # method.  A context shared by several positions of one task is
        # pickled once (pickle's memo).
        remote = backend == "process"
        cache = None if remote else self.cache
        if not remote:
            contexts = {}
        worker_stats = CacheStats()
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
            future, task_pool = pool.submit(run_cells, task, cache)
            tasks.append([group, task, future, task_pool, False])

        n_workers = pool.max_workers
        try:
            in_chains = {si for chain in chains for si in chain}
            singles = [si for si in range(len(systems)) if si not in in_chains]
            for piece in _fill_idle_workers(chains, len(singles), n_workers):
                # One task per piece, in delta order: the task's one cache
                # makes position 0 the cold root and every later position an
                # "auto" warm start against it.
                enqueue(piece, "auto")
            for si in singles:
                enqueue([si], None)
            while tasks:
                group, task, future, task_pool, retried = tasks.popleft()
                # task_timeout budgets *one system's* worth of work; a chain
                # piece of several systems is waited on for that many
                # budgets, so a caller's tuned timeout keeps its meaning.
                timeout = None
                if self.task_timeout is not None:
                    timeout = self.task_timeout * len(group)
                try:
                    outcomes, stats = future.result(timeout=timeout)
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
                        future, task_pool = pool.submit(run_cells, task, cache)
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
                if remote:
                    worker_stats.merge(stats)
                # run_cells returns the cells in task order: per system, one
                # cell per entry of ``methods`` (duplicates stay distinct).
                cells = iter(outcomes)
                for si in group:
                    for mi, method in enumerate(methods):
                        report, seconds, error, spans = next(cells)
                        if remote:
                            observe_span_tree(METRICS, JobTrace.from_jsonable(spans))
                        record(si, mi, BatchResult(si, method, report, seconds, error))
        finally:
            pool.shutdown()

        # Parent-side counters (the hoisted precompute, and every thread or
        # serial cell) join the merged worker counters, so the sweep
        # telemetry stays complete.
        cache_stats = self.cache.stats.minus(stats_baseline)
        cache_stats.merge(worker_stats)
        ordered = [results[key] for key in sorted(results)]
        return BatchOutcome(
            results=ordered,
            cache_stats=cache_stats,
            total_seconds=0.0,
            backend=backend,
            n_workers=n_workers,
            n_chains=len(chains),
            n_chained_jobs=sum(len(chain) for chain in chains),
            pool_restarts=pool.restarts,
        )
