"""One way to run engine cells, on any executor.

Every cell the engine runs is the same thing: one passivity test (the
paper's Figure-1 test or a baseline) through one
:class:`~repro.engine.cache.DecompositionCache`.  This module holds the only
task that does it, :func:`run_cells`, and the one pool every caller submits
it to, :class:`SupervisedPool`:

* :class:`~repro.engine.runner.BatchRunner` ships a sweep as one task per
  system, with one cell per requested method, on *lanes*: one
  single-worker pool per worker.  A warm-start chain piece runs on one lane
  in delta order.  A process lane runs :func:`init_worker`, so all tasks of
  its worker share one store-backed cache; a thread or serial lane
  (:class:`InlineExecutor`) runs on the runner's shared cache.
* :class:`~repro.service.PassivityService` ships each job as a one-cell
  task.  Its process pool runs
  :func:`init_worker` in every worker process, so all tasks of a worker
  share one store-backed cache; its thread pool runs on the runner cache.

This is the two-level parallelism of the Wong–Lam study: tasks fan out over
the workers, and each worker's cache shares every intermediate among the
cells it runs.  Every process payload — systems, spectral contexts
and warm-start ancestors — travels through the pool's own pickle pipe.

A worker crash (OOM kill, segfault, SIGKILL) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`: every in-flight future
raises :class:`~concurrent.futures.BrokenExecutor`.  :meth:`SupervisedPool.heal`
is the one rebuild rule: the first observer of a broken pool tears it down and
counts a restart, later observers of the same pool do nothing, and the
replacement is built at the next :meth:`SupervisedPool.submit`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.config import Tolerances
from repro.engine.api import check_passivity
from repro.engine.cache import PENCIL_SPECTRUM, CacheStats, DecompositionCache
from repro.engine.registry import MethodRegistry
from repro.linalg.pencil import SpectralContext
from repro.obs.metrics import METRICS, observe_span_tree
from repro.obs.trace import JobTrace, use_trace
from repro.passivity.result import PassivityReport

__all__ = [
    "CellTask",
    "InlineExecutor",
    "SupervisedPool",
    "apply_task_return",
    "init_worker",
    "run_cells",
]

#: One cell's result: ``(report, seconds, error, spans)``.
CellOutcome = Tuple[Optional[PassivityReport], float, Optional[str], List[Dict[str, Any]]]

#: The per-process cache installed by :func:`init_worker`; ``None`` in a
#: process that did not run it (the parent, or a worker of a pool built
#: without the initializer).
_WORKER_CACHE: Optional[DecompositionCache] = None


#: Held while a pool is built or fed.  A process pool forks its workers at
#: its first submit; a child forked while another thread's fork is between
#: creating its sentinel pipe and closing the write end keeps that end open,
#: and the other pool then never sees its worker die.
_SUBMIT_LOCK = threading.Lock()


def init_worker(store: Optional[Any], maxsize: Optional[int]) -> None:
    """Pool initializer: install one store-backed cache for this process.

    The store pickles by reference (the worker re-opens the same root), so
    every worker's L1 misses fall through to the shared on-disk tier, and the
    cache outlives the tasks: a system one task solved is a hit for the next.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = DecompositionCache(maxsize=maxsize, store=store)


class CellTask(NamedTuple):
    """The payload of one :func:`run_cells` task.

    The task travels through the pool's pickle pipe, and pickle's memo sends
    an object the task references several times (one ancestor shared by many
    cells) once.  ``fleet`` is the list of systems the cells test.  Each cell
    is ``(position, method, options, ancestor)``: the fleet position it
    tests, and its warm-start hint — ``None``, ``"auto"`` or a system.
    ``contexts`` maps fleet positions to
    :class:`~repro.linalg.pencil.SpectralContext` bundles seeded into the
    cache before any cell runs.  ``cache`` is the ``(maxsize, store)`` of the
    fresh cache a worker without an installed one builds.
    """

    fleet: List[Any]
    cells: List[Tuple[int, str, Dict[str, Any], Any]]
    tol: Tolerances
    registry: Optional[MethodRegistry]
    cache: Tuple[Optional[int], Optional[Any]] = (None, None)
    contexts: Optional[Dict[int, SpectralContext]] = None


def run_cells(
    task: CellTask, cache: Optional[DecompositionCache] = None
) -> Tuple[List[CellOutcome], CacheStats]:
    """Run every cell of ``task`` through one cache.

    ``cache`` is the cache the cells run on: thread and serial callers pass
    their shared cache.  Without one, a worker process runs on the cache
    :func:`init_worker` installed, and failing that on a fresh one built
    from ``task.cache``.

    Returns one outcome per cell, in order, and one :class:`CacheStats`
    delta for the whole task.  One delta per task keeps the counters exact:
    a factorization two cells share is counted once, as the one computation
    and the hit it really is.  Each outcome carries its own cell's spans, so
    a caller can give every job its own trace.  A cell whose method raises
    reports the error instead; it does not fail the task.
    """
    if cache is None:
        cache = _WORKER_CACHE
    if cache is None:
        maxsize, store = task.cache
        cache = DecompositionCache(maxsize=maxsize, store=store)
    baseline = cache.stats_since()
    for position, context in (task.contexts or {}).items():
        cache.seed(task.fleet[position], PENCIL_SPECTRUM, context, tol=task.tol)
    outcomes: List[CellOutcome] = []
    for position, method, options, ancestor in task.cells:
        trace = JobTrace()
        report: Optional[PassivityReport] = None
        error: Optional[str] = None
        start = time.perf_counter()
        with use_trace(trace):
            try:
                report = check_passivity(
                    task.fleet[position], method=method, tol=task.tol,
                    cache=cache, registry=task.registry, ancestor=ancestor,
                    **options,
                )
            except Exception as exc:  # noqa: BLE001 - one bad cell must not kill the sweep
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append((report, time.perf_counter() - start, error, trace.to_jsonable()))
    return outcomes, cache.stats_since(baseline)


def apply_task_return(
    returned: Tuple[List[CellOutcome], CacheStats], stats: Optional[CacheStats]
) -> List[Tuple[Optional[PassivityReport], float, Optional[str], JobTrace]]:
    """Unpack one :func:`run_cells` return in the parent, one cell per entry.

    Pass ``stats`` when the task ran in another process: its counter delta
    is merged into ``stats`` and each cell's span tree is replayed into
    :data:`~repro.obs.metrics.METRICS`, exactly once per task, because
    neither reached this process.  A thread or serial task counted both at
    the source; pass ``None``.  Each entry is ``(report, seconds, error,
    trace)``.
    """
    outcomes, delta = returned
    cells = [
        (report, seconds, error, JobTrace.from_jsonable(spans))
        for report, seconds, error, spans in outcomes
    ]
    if stats is not None:
        stats.merge(delta)
        for cell in cells:
            observe_span_tree(METRICS, cell[3])
    return cells


class _InlineFuture(Future):
    """A future whose call runs in the first thread that asks for its result."""

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        super().__init__()
        self._call = (fn, args)

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self.done() and self.set_running_or_notify_cancel():
            fn, args = self._call
            try:
                self.set_result(fn(*args))
            except Exception as error:  # noqa: BLE001 - surfaces from result()
                self.set_exception(error)
        return super().result()


class InlineExecutor(Executor):
    """The serial backend's executor: a task runs when it is collected.

    :meth:`submit` only records the call; the thread that first asks for
    the result runs it, so a collector that reports after each task reports
    before the next task starts.  ``timeout`` is ignored — the call runs to
    completion in the collecting thread.
    """

    def __init__(self, **_options: Any) -> None:
        pass

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Return a future that runs ``fn(*args)`` when its result is read."""
        return _InlineFuture(fn, args)


class SupervisedPool:
    """An executor that is replaced after a worker crash.

    ``executor`` is the executor class: :class:`ProcessPoolExecutor`
    (default), :class:`~concurrent.futures.ThreadPoolExecutor` or
    :class:`InlineExecutor`.  Only a process pool breaks on a crash, but
    every caller drives its pool through the same supervisor.  The first
    pool is built here, so a platform without working process pools fails
    at construction.  :meth:`submit` never raises: a pool that
    is already broken, or a replacement that cannot be built, yields a
    future holding the error, so callers handle every failure in one place
    — where they collect results.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        executor: Callable[..., Executor] = ProcessPoolExecutor,
    ) -> None:
        self._executor = executor
        self._options = dict(
            max_workers=max_workers, initializer=initializer, initargs=initargs
        )
        self._pool: Optional[Executor] = executor(**self._options)
        #: Broken pools torn down by :meth:`heal`.
        self.restarts = 0
        #: Submitted futures that have not finished yet.
        self._running: Set[Future] = set()

    @property
    def pool(self) -> Optional[Executor]:
        """The current pool; ``None`` between a heal and the next submit."""
        return self._pool

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Tuple[Future, Optional[Executor]]:
        """Submit ``fn(*args)``; return the future and the pool it went to.

        Hand that pool to :meth:`heal` when the future raises
        :class:`~concurrent.futures.BrokenExecutor`.
        """
        pool: Optional[Executor] = None
        try:
            with _SUBMIT_LOCK:
                if self._pool is None:
                    self._pool = self._executor(**self._options)
                pool = self._pool
                future = pool.submit(fn, *args)
        except Exception as error:  # noqa: BLE001 - failures surface from the future
            future = Future()
            future.set_exception(error)
            return future, pool
        self._running.add(future)
        future.add_done_callback(self._running.discard)
        return future, pool

    def heal(self, pool: Optional[Executor]) -> bool:
        """Tear down a broken ``pool``; True when this call counted it.

        Idempotent per pool: when several futures observe the same crash,
        only the first observer of the current pool counts a restart and
        shuts it down.  The replacement is built at the next :meth:`submit`,
        so an environment that keeps crashing does not spin.
        """
        if pool is None or pool is not self._pool:
            return False
        self._pool = None
        self.restarts += 1
        # The broken pool's futures all fail; none of them is running.
        self._running.clear()
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except OSError:
            pass  # the broken pool may have closed its wakeup pipe already
        return True

    def shutdown(self) -> None:
        """Shut the pool down; join its workers only when none is busy.

        With every submitted future finished, the workers are idle and exit
        on the shutdown sentinel, so joining takes a few ms and no worker
        outlives the call.  A future still running (a timed-out cell) cannot
        be killed: then queued work is cancelled and the call returns
        without waiting for the busy worker.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        idle = not self._running
        pool.shutdown(wait=idle, cancel_futures=not idle)
