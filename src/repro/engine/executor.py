"""One way to run engine cells in worker processes.

Every cell the engine ships to a worker process runs the same thing: one
passivity test (the paper's Figure-1 test or a baseline) through one
:class:`~repro.engine.cache.DecompositionCache`.  This module holds the only
process task that does it, :func:`run_cells`, and the one pool both process
callers submit it to, :class:`SupervisedPool`:

* :class:`~repro.engine.runner.BatchRunner` ships a sweep as groups of
  systems — a micro-batch chunk, one piece of a warm-start chain, or a single
  system as a group of one.  Each task builds a fresh cache from the runner
  cache's ``(maxsize, store)``.
* :class:`~repro.service.PassivityService` ships each dispatch — one job or a
  micro-batch of jobs — as one group.  Its pool runs :func:`init_worker` in
  every worker process, so all tasks of a worker share one store-backed cache.

This is the two-level parallelism of the Wong–Lam study: tasks fan out over
the pool's workers, and inside a task the cache shares each intermediate
among the task's cells.

A worker crash (OOM kill, segfault, SIGKILL) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`: every in-flight future
raises :class:`~concurrent.futures.BrokenExecutor`.  :meth:`SupervisedPool.heal`
is the one rebuild rule: the first observer of a broken pool tears it down and
counts a restart, later observers of the same pool do nothing, and the
replacement is built at the next :meth:`SupervisedPool.submit`.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.config import Tolerances
from repro.engine.api import check_passivity
from repro.engine.cache import PENCIL_SPECTRUM, CacheStats, DecompositionCache
from repro.engine.registry import MethodRegistry
from repro.engine.shm import ArrayShipment, load_context, load_systems
from repro.obs.trace import JobTrace, use_trace
from repro.passivity.result import PassivityReport

__all__ = ["CellTask", "SupervisedPool", "init_worker", "run_cells"]

#: One cell's result: ``(report, seconds, error, spans)``.
CellOutcome = Tuple[Optional[PassivityReport], float, Optional[str], List[Dict[str, Any]]]

#: The per-process cache installed by :func:`init_worker`; ``None`` in a
#: process whose pool has no initializer (every :class:`BatchRunner` pool).
_WORKER_CACHE: Optional[DecompositionCache] = None


def init_worker(store: Optional[Any], maxsize: Optional[int]) -> None:
    """Pool initializer: install one store-backed cache for this process.

    The store pickles by reference (the worker re-opens the same root), so
    every worker's L1 misses fall through to the shared on-disk tier, and the
    cache outlives the tasks: a system one task solved is a hit for the next.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = DecompositionCache(maxsize=maxsize, store=store)


def _run_cell(
    system: Any,
    method: str,
    tol: Tolerances,
    cache: Optional[DecompositionCache],
    registry: Optional[MethodRegistry],
    options: Dict[str, Any],
    ancestor: Optional[Any] = None,
) -> Tuple[Optional[PassivityReport], float, Optional[str]]:
    """Run one method on one system, converting exceptions to error strings.

    ``ancestor`` is forwarded to :func:`check_passivity` for sweep-mode
    cells (``"auto"`` or an explicit system); the engine ignores it for
    methods the incremental tier does not serve.
    """
    start = time.perf_counter()
    try:
        report = check_passivity(
            system, method=method, tol=tol, cache=cache, registry=registry,
            ancestor=ancestor, **options
        )
        return report, time.perf_counter() - start, None
    except Exception as error:  # noqa: BLE001 - one bad cell must not kill the sweep
        message = f"{type(error).__name__}: {error}"
        return None, time.perf_counter() - start, message


class CellTask(NamedTuple):
    """The payload of one :func:`run_cells` task.

    ``fleet`` is a list of systems or one
    :class:`~repro.engine.shm.ArrayShipment` packing their dense matrices.
    Each cell is ``(position, method, options, ancestor)``: the fleet
    position it tests, and its warm-start hint — ``None``, ``"auto"``, a
    system, or a shipment of one system.  ``contexts`` maps fleet positions
    to spectral contexts (or their shipments) seeded into the cache before
    any cell runs.  ``cache`` is the ``(maxsize, store)`` of the fresh cache
    a worker without an installed one builds.
    """

    fleet: Any
    cells: List[Tuple[int, str, Dict[str, Any], Any]]
    tol: Tolerances
    registry: Optional[MethodRegistry]
    cache: Tuple[Optional[int], Optional[Any]] = (None, None)
    contexts: Optional[Dict[int, Any]] = None


def run_cells(task: CellTask) -> Tuple[List[CellOutcome], CacheStats, List[Dict[str, Any]]]:
    """Process task: run every cell of ``task`` through one cache.

    Returns one outcome per cell, in order, one :class:`CacheStats` delta for
    the whole task and the spans the cells share (fleet and context loads).
    One delta per task keeps the counters exact: a factorization two cells
    share is counted once, as the one computation and the hit it really is.
    Each outcome carries its own cell's spans, so a caller can give every
    job its own trace.
    """
    cache = _WORKER_CACHE
    if cache is None:
        maxsize, store = task.cache
        cache = DecompositionCache(maxsize=maxsize, store=store)
    baseline = cache.stats.snapshot()
    shared = JobTrace()
    with use_trace(shared):
        fleet = task.fleet
        systems = load_systems(fleet) if isinstance(fleet, ArrayShipment) else fleet
        for position, context in (task.contexts or {}).items():
            if isinstance(context, ArrayShipment):
                context = load_context(context)
            cache.seed(systems[position], PENCIL_SPECTRUM, context, tol=task.tol)
    loaded: Dict[int, Any] = {}
    outcomes: List[CellOutcome] = []
    for position, method, options, ancestor in task.cells:
        trace = JobTrace()
        with use_trace(trace):
            if isinstance(ancestor, ArrayShipment):
                # One family shipment may back several cells: load it once.
                if id(ancestor) not in loaded:
                    loaded[id(ancestor)] = load_systems(ancestor)[0]
                ancestor = loaded[id(ancestor)]
            report, seconds, error = _run_cell(
                systems[position], method, task.tol, cache, task.registry,
                options, ancestor=ancestor,
            )
        outcomes.append((report, seconds, error, trace.to_jsonable()))
    return outcomes, cache.stats.minus(baseline), shared.to_jsonable()


class SupervisedPool:
    """A :class:`ProcessPoolExecutor` that is replaced after a worker crash.

    The first pool is built here, so a platform without working process
    pools fails at construction.  :meth:`submit` never raises: a pool that
    is already broken, or a replacement that cannot be built, yields a
    future holding the error, so callers handle every failure in one place
    — where they collect results.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self._options = dict(
            max_workers=max_workers, initializer=initializer, initargs=initargs
        )
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(**self._options)
        #: Worker count of every pool this supervisor builds.
        self.max_workers: int = self._pool._max_workers
        #: Broken pools torn down by :meth:`heal`.
        self.restarts = 0
        #: Submitted futures that have not finished yet.
        self._running: Set[Future] = set()

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The current pool; ``None`` between a heal and the next submit."""
        return self._pool

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Tuple[Future, Optional[ProcessPoolExecutor]]:
        """Submit ``fn(*args)``; return the future and the pool it went to.

        Hand that pool to :meth:`heal` when the future raises
        :class:`~concurrent.futures.BrokenExecutor`.
        """
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(**self._options)
            pool = self._pool
            future = pool.submit(fn, *args)
        except Exception as error:  # noqa: BLE001 - failures surface from the future
            future = Future()
            future.set_exception(error)
            return future, pool
        self._running.add(future)
        future.add_done_callback(self._running.discard)
        return future, pool

    def heal(self, pool: Optional[ProcessPoolExecutor]) -> bool:
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
