"""The one process task (``run_cells``) and the supervised pool.

``run_cells`` is called in-process here: it is a plain function, and calling
it directly makes its cache accounting observable without a pool.  The pool
tests need real worker processes and the ``fork`` start method (the test
module's task functions pickle by reference).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.circuits import rlc_grid, rlc_grid_corners
from repro.config import DEFAULT_TOLERANCES
from repro.engine import PENCIL_SPECTRUM, CacheStats, DecompositionCache
from repro.engine import executor
from repro.engine.executor import CellTask, SupervisedPool, init_worker, run_cells

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="pool tests pickle test-module tasks by reference (fork only)",
)


@pytest.fixture(autouse=True)
def _no_installed_cache():
    """Keep ``init_worker``'s global out of this process after each test.

    Process pools fork from the test process, so a cache installed here would
    leak into every later ``BatchRunner`` worker.
    """
    saved = executor._WORKER_CACHE
    executor._WORKER_CACHE = None
    yield
    executor._WORKER_CACHE = saved


def _system():
    return rlc_grid(3, 3, sparse=False).system


def _task(fleet, cells, contexts=None):
    return CellTask(fleet, cells, DEFAULT_TOLERANCES, None, contexts=contexts)


def _pickled(task):
    """The task as a pool worker receives it: through the pickle pipe."""
    return pickle.loads(pickle.dumps(task))


class TestRunCells:
    def test_one_stats_delta_counts_a_shared_factorization_once(self):
        system = _system()
        cells = [
            (0, "proposed", {}, None),
            (0, "weierstrass", {}, None),
            (1, "proposed", {}, None),
        ]
        outcomes, stats = run_cells(_task([system, system], cells))
        assert len(outcomes) == 3
        assert all(report.is_passive for report, _, error, _ in outcomes if error is None)
        assert [error for _, _, error, _ in outcomes] == [None, None, None]
        assert isinstance(stats, CacheStats)
        # Three cells, one pencil: the other two cells are hits.
        assert stats.factorizations_for(PENCIL_SPECTRUM) == 1
        assert stats.hits >= 2

    @pytest.mark.parametrize("pickled", [False, True])
    def test_seeded_context_costs_zero_factorizations(self, pickled):
        system = _system()
        context = DecompositionCache().spectral(system, DEFAULT_TOLERANCES)
        cells = [(0, "weierstrass", {}, None)]
        task = _task([system], cells, {0: context})
        if pickled:
            task = _pickled(task)
        cold, cold_stats = run_cells(_task([system], cells))
        seeded, seeded_stats = run_cells(task)
        assert cold_stats.factorizations_for(PENCIL_SPECTRUM) == 1
        assert seeded_stats.factorizations_for(PENCIL_SPECTRUM) == 0
        assert seeded[0][0].is_passive == cold[0][0].is_passive

    def test_pickled_task_with_a_shared_ancestor_matches_unpickled(self):
        root, *corners = rlc_grid_corners(3, 3, 4, scale=2e-4, seed=0)
        cells = [
            (position, "gare", {}, root) for position in range(len(corners))
        ]
        task = _task(list(corners), cells)
        received = _pickled(task)
        # Pickle's memo sends the one ancestor object once for all cells.
        assert len({id(cell[3]) for cell in received.cells}) == 1
        outcomes, _ = run_cells(received)
        reference, _ = run_cells(task)
        assert [error for _, _, error, _ in outcomes] == [None] * len(corners)
        assert [o[0].is_passive for o in outcomes] == [
            r[0].is_passive for r in reference
        ]

    def test_installed_worker_cache_persists_across_tasks(self):
        system = _system()
        task = _task([system], [(0, "weierstrass", {}, None)])
        fresh = [run_cells(task)[1] for _ in range(2)]
        assert [s.factorizations_for(PENCIL_SPECTRUM) for s in fresh] == [1, 1]
        init_worker(None, None)
        installed = [run_cells(task)[1] for _ in range(2)]
        assert [s.factorizations_for(PENCIL_SPECTRUM) for s in installed] == [1, 0]


def _exits(worker, timeout: float = 60.0) -> bool:
    """True once ``worker`` has exited.

    Polls instead of joining: the pool's own management thread joins its
    workers too, and ``is_alive()`` can read True right after a concurrent
    ``join()`` returns.
    """
    deadline = time.monotonic() + timeout
    while worker.is_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not worker.is_alive()


def _die() -> None:
    """Task that kills its worker, breaking the pool."""
    os.kill(os.getpid(), signal.SIGKILL)


@fork_only
class TestSupervisedPool:
    def test_two_observers_of_one_broken_pool_count_one_restart(self):
        pool = SupervisedPool(max_workers=1)
        try:
            doomed, broken = pool.submit(_die)
            bystander, same = pool.submit(os.getpid)
            assert same is broken
            for future in (doomed, bystander):
                with pytest.raises(BrokenExecutor):
                    future.result(timeout=60.0)
            assert pool.heal(broken) is True
            assert pool.heal(broken) is False
            assert pool.restarts == 1
            assert pool.pool is None
            # The replacement is built at the next submit, and it works.
            future, rebuilt = pool.submit(os.getpid)
            assert rebuilt is not broken
            assert pool.pool is rebuilt
            assert future.result(timeout=60.0) != os.getpid()
        finally:
            pool.shutdown()

    def test_shutdown_joins_idle_workers(self):
        pool = SupervisedPool(max_workers=1)
        future, live = pool.submit(os.getpid)
        future.result(timeout=60.0)
        workers = list(live._processes.values())
        pool.shutdown()
        assert workers and not any(worker.is_alive() for worker in workers)

    def test_shutdown_does_not_join_a_running_future(self):
        pool = SupervisedPool(max_workers=1)
        future, live = pool.submit(time.sleep, 2.0)
        deadline = time.monotonic() + 30.0
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        workers = list(live._processes.values())
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 1.0
        assert not future.done()
        # The busy worker finishes its task and exits on its own.
        future.result(timeout=60.0)
        assert all(_exits(worker) for worker in workers)
