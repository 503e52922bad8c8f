"""What a process worker receives: every payload goes through pickle.

The process backends send one :class:`~repro.engine.executor.CellTask` per
task down the pool's pipe.  The worker must get the same numbers and the same
cache keys as the parent, and an object the task references several times (a
duplicated system, a shared spectral context, a warm-start ancestor) must
travel once.  ``run_cells`` is called in-process on the unpickled task; the
runner tests use a real process pool.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading

import numpy as np
import pytest

import repro.engine
from repro.circuits import rc_grid, rlc_grid, rlc_grid_corners, rlc_ladder
from repro.config import DEFAULT_TOLERANCES
from repro.engine import PENCIL_SPECTRUM, DecompositionCache
from repro.engine import executor
from repro.engine.cache import fingerprint_system
from repro.engine.executor import CellTask, run_cells
from repro.engine.runner import BatchRunner
from repro.linalg.pencil import compute_spectral_context

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="the process runs pickle test-module objects by reference (fork only)",
)


@pytest.fixture(autouse=True)
def _no_installed_cache():
    """Run every in-process ``run_cells`` call with a fresh task cache."""
    saved = executor._WORKER_CACHE
    executor._WORKER_CACHE = None
    yield
    executor._WORKER_CACHE = saved


def _task(fleet, cells, contexts=None):
    return CellTask(fleet, cells, DEFAULT_TOLERANCES, None, contexts=contexts)


def _pickled(payload):
    """``payload`` as a pool worker receives it."""
    return pickle.loads(pickle.dumps(payload))


def _dense():
    return rlc_grid(3, 3, sparse=False).system


def _sparse():
    return rc_grid(4, 4, sparse=True).system


class TestSystemsInTransit:
    @pytest.mark.parametrize("make", [_dense, _sparse], ids=["dense", "sparse"])
    def test_matrices_arrive_bitwise(self, make):
        system = make()
        received = _pickled(system)
        assert received.is_sparse == system.is_sparse
        for got, sent in zip(received.matrices(), system.matrices()):
            assert got.dtype == sent.dtype == np.float64
            assert np.array_equal(got, sent)

    @pytest.mark.parametrize("make", [_dense, _sparse], ids=["dense", "sparse"])
    def test_fingerprint_survives_the_pipe(self, make):
        # Seeded contexts and warm-start ancestors are found in the worker's
        # cache by fingerprint: the received system must hash the same, both
        # through the memo it carries and when hashed from scratch.
        system = make()
        sent = fingerprint_system(system, DEFAULT_TOLERANCES)
        received = _pickled(system)
        assert fingerprint_system(received, DEFAULT_TOLERANCES) == sent
        fresh = _pickled(make())
        assert "_fingerprint_memo" not in fresh.__dict__
        assert fingerprint_system(fresh, DEFAULT_TOLERANCES) == sent

    def test_sparse_system_is_not_densified_in_transit(self):
        received = _pickled(_sparse())
        assert "e" not in received.__dict__
        assert "a" not in received.__dict__

    def test_duplicated_fleet_member_travels_once(self):
        system = _dense()
        cells = [(0, "gare", {}, None)]
        one = pickle.dumps(_task([system], cells))
        three = pickle.dumps(_task([system, system, system], cells))
        assert len(three) < 1.05 * len(one)
        received = pickle.loads(three)
        assert received.fleet[0] is received.fleet[1] is received.fleet[2]


class TestContextsInTransit:
    def test_pickled_context_arrives_bitwise(self):
        rng = np.random.default_rng(11)
        n = 30
        context = compute_spectral_context(
            np.eye(n), rng.standard_normal((n, n)), DEFAULT_TOLERANCES
        )
        sent = context.to_arrays()
        received = _pickled(context).to_arrays()
        assert set(received) == set(sent)
        for key, value in sent.items():
            assert np.array_equal(received[key], value), key

    def test_context_shared_by_two_positions_travels_once(self):
        system = _dense()
        context = DecompositionCache().spectral(system, DEFAULT_TOLERANCES)
        cells = [(position, "weierstrass", {}, None) for position in (0, 1)]
        task = _task([system, system], cells, {0: context, 1: context})
        single = _task([system], cells[:1], {0: context})
        assert len(pickle.dumps(task)) < 1.05 * len(pickle.dumps(single))
        received = _pickled(task)
        assert received.contexts[0] is received.contexts[1]
        outcomes, stats = run_cells(received)
        assert [error for _, _, error, _ in outcomes] == [None, None]
        assert stats.factorizations_for(PENCIL_SPECTRUM) == 0


class TestAncestorsInTransit:
    def test_pickled_root_warm_starts_every_corner(self):
        # The root runs cold at position 0; each corner names the root as
        # its ancestor.  After the pipe the ancestor must still be found in
        # the task's cache: every corner is an incremental hit.
        root, *corners = rlc_grid_corners(3, 3, 4, scale=2e-4, seed=0)
        cells = [(0, "gare", {}, None)] + [
            (position, "gare", {}, root) for position in range(1, len(corners) + 1)
        ]
        task = _task([root, *corners], cells)
        received = _pickled(task)
        assert received.cells[1][3] is received.fleet[0]
        outcomes, stats = run_cells(received)
        reference, reference_stats = run_cells(task)
        assert [error for _, _, error, _ in outcomes] == [None] * len(cells)
        assert stats.incremental_hits == len(corners)
        assert stats.incremental_fallbacks == 0
        assert stats.incremental_hits == reference_stats.incremental_hits
        assert [o[0].is_passive for o in outcomes] == [
            r[0].is_passive for r in reference
        ]


def _unpicklable_lock():
    return threading.Lock()


def _unpicklable_local():
    def local_callback():
        return None

    return local_callback


@fork_only
class TestRunnerPayloads:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_shm_bytes_is_always_zero(self, backend):
        systems = [rlc_ladder(order).system for order in (2, 3, 4)]
        outcome = BatchRunner(backend=backend, max_workers=2).run(
            systems, methods=("gare",)
        )
        assert all(result.error is None for result in outcome.results)
        assert outcome.shm_bytes == 0

    def test_mixed_sparse_and_batched_fleet_matches_serial(self):
        # Sparse and dense systems ship as singles, each task through the
        # same pipe.
        systems = [
            rlc_ladder(2).system,
            rc_grid(3, 3, sparse=True).system,
            rlc_ladder(3).system,
            rlc_ladder(4).system,
            rc_grid(4, 3, sparse=True).system,
            rlc_ladder(3).system,
        ]
        reference = BatchRunner(backend="serial").run(systems, methods=("gare",))
        outcome = BatchRunner(backend="process", max_workers=2).run(
            systems, methods=("gare",)
        )
        assert outcome.verdicts() == reference.verdicts()
        assert [r.error for r in outcome.results] == [None] * len(systems)

    @pytest.mark.parametrize(
        "make", [_unpicklable_lock, _unpicklable_local], ids=["lock", "local"]
    )
    def test_unpicklable_option_fails_its_cells_not_the_sweep(self, make):
        # pickle raises TypeError for a lock and AttributeError for a local
        # function; either way the sweep finishes and only the cells whose
        # task could not be sent carry the error.
        systems = [rlc_ladder(3).system, rlc_ladder(4).system]
        outcome = BatchRunner(backend="process", max_workers=1).run(
            systems,
            methods=("gare", "weierstrass"),
            method_options={"gare": {"callback": make()}},
        )
        assert len(outcome.results) == 4
        for result in outcome.results:
            assert result.error is not None
            assert "pickle" in result.error
            assert result.report is None

    def test_transport_parameter_is_gone(self):
        with pytest.raises(TypeError):
            BatchRunner(backend="process", transport="pickle")


class TestNoSharedMemoryModule:
    def test_engine_exports_no_transport_names(self):
        for name in ("ArrayArena", "ArrayShipment", "shm_available"):
            assert not hasattr(repro.engine, name)
            assert name not in repro.engine.__all__
        with pytest.raises(ImportError):
            __import__("repro.engine.shm")
