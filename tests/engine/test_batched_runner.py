"""Chain pieces and pickled payloads of the process backend.

A process sweep and a serial sweep of the same fleet agree cell for cell.
The per-cell wait budget of a chain piece, the exactness of its merged cache
counters, and the arrival of each cell's verdict as soon as it is certified
are pinned here too.
"""

import multiprocessing
import time

import pytest

from repro.circuits import rlc_ladder
from repro.engine import PENCIL_SPECTRUM, MethodRegistry, MethodSpec
from repro.engine.runner import BatchRunner
from repro.passivity.result import PassivityReport


def small_fleet(count=8, orders=(2, 3, 4)):
    return [rlc_ladder(orders[k % len(orders)]).system for k in range(count)]


def assert_same_verdicts(outcome, reference):
    assert outcome.verdicts() == reference.verdicts()
    for got, want in zip(outcome.results, reference.results):
        assert (got.system_index, got.method) == (want.system_index, want.method)
        assert got.error == want.error
        assert got.timed_out == want.timed_out


class TestChainPieces:
    def test_chain_piece_wait_and_counters_match_serial(self, monkeypatch):
        # Five copies of one system form one warm-start chain, run as five
        # one-system tasks on one lane.  task_timeout budgets one cell, so
        # each task is waited on for task_timeout; and the lane's one
        # worker cache carries every cell, so the counters equal a serial
        # sweep's.
        from concurrent.futures import Future

        captured = []
        original = Future.result

        def spy(self, timeout=None):
            captured.append(timeout)
            return original(self, timeout=timeout)

        system = rlc_ladder(3).system
        serial = BatchRunner(
            backend="serial", incremental="sweep", precompute_spectral=False
        )
        reference = serial.run([system] * 5, methods=("proposed",))
        monkeypatch.setattr(Future, "result", spy)
        runner = BatchRunner(
            backend="process",
            incremental="sweep",
            max_workers=1,
            task_timeout=120.0,
            precompute_spectral=False,
        )
        outcome = runner.run([system] * 5, methods=("proposed",))
        assert captured == [120.0] * 5
        assert outcome.n_chains == 1
        assert_same_verdicts(outcome, reference)
        assert (
            outcome.cache_stats.factorizations
            == reference.cache_stats.factorizations
        )
        assert outcome.cache_stats.hits == reference.cache_stats.hits
        assert outcome.cache_stats.misses == reference.cache_stats.misses


def _quarter_second_runner(system, tol, cache, **options):
    time.sleep(0.25)
    return PassivityReport(is_passive=True, method="quarter-second")


class TestPerCellProgress:
    @pytest.mark.parametrize("backend", ["process", "thread", "serial"])
    def test_each_chained_cell_reports_when_it_lands(self, backend):
        # A four-system chain on one worker: each verdict must reach
        # progress when its own cell ends, not when the chain does.
        if backend == "process" and multiprocessing.get_start_method(
            allow_none=True
        ) not in (None, "fork"):
            pytest.skip("pickles a test-module runner by reference (fork only)")
        registry = MethodRegistry()
        registry.register(
            MethodSpec(
                name="quarter-second", runner=_quarter_second_runner,
                description="sleeps 0.25 s", uses_spectral_cache=False,
            )
        )
        arrivals = []
        outcome = BatchRunner(
            backend=backend, max_workers=1, incremental="sweep", registry=registry
        ).run(
            # Distinct systems of one family: a repeat would be answered by
            # its cached verdict instead of running.
            [rlc_ladder(3, series_resistance=0.4 + 0.1 * k).system for k in range(4)],
            methods=("quarter-second",),
            progress=lambda result: arrivals.append(time.perf_counter()),
        )
        assert outcome.n_chains == 1
        assert all(result.ok for result in outcome.results)
        assert len(arrivals) == 4
        assert all(later > earlier for earlier, later in zip(arrivals, arrivals[1:]))
        assert arrivals[-1] - arrivals[0] >= 0.5


class TestNoMicroBatching:
    @pytest.mark.parametrize(
        "knob",
        [
            {"batch_small_systems": True},
            {"small_system_order": 100},
            {"batch_size": 3},
        ],
        ids=["batch_small_systems", "small_system_order", "batch_size"],
    )
    def test_batching_parameters_are_gone(self, knob):
        with pytest.raises(TypeError):
            BatchRunner(backend="process", **knob)

    def test_outcome_has_no_batch_fields(self):
        outcome = BatchRunner(backend="serial").run(small_fleet(2), methods=("gare",))
        for name in ("n_batches", "n_batched_jobs", "batch_occupancy"):
            assert not hasattr(outcome, name)


class TestTransport:
    def test_batched_sweep_of_larger_systems_matches_serial(self):
        # Order-76 systems, one per task: every task's payload is pickled.
        systems = small_fleet(6, orders=(25,))
        runner = BatchRunner(backend="process")
        reference = BatchRunner(backend="serial").run(systems, methods=("gare",))
        outcome = runner.run(systems, methods=("gare",))
        assert outcome.shm_bytes == 0
        assert_same_verdicts(outcome, reference)

    def test_precomputed_context_rides_the_task(self):
        # Duplicated systems make the spectral hoist fire: the parent's one
        # factorization is pickled into both tasks, and the workers pay none.
        system = rlc_ladder(6).system
        reference = BatchRunner(backend="serial").run(
            [system, system], methods=("weierstrass",)
        )
        outcome = BatchRunner(backend="process").run(
            [system, system], methods=("weierstrass",)
        )
        assert_same_verdicts(outcome, reference)
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1
