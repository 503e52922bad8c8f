"""Chain pieces and pickled payloads of the process backend.

A process sweep and a serial sweep of the same fleet agree cell for cell.
The wait budget of a multi-system task and the exactness of its merged cache
counters are pinned here too.
"""

import pytest

from repro.circuits import rlc_ladder
from repro.engine import PENCIL_SPECTRUM
from repro.engine.runner import BatchRunner


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
        # Five copies of one system form one warm-start chain, shipped as
        # one task on one worker.  task_timeout budgets one system, so the
        # task is waited on for 5 * task_timeout; and the task's one
        # worker-local cache merges once, so the counters equal a serial
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
        assert captured == [600.0]
        assert outcome.n_chains == 1
        assert_same_verdicts(outcome, reference)
        assert (
            outcome.cache_stats.factorizations
            == reference.cache_stats.factorizations
        )
        assert outcome.cache_stats.hits == reference.cache_stats.hits
        assert outcome.cache_stats.misses == reference.cache_stats.misses


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
