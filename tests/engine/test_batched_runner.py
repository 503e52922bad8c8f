"""Micro-batch execution and pickled payloads of the process backend.

Verdicts must be independent of policy: a batched process sweep and a serial
sweep of the same fleet agree cell for cell.  The telemetry (chunk counts,
occupancy) and the exactness of the merged cache counters under batching
are pinned here too.
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


class TestMicroBatching:
    def test_forced_batching_matches_serial(self):
        systems = small_fleet(6)
        reference = BatchRunner(backend="serial").run(systems, methods=("gare",))
        runner = BatchRunner(
            backend="process", batch_small_systems=True, batch_size=3
        )
        outcome = runner.run(systems, methods=("gare",))
        assert_same_verdicts(outcome, reference)
        assert outcome.n_batches == 2
        assert outcome.n_batched_jobs == 6
        assert outcome.batch_occupancy == 3.0

    def test_auto_policy_stays_off_for_tiny_sweeps(self):
        systems = small_fleet(3)
        outcome = BatchRunner(backend="process").run(systems, methods=("gare",))
        assert outcome.n_batches == 0
        assert outcome.n_batched_jobs == 0
        assert outcome.batch_occupancy == 0.0

    def test_auto_policy_engages_on_large_small_system_fleets(self):
        workers = BatchRunner(backend="process", max_workers=1)
        threshold = max(8, 2 * 1)
        systems = small_fleet(threshold)
        outcome = workers.run(systems, methods=("gare",))
        assert outcome.n_batches >= 1
        assert outcome.n_batched_jobs == threshold

    def test_large_systems_stay_on_per_system_path(self):
        systems = small_fleet(8)
        runner = BatchRunner(
            backend="process", batch_small_systems=True, small_system_order=1
        )
        reference = BatchRunner(backend="serial").run(systems, methods=("gare",))
        outcome = runner.run(systems, methods=("gare",))
        # Every order here exceeds the (artificially tiny) small-system limit.
        assert outcome.n_batches == 0
        assert_same_verdicts(outcome, reference)

    def test_chunk_merges_stats_once_keeping_counters_exact(self):
        # Five copies of one system in a single chunk share the chunk's
        # worker-local cache: the sweep must account exactly one
        # factorization chain, not one per job.
        system = rlc_ladder(3).system
        runner = BatchRunner(
            backend="process",
            batch_small_systems=True,
            batch_size=5,
            precompute_spectral=False,
        )
        outcome = runner.run([system] * 5, methods=("proposed",))
        assert outcome.n_batches == 1
        assert outcome.n_batched_jobs == 5
        serial = BatchRunner(backend="serial", precompute_spectral=False)
        reference = serial.run([system] * 5, methods=("proposed",))
        assert_same_verdicts(outcome, reference)
        # One shared cache on both paths: identical factorization counts.
        assert (
            outcome.cache_stats.factorizations
            == reference.cache_stats.factorizations
        )
        assert outcome.cache_stats.hits == reference.cache_stats.hits
        assert outcome.cache_stats.misses == reference.cache_stats.misses

    def test_chunk_wait_scales_with_chunk_size(self, monkeypatch):
        # task_timeout budgets one system; a chunk of k systems must be
        # waited on for k * task_timeout, or callers with per-system
        # timeouts tuned near real job cost would see whole chunks
        # spuriously timed out after enabling batching.
        from concurrent.futures import Future

        captured = []
        original = Future.result

        def spy(self, timeout=None):
            captured.append(timeout)
            return original(self, timeout=timeout)

        monkeypatch.setattr(Future, "result", spy)
        runner = BatchRunner(
            backend="process",
            batch_small_systems=True,
            batch_size=3,
            task_timeout=120.0,
        )
        outcome = runner.run(small_fleet(6), methods=("gare",))
        assert outcome.n_timed_out == 0
        assert captured == [360.0, 360.0]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(batch_small_systems="yes")
        for size in (0, -3):
            with pytest.raises(ValueError):
                BatchRunner(batch_small_systems=True, batch_size=size)


class TestTransport:
    def test_batched_sweep_of_larger_systems_matches_serial(self):
        # Order-76 systems in 3-job chunks: every task's payload is pickled.
        systems = small_fleet(6, orders=(25,))
        runner = BatchRunner(
            backend="process", batch_small_systems=True, batch_size=3
        )
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
