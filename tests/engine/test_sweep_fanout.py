"""Sweep chains fanned out over idle process workers.

A ``BatchRunner(incremental="sweep")`` sweep with fewer tasks than pool
workers splits its longest chain into pieces that each lead with the
chain's root.  The duplicated root must reach ``results`` and ``progress``
once, the incremental counters must read as for one chain, and verdicts
must equal a serial sweep's.  A sweep that already fills the pool, or whose
chain is too short to split, runs unchanged.
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from collections import Counter

import pytest

from repro.circuits import rlc_grid_corners
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.engine.runner import _fill_idle_workers
from repro.passivity.result import PassivityReport


def _sweep(backend, systems, progress=None, **kwargs):
    runner = BatchRunner(backend=backend, incremental="sweep", **kwargs)
    return runner.run(systems, ["auto"], progress=progress)


@pytest.fixture(scope="module")
def family():
    return rlc_grid_corners(4, 4, 8, scale=2e-4, seed=3)


class TestFillIdleWorkers:
    def test_splits_into_contiguous_halves_led_by_the_root(self):
        assert _fill_idle_workers([[5, 1, 2, 3, 4]], 0, 2) == [[5, 1, 2], [5, 3, 4]]

    def test_shorter_half_goes_first(self):
        assert _fill_idle_workers([[0, 1, 2, 3]], 0, 2) == [[0, 1], [0, 2, 3]]

    def test_splits_the_longest_piece_until_the_pool_is_full(self):
        pieces = _fill_idle_workers([[0, 1, 2], [9, 3, 4, 5, 6]], 0, 3)
        assert pieces == [[0, 1, 2], [9, 3, 4], [9, 5, 6]]
        pieces = _fill_idle_workers([[0, 1, 2], [9, 3, 4, 5, 6]], 0, 4)
        assert pieces == [[0, 1], [0, 2], [9, 3, 4], [9, 5, 6]]

    def test_other_tasks_count_towards_the_pool(self):
        assert _fill_idle_workers([[0, 1, 2, 3]], 1, 2) == [[0, 1, 2, 3]]

    def test_two_member_chains_are_never_split(self):
        assert _fill_idle_workers([[0, 1], [2, 3]], 0, 8) == [[0, 1], [2, 3]]

    def test_no_chains_no_pieces(self):
        assert _fill_idle_workers([], 0, 4) == []


class TestProcessFanOut:
    def test_verdicts_match_a_serial_sweep(self, family):
        fanned = _sweep("process", family, max_workers=2)
        serial = _sweep("serial", family)
        assert fanned.verdicts() == serial.verdicts()
        assert all(result.ok for result in fanned.results)

    def test_every_cell_is_recorded_once(self, family):
        calls = Counter()
        outcome = _sweep(
            "process", family, max_workers=2,
            progress=lambda result: calls.update([(result.system_index, result.method)]),
        )
        cells = [(result.system_index, result.method) for result in outcome.results]
        expected = [(si, "auto") for si in range(len(family))]
        assert cells == expected
        assert sorted(calls) == expected
        assert set(calls.values()) == {1}

    def test_counters_read_as_one_chain(self, family):
        outcome = _sweep("process", family, max_workers=2)
        stats = outcome.cache_stats
        assert stats.incremental_hits == len(family) - 1 - stats.incremental_fallbacks
        assert outcome.n_chains == 1
        assert outcome.n_chained_jobs == 8

    def test_the_extra_piece_pays_one_more_cold_root(self, family):
        fanned = _sweep("process", family, max_workers=2)
        single = _sweep("process", family, max_workers=1)
        root = _sweep("serial", family[:1])
        assert (
            fanned.cache_stats.factorizations
            == single.cache_stats.factorizations + root.cache_stats.factorizations
        )

    def test_counters_match_the_group_task_constants(self):
        # One six-corner family on two lanes: [root, c1, c2] and
        # [root, c3, c4, c5], each with its own cold root.  The constants are
        # what the runner gave when each piece was one multi-system task;
        # one-cell tasks on a worker that keeps its cache must give the same.
        family = rlc_grid_corners(3, 4, 6, scale=2e-4, seed=0)
        fanned = _sweep("process", family, max_workers=2)
        serial = _sweep("serial", family)
        assert fanned.verdicts() == serial.verdicts()
        assert fanned.cache_stats.factorizations == 10
        assert fanned.cache_stats.incremental_hits == 5
        assert fanned.cache_stats.incremental_fallbacks == 0


class TestNoFanOut:
    def test_two_families_on_two_workers(self):
        first = rlc_grid_corners(4, 4, 4, scale=2e-4, seed=11)
        second = rlc_grid_corners(3, 5, 4, scale=2e-4, seed=12)
        both = _sweep("process", first + second, max_workers=2)
        own = [_sweep("process", f, max_workers=1) for f in (first, second)]
        assert both.n_chains == 2
        assert both.cache_stats.factorizations == sum(
            outcome.cache_stats.factorizations for outcome in own
        )

    def test_two_member_family(self):
        pair = rlc_grid_corners(4, 4, 2, scale=2e-4, seed=13)
        fanned = _sweep("process", pair, max_workers=2)
        single = _sweep("process", pair, max_workers=1)
        assert fanned.n_chains == 1
        assert fanned.cache_stats.factorizations == single.cache_stats.factorizations
        assert fanned.verdicts() == single.verdicts()


def _sleep_runner(system, tol, cache, duration=0.0, hang_key=None, **options):
    if hang_key is not None and _key(system) == hang_key:
        duration = 4.0
    time.sleep(duration)
    return PassivityReport(is_passive=True, method="sleep")


def _key(system):
    return zlib.crc32(system.a.tobytes())


def _sleep_registry():
    registry = MethodRegistry()
    registry.register(
        MethodSpec(
            name="sleep", runner=_sleep_runner, description="sleeps",
            uses_spectral_cache=False,
        )
    )
    return registry


@pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="pickles a test-module runner by reference (fork only)",
)
class TestPoolShutdown:
    def test_run_joins_its_workers(self, family):
        workers = set()

        def progress(result):
            workers.update(child.pid for child in multiprocessing.active_children())

        _sweep("process", family, progress=progress, max_workers=2)
        assert workers
        assert workers.isdisjoint(
            child.pid for child in multiprocessing.active_children()
        )

    def test_a_timed_out_cell_does_not_join_the_hung_worker(self, family):
        runner = BatchRunner(
            backend="process", max_workers=1, task_timeout=0.2,
            registry=_sleep_registry(),
        )
        start = time.perf_counter()
        outcome = runner.run(
            family[:1], ["sleep"], method_options={"sleep": {"duration": 2.0}}
        )
        assert time.perf_counter() - start < 1.5
        assert outcome.n_timed_out == 1

    def test_a_hung_cell_times_out_its_lane_only(self, family):
        # The family fans out into two pieces, one per lane.  The first
        # successor of the first piece hangs: it and the cells queued behind
        # it time out, the other lane certifies all of its cells, and run()
        # returns without waiting for the hung worker.
        runner = BatchRunner(
            backend="process", max_workers=2, task_timeout=1.0,
            incremental="sweep", registry=_sleep_registry(),
        )
        first, second = _fill_idle_workers(runner._plan_sweep_chains(family), 0, 2)
        start = time.perf_counter()
        outcome = runner.run(
            family, ["sleep"],
            method_options={"sleep": {"hang_key": _key(family[first[1]])}},
        )
        assert time.perf_counter() - start < 3.5
        assert multiprocessing.active_children()
        timed_out = {r.system_index for r in outcome.results if r.timed_out}
        assert timed_out == set(first[1:])
        for si in second:
            assert outcome.results[si].ok
        assert outcome.results[first[0]].ok
