"""Pool-rebuild supervision of the process backend's collection loop.

A SIGKILLed worker breaks the whole ``ProcessPoolExecutor`` — every
in-flight future raises ``BrokenProcessPool``.  The runner gives each worker
its own single-worker pool (a lane), so it must rebuild only the crashed
lane mid-sweep and resubmit that lane's unfinished tasks once: a single
worker crash costs a retry, not the remainder of the fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import zlib
from collections import Counter

import pytest

from repro.circuits import rlc_grid_corners, rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.engine.runner import _fill_idle_workers
from repro.passivity.result import PassivityReport

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="supervision tests pickle test-module runners by reference (fork only)",
)


def _crash_once_runner(system, tol, cache, marker="", **options):
    """SIGKILL the worker on first run; succeed once the marker exists.

    The marker is created exclusively, so of two workers that start at once
    only one crashes.
    """
    if marker:
        try:
            with open(marker, "x") as handle:
                handle.write(str(os.getpid()))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return PassivityReport(is_passive=True, method="crash-once")


def _key(system) -> str:
    return str(zlib.crc32(system.a.tobytes()))


def _lane_crash_runner(system, tol, cache, marker="", log="", crash_key="", **options):
    """Log ``pid key`` for every run; kill the worker once, at ``crash_key``."""
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()} {_key(system)}\n")
    time.sleep(0.05)
    if _key(system) == crash_key:
        _crash_once_runner(system, tol, cache, marker=marker)
    return PassivityReport(is_passive=True, method="lane-crash")


def _crash_always_runner(system, tol, cache, **options):
    """SIGKILL the worker on every run: defeats the one-retry budget."""
    os.kill(os.getpid(), signal.SIGKILL)


def _registry() -> MethodRegistry:
    registry = MethodRegistry()
    registry.register(
        MethodSpec(
            name="crash-once",
            runner=_crash_once_runner,
            description="kills its worker once",
            uses_spectral_cache=False,
        )
    )
    registry.register(
        MethodSpec(
            name="lane-crash",
            runner=_lane_crash_runner,
            description="logs each run and kills its worker at one system",
            uses_spectral_cache=False,
        )
    )
    registry.register(
        MethodSpec(
            name="crash-always",
            runner=_crash_always_runner,
            description="kills its worker every time",
            uses_spectral_cache=False,
        )
    )
    return registry


class TestPoolRebuild:
    def test_worker_crash_rebuilds_pool_and_retries_tasks(self, tmp_path):
        marker = tmp_path / "crashed-once"
        runner = BatchRunner(
            registry=_registry(),
            backend="process",
            max_workers=2,
        )
        systems = [rlc_ladder(order).system for order in (3, 4, 5, 6)]
        outcome = runner.run(
            systems,
            methods=("crash-once",),
            method_options={"crash-once": {"marker": str(marker)}},
        )
        # Exactly one pool died (the marker serializes the crash), and
        # every cell of the sweep still produced a verdict on the retry.
        assert outcome.pool_restarts == 1
        assert len(outcome.results) == len(systems)
        for result in outcome.results:
            assert result.error is None
            assert result.report.is_passive

    def test_fanned_out_sweep_heals_and_records_the_root_once(self, tmp_path):
        # One same-shape family on two workers fans out into two pieces
        # that both run the family root, one per lane; the crash breaks one
        # lane, and the retries must still record every cell exactly once.
        marker = tmp_path / "crashed-once"
        family = rlc_grid_corners(3, 3, 5, scale=2e-4, seed=0)
        calls = Counter()
        runner = BatchRunner(
            registry=_registry(),
            backend="process",
            max_workers=2,
            incremental="sweep",
        )
        outcome = runner.run(
            family,
            methods=("crash-once",),
            method_options={"crash-once": {"marker": str(marker)}},
            progress=lambda result: calls.update([result.system_index]),
        )
        assert outcome.pool_restarts == 1
        assert outcome.n_chains == 1
        assert [r.system_index for r in outcome.results] == list(range(len(family)))
        assert calls == Counter(range(len(family)))
        for result in outcome.results:
            assert result.error is None
            assert result.report.is_passive

    def test_a_crash_reruns_only_its_own_lane(self, tmp_path):
        # Two lanes each run one piece of a fanned-out family.  Killing the
        # first lane's worker at its last cell heals that lane alone: only
        # the unfinished cell reruns, on a new worker, and no cell of the
        # other lane runs twice.
        marker, log = tmp_path / "crashed-once", tmp_path / "runs.log"
        family = rlc_grid_corners(3, 3, 5, scale=2e-4, seed=0)
        calls = Counter()
        runner = BatchRunner(
            registry=_registry(), backend="process", max_workers=2,
            incremental="sweep",
        )
        first, second = _fill_idle_workers(runner._plan_sweep_chains(family), 0, 2)
        outcome = runner.run(
            family,
            methods=("lane-crash",),
            method_options={
                "lane-crash": {
                    "marker": str(marker), "log": str(log),
                    "crash_key": _key(family[first[-1]]),
                }
            },
            progress=lambda result: calls.update([result.system_index]),
        )
        assert outcome.pool_restarts == 1
        assert calls == Counter(range(len(family)))
        assert all(result.ok for result in outcome.results)
        runs_by_pid = {}
        for line in log.read_text().splitlines():
            pid, key = line.split()
            runs_by_pid.setdefault(pid, []).append(key)

        def keys(indices):
            return [_key(family[si]) for si in indices]

        assert runs_by_pid.pop(marker.read_text()) == keys(first)
        assert sorted(runs_by_pid.values()) == sorted([keys(first[-1:]), keys(second)])

    def test_persistent_crasher_fails_its_cells_not_the_sweep(self):
        runner = BatchRunner(
            registry=_registry(),
            backend="process",
            max_workers=1,
        )
        systems = [rlc_ladder(order).system for order in (3, 4)]
        outcome = runner.run(systems, methods=("crash-always",))
        # The sweep returns (no exception escapes), the rebuilds are
        # counted, and each cell reports the broken-pool error.
        assert outcome.pool_restarts >= 1
        assert len(outcome.results) == len(systems)
        for result in outcome.results:
            assert result.error is not None
            assert "Broken" in result.error
            assert not result.timed_out
