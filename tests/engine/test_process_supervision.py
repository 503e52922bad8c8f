"""Pool-rebuild supervision of the process backend's collection loop.

A SIGKILLed worker breaks the whole ``ProcessPoolExecutor`` — every
in-flight future raises ``BrokenProcessPool``.  The runner must rebuild
the pool mid-sweep and resubmit each interrupted task once, so a single
worker crash costs a retry, not the remainder of the fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro.circuits import rlc_grid_corners, rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.passivity.result import PassivityReport

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="supervision tests pickle test-module runners by reference (fork only)",
)


def _crash_once_runner(system, tol, cache, marker="", **options):
    """SIGKILL the worker on first run; succeed once the marker exists."""
    if marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return PassivityReport(is_passive=True, method="crash-once")


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
        # that both run the family root; the crash breaks the pool under
        # both, and the retries must still record every cell exactly once.
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
