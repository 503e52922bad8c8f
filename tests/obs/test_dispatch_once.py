"""Every cell is observed exactly once, on every executor.

Thread and serial tasks record their spans into :data:`METRICS` and their
counters into the runner cache as they run; process tasks only return them,
so the caller merges the counter delta and replays the spans — once per
task.  A backend that replayed in-process spans, or skipped a process
replay, would move ``engine.dispatch`` by the wrong amount.
"""

from __future__ import annotations

import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner
from repro.obs import METRICS
from repro.service import PassivityService

METHODS = ("gare", "weierstrass")


def _dispatches() -> float:
    return METRICS.stage_quantiles().get("engine.dispatch", {}).get("count", 0.0)


@pytest.fixture(scope="module")
def fleet():
    return [rlc_ladder(n).system for n in (4, 5, 6)]


def test_runner_backends_observe_each_cell_once(fleet):
    factorizations = {}
    for backend in ("serial", "thread", "process"):
        before = _dispatches()
        outcome = BatchRunner(backend=backend, max_workers=2).run(fleet, methods=METHODS)
        assert all(result.ok for result in outcome.results), backend
        assert _dispatches() - before == len(fleet) * len(METHODS), backend
        factorizations[backend] = outcome.cache_stats.factorizations
    assert factorizations["serial"] > 0
    assert len(set(factorizations.values())) == 1, factorizations


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_service_executors_observe_each_job_once(executor):
    with PassivityService(max_workers=1, executor=executor) as service:
        before = _dispatches()
        service.submit(rlc_ladder(5).system, method="gare").result(timeout=60.0)
        assert _dispatches() - before == 1
