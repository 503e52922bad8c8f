"""``PassivityService.close()`` and its process pool's workers.

Closing joins the pool's workers when no dispatch is still running, so an
idle service leaves no child process behind.  A timed-out job's worker cannot
be killed: then ``close()`` returns at once instead of waiting for it.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.passivity.result import PassivityReport
from repro.service import JobState, PassivityService

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="the test registry's runners pickle by reference (fork only)",
)


def _sleepy_runner(system, tol, cache, seconds=0.0, **options):
    """Sleep, then report passive (controllable job duration)."""
    time.sleep(seconds)
    return PassivityReport(is_passive=True, method="sleepy")


def _service(**kwargs) -> PassivityService:
    registry = MethodRegistry()
    registry.register(
        MethodSpec(
            name="sleepy",
            runner=_sleepy_runner,
            description="sleeps for the requested seconds",
            uses_spectral_cache=False,
        )
    )
    runner = BatchRunner(registry=registry, backend="thread")
    return PassivityService(runner, executor="process", max_workers=1, **kwargs)


class TestCloseJoinsThePool:
    def test_idle_service_leaves_no_child_process(self):
        before = set(multiprocessing.active_children())
        service = _service()
        handle = service.submit(rlc_ladder(3).system, method="sleepy")
        assert handle.result(timeout=120.0).is_passive
        workers = list(service._executor._processes.values())
        service.close()
        assert workers and not any(worker.is_alive() for worker in workers)
        assert set(multiprocessing.active_children()) <= before

    def test_close_after_a_timeout_does_not_wait_for_the_worker(self):
        service = _service()
        handle = service.submit(
            rlc_ladder(3).system, method="sleepy", seconds=3.0, timeout=0.2
        )
        assert service.wait(handle.job_id, timeout=120.0)
        assert handle.status().state is JobState.TIMED_OUT
        workers = list(service._executor._processes.values())
        start = time.monotonic()
        service.close()
        assert time.monotonic() - start < 2.0
        assert any(worker.is_alive() for worker in workers)
        # The abandoned worker finishes its sleep and exits by itself.  Poll
        # rather than join: the pool's management thread joins it too.
        deadline = time.monotonic() + 60.0
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(worker.is_alive() for worker in workers)
