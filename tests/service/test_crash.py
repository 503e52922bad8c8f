"""Fault-injection tests of the crash-safe service core.

The two ISSUE pins live here:

* SIGKILL of a pool worker mid-job leaves the service *serving* — the
  pool is rebuilt, the job retried once, and ``stats().pool_restarts``
  counts exactly one restart.
* A service killed with N accepted-but-unfinished jobs replays exactly
  those N on restart under their original ids (subprocess ``kill -9``).

Everything here requires the ``fork`` start method (runners are pickled
by reference into the worker processes) and real process pools, so the
module is skipped on platforms without them.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import multiprocessing
import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.exceptions import JobFailedError
from repro.passivity.result import PassivityReport
from repro.service import JobState, PassivityService
from repro.service.journal import JobJournal

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="crash tests pickle test-module runners by reference (fork only)",
)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _export_journal_artifacts(tmp_path):
    """Copy journals into $REPRO_CRASH_ARTIFACT_DIR for CI post-mortems."""
    yield
    target = os.environ.get("REPRO_CRASH_ARTIFACT_DIR")
    if not target:
        return
    destination = Path(target)
    destination.mkdir(parents=True, exist_ok=True)
    for journal in tmp_path.rglob("*.jsonl"):
        stamped = f"{journal.parent.name}-{journal.name}-{os.getpid()}-{time.time_ns()}"
        try:
            shutil.copy2(journal, destination / stamped)
        except OSError:
            pass


def _crash_once_runner(system, tol, cache, marker="", **options):
    """Worker suicide on first run (marker file tracks the attempt)."""
    if marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return PassivityReport(is_passive=True, method="crash-once")


def _crash_always_runner(system, tol, cache, **options):
    """Worker suicide on every run: exhausts any retry budget."""
    os.kill(os.getpid(), signal.SIGKILL)


def _quick_runner(system, tol, cache, **options):
    """Immediate passive verdict (liveness canary)."""
    return PassivityReport(is_passive=True, method="quick")


def _sleepy_runner(system, tol, cache, seconds=0.5, **options):
    """Sleep, then report passive (controllable job duration)."""
    time.sleep(seconds)
    return PassivityReport(is_passive=True, method="sleepy")


def _crash_registry() -> MethodRegistry:
    registry = MethodRegistry()
    for name, runner in (
        ("crash-once", _crash_once_runner),
        ("crash-always", _crash_always_runner),
        ("quick", _quick_runner),
        ("sleepy", _sleepy_runner),
    ):
        registry.register(
            MethodSpec(
                name=name,
                runner=runner,
                description=f"fault-injection test method {name}",
                uses_spectral_cache=False,
            )
        )
    return registry


def _crash_service(**kwargs) -> PassivityService:
    runner = BatchRunner(registry=_crash_registry(), backend="thread")
    kwargs.setdefault("executor", "process")
    return PassivityService(runner, **kwargs)


class TestBrokenPoolSupervision:
    def test_sigkill_mid_job_heals_pool_and_retries(self, tmp_path):
        marker = tmp_path / "crashed-once"
        with _crash_service(max_workers=1, max_retries=1) as service:
            handle = service.submit(
                rlc_ladder(3).system, method="crash-once", marker=str(marker)
            )
            # The first dispatch SIGKILLs its worker; the retry must succeed
            # on the rebuilt pool.
            report = handle.result(timeout=120.0)
            assert report.is_passive
            assert marker.exists()
            stats = service.stats()
            assert stats.pool_restarts == 1
            assert stats.retried == 1
            assert handle.status().retries == 1
            # The headline pin: the healed service keeps serving.
            follow_up = service.submit(rlc_ladder(4).system, method="quick")
            assert follow_up.result(timeout=120.0).is_passive
            assert service.health()["state"] == "alive"

    def test_retry_budget_exhaustion_fails_the_job_not_the_service(self):
        with _crash_service(max_workers=1, max_retries=1) as service:
            handle = service.submit(rlc_ladder(3).system, method="crash-always")
            with pytest.raises(JobFailedError) as excinfo:
                handle.result(timeout=120.0)
            assert "retry budget exhausted" in str(excinfo.value)
            status = handle.status()
            assert status.state is JobState.FAILED
            assert status.retries == 1
            # Each crash broke one pool: initial dispatch + one retry.
            assert service.stats().pool_restarts == 2
            assert service.submit(
                rlc_ladder(4).system, method="quick"
            ).result(timeout=120.0).is_passive

    def test_probe_loop_heals_an_idle_killed_pool(self):
        with _crash_service(max_workers=1, probe_interval=0.2) as service:
            service.start()
            # The probe traffic spawns the pool's worker process lazily.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                processes = dict(getattr(service._executor, "_processes", None) or {})
                if processes:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("pool never spawned a worker process")
            os.kill(next(iter(processes)), signal.SIGKILL)
            # Supervision (not a job dispatch) must notice and heal.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if service.stats().pool_restarts >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("probe loop never detected the killed worker")
            health = service.health()
            assert health["state"] == "alive"
            assert health["pool_restarts"] >= 1
            assert service.submit(
                rlc_ladder(3).system, method="quick"
            ).result(timeout=120.0).is_passive


class TestPoisonJobIsolation:
    def test_poison_job_fails_alone(self):
        import threading

        with _crash_service(max_workers=1) as service:
            # Occupy the single worker so the next submissions pool up in
            # the queue behind it.
            blocker = service.submit(
                rlc_ladder(3).system, method="sleepy", seconds=1.0, timeout=90.0
            )
            good = [
                service.submit(rlc_ladder(order).system, method="quick")
                for order in (4, 5, 6)
            ]
            poison = service.submit(
                rlc_ladder(7).system, method="quick", poison=threading.Lock()
            )
            assert blocker.result(timeout=120.0).is_passive
            # The poison dispatch dies on the unpicklable option; the jobs
            # queued with it must still complete.
            for handle in good:
                assert handle.result(timeout=120.0).is_passive
            with pytest.raises(JobFailedError):
                poison.result(timeout=120.0)
            assert service.stats().pool_restarts == 0


class TestKill9Replay:
    CHILD = textwrap.dedent(
        """
        import os, signal, sys, time

        from repro.circuits import rlc_ladder
        from repro.engine import BatchRunner, MethodRegistry, MethodSpec
        from repro.passivity.result import PassivityReport
        from repro.service import PassivityService

        def sleepy(system, tol, cache, **options):
            time.sleep(120.0)
            return PassivityReport(is_passive=True, method="sleepy")

        registry = MethodRegistry()
        registry.register(MethodSpec(
            name="sleepy", runner=sleepy,
            description="blocks forever", uses_spectral_cache=False,
        ))
        runner = BatchRunner(registry=registry, backend="thread")
        service = PassivityService(runner, max_workers=1, journal=sys.argv[1])
        ids = [
            service.submit(rlc_ladder(order).system, method="sleepy").job_id
            for order in (3, 4, 5, 6)
        ]
        print("\\n".join(ids), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )

    def test_kill9_with_queued_jobs_replays_them_on_restart(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(journal_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        ids = child.stdout.split()
        assert len(ids) == 4
        # The write-ahead records survived the kill.
        probe = JobJournal(journal_path)
        assert len(probe) == 4
        probe.close()
        # A restarted service replays exactly those jobs, under their
        # original ids (this incarnation's sleepy answers immediately).
        registry = _crash_registry()
        runner = BatchRunner(registry=registry, backend="thread")
        with PassivityService(
            runner, max_workers=2, journal=journal_path
        ) as service:
            for job_id in ids:
                report = service.result(job_id, timeout=120.0)
                assert report.is_passive
            assert service.stats().replayed == 4
            assert len(service._journal) == 0

    def test_replayed_jobs_get_one_terminal_record_each(self, tmp_path):
        import json

        journal_path = tmp_path / "journal.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(journal_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        ids = child.stdout.split()
        runner = BatchRunner(registry=_crash_registry(), backend="thread")
        with PassivityService(
            runner, max_workers=2, journal=journal_path,
        ) as service:
            for job_id in ids:
                service.result(job_id, timeout=120.0)
        terminal = {}
        for line in journal_path.read_bytes().splitlines():
            record = json.loads(line)
            if record.get("event") == "finished":
                terminal[record["job_id"]] = terminal.get(record["job_id"], 0) + 1
        assert set(terminal) == set(ids)
        assert all(count == 1 for count in terminal.values())
