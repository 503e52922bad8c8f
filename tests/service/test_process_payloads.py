"""The process service pickles every dispatch: jobs, scenario roots, options.

A job's system, a scenario corner's family root and a family's latest cold
run all reach the worker through the pool's pickle pipe.  These tests pin
that the process executor gives the thread executor's verdicts, that a
pickled root still warm-starts its corners in the worker, and that a
timed-out dispatch's late outcome is dropped.

The test registry's runners pickle by reference, so the module needs the
``fork`` start method.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.circuits import rlc_grid_corners, rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.exceptions import JobFailedError, UnknownJobError
from repro.passivity.result import PassivityReport
from repro.service import (
    JobState,
    PassivityService,
    ScenarioSpec,
    ScenarioState,
    system_to_jsonable,
)
from repro.service.__main__ import main

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="the test registry's runners pickle by reference (fork only)",
)


def _sleepy_runner(system, tol, cache, seconds=0.0, **options):
    """Sleep, then report passive (controllable job duration)."""
    time.sleep(seconds)
    return PassivityReport(is_passive=True, method="sleepy")


def _quick_runner(system, tol, cache, **options):
    """Immediate passive verdict."""
    return PassivityReport(is_passive=True, method="quick")


def _test_service(**kwargs) -> PassivityService:
    registry = MethodRegistry()
    for name, runner in (("sleepy", _sleepy_runner), ("quick", _quick_runner)):
        registry.register(
            MethodSpec(
                name=name,
                runner=runner,
                description=f"test method {name}",
                uses_spectral_cache=False,
            )
        )
    runner = BatchRunner(registry=registry, backend="thread")
    return PassivityService(runner, executor="process", max_workers=1, **kwargs)


def _scenario_outcome(spec, executor):
    with PassivityService(
        max_workers=1, incremental=True, executor=executor
    ) as service:
        handle = service.submit_scenario(spec)
        assert handle.wait(120.0)
        status = handle.status()
        stats = service.stats()
    verdicts = [cell["is_passive"] for cell in status.cells]
    return status, verdicts, stats


class TestProcessMatchesThread:
    def test_large_single_job(self):
        # Order 121: above the small-system limit, so the job is sent alone.
        system = rlc_ladder(40).system
        reports = {}
        for executor in ("thread", "process"):
            with PassivityService(max_workers=1, executor=executor) as service:
                reports[executor] = service.submit(system, method="gare").result(
                    timeout=300.0
                )
                stats = service.stats()
            assert stats.batches == 0
            assert stats.shm_bytes == 0
        assert reports["process"].is_passive is True
        assert reports["process"].is_passive == reports["thread"].is_passive

    def test_corner_scenario_warm_starts_from_the_pickled_root(self):
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(4).system,
            n_corners=6,
            method="gare",
        )
        status, verdicts, stats = _scenario_outcome(spec, "process")
        _, thread_verdicts, _ = _scenario_outcome(spec, "thread")
        assert status.state is ScenarioState.DONE
        assert verdicts == thread_verdicts == [True] * 6
        # The root ran first on the one worker; every perturbed corner
        # names it as ancestor and finds its decompositions there.
        assert stats.incremental_hits == 5
        assert stats.incremental_fallbacks == 0

    def test_portfolio_scenario(self):
        members = rlc_grid_corners(3, 3, n_corners=5, scale=2e-4, seed=2)
        spec = ScenarioSpec(family="portfolio", systems=list(members), method="gare")
        status, verdicts, stats = _scenario_outcome(spec, "process")
        _, thread_verdicts, _ = _scenario_outcome(spec, "thread")
        assert status.state is ScenarioState.DONE
        assert verdicts == thread_verdicts
        assert status.n_done == len(members)
        assert stats.incremental_fallbacks == 0

    def test_family_sweep_warm_starts_from_the_latest_cold_run(self):
        family = rlc_grid_corners(4, 4, n_corners=5, scale=2e-4, seed=0)
        with PassivityService(
            max_workers=1, incremental=True, executor="process"
        ) as service:
            reports = [
                service.submit(system, method="gare").result(timeout=120.0)
                for system in family
            ]
            stats = service.stats()
        assert all(report.is_passive for report in reports)
        assert stats.incremental_hits >= 1


class TestTimedOutDispatch:
    def test_late_outcome_is_dropped(self):
        with _test_service() as service:
            late = service.submit(
                rlc_ladder(3).system, method="sleepy", seconds=1.0, timeout=0.2
            )
            with pytest.raises(JobFailedError):
                late.result(timeout=120.0)
            assert late.status().state is JobState.TIMED_OUT
            # The one worker runs the abandoned sleep to its end before it
            # takes the next dispatch, so the late outcome has arrived by
            # the time this job is done.
            report = service.submit(rlc_ladder(4).system, method="quick").result(
                timeout=120.0
            )
            assert report.method == "quick"
            assert late.status().state is JobState.TIMED_OUT
            stats = service.stats()
        assert stats.timed_out == 1
        assert stats.completed == 1


class TestNoTransportKnob:
    def test_transport_parameter_is_gone(self):
        with pytest.raises(TypeError):
            PassivityService(executor="process", transport="pickle")

    def test_cli_has_no_transport_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--transport", "pickle"])
        assert exit_info.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_shm_record_with_a_wire_copy_is_unreplayable(self, tmp_path):
        # A shared-memory descriptor is not a system, and the journal no
        # longer reads a ``system_wire`` copy next to it.
        journal_path = tmp_path / "journal.jsonl"
        record = {
            "event": "submitted",
            "job_id": "job-shm-wire",
            "system": {
                "kind": "array_shipment",
                "segment": "repro-arena-dead-f00d",
                "specs": [{"name": "E", "shape": [6, 6], "dtype": "float64"}],
            },
            "system_wire": system_to_jsonable(rlc_ladder(3).system),
            "method": "auto",
            "options": {},
            "priority": 0,
            "timeout": None,
            "submitted_at": time.time(),
        }
        journal_path.write_text(json.dumps(record) + "\n")
        with PassivityService(max_workers=1, journal=journal_path) as service:
            with pytest.raises(UnknownJobError):
                service.status("job-shm-wire")
            assert service.stats().replayed == 0
            assert len(service._journal) == 0
