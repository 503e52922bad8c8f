"""Crash-replay pins of the streaming scenario engine (satellite: journal).

Two ISSUE pins live here:

* ``kill -9`` of a service holding a scenario parent with live corners —
  the restarted service replays the *spec* (not the cells) under the
  original scenario id, the seeded expansion regenerates the same corner
  cells, and the whole sweep completes and streams a terminal summary.
* A journal record whose ``system`` payload is a shared-memory descriptor
  (segment name + array specs) is not a system: it is marked unreplayable
  without blocking startup, and its neighbours replay normally.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.exceptions import UnknownJobError
from repro.passivity.result import PassivityReport
from repro.service import (
    PassivityService,
    ScenarioState,
    system_to_jsonable,
)
from repro.service.journal import JobJournal

from harness import drain

SRC = Path(__file__).resolve().parents[2] / "src"


def _fast_registry() -> MethodRegistry:
    """The restarted incarnation's ``sleepy`` answers immediately."""

    def quick(system, tol, cache, **options):
        return PassivityReport(is_passive=True, method="sleepy")

    registry = MethodRegistry()
    registry.register(
        MethodSpec(
            name="sleepy",
            runner=quick,
            description="instant stand-in for the crashed incarnation",
            uses_spectral_cache=False,
        )
    )
    return registry


class TestScenarioKill9Replay:
    CHILD = textwrap.dedent(
        """
        import os, signal, sys, time

        from repro.circuits import rlc_ladder
        from repro.engine import BatchRunner, MethodRegistry, MethodSpec
        from repro.passivity.result import PassivityReport
        from repro.service import PassivityService, ScenarioSpec

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
        handle = service.submit_scenario(ScenarioSpec(
            family="corners", system=rlc_ladder(3).system,
            n_corners=4, seed=7, method="sleepy",
        ))
        print(handle.scenario_id, flush=True)
        # The root corner is live on the worker, the rest are held: the
        # exact "scenario parent with live corners" shape the pin names.
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )

    def _kill9_child(self, journal_path) -> str:
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
        scenario_id = child.stdout.strip()
        assert scenario_id.startswith("scn-")
        return scenario_id

    def test_kill9_scenario_parent_replays_and_completes(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        scenario_id = self._kill9_child(journal_path)
        # The write-ahead record survived the kill, under the parent's id —
        # one record for the whole scenario, not one per cell.
        probe = JobJournal(journal_path)
        records = list(probe.pending())
        probe.close()
        assert [r["job_id"] for r in records] == [scenario_id]
        assert "scenario" in records[0]
        # A restarted incarnation (fast sleepy) replays the spec under the
        # original id: same seeded corners, same cell ids, full completion.
        runner = BatchRunner(registry=_fast_registry(), backend="thread")
        with PassivityService(
            runner, max_workers=2, journal=journal_path
        ) as service:
            assert service.wait_scenario(scenario_id, timeout=120.0)
            status = service.scenario_status(scenario_id)
            assert status.state is ScenarioState.DONE
            assert status.n_cells == 4
            assert status.n_done == 4
            for index in range(4):
                report = service.result(
                    f"{scenario_id}-c{index}", timeout=120.0
                )
                assert report.is_passive
            assert service.stats().replayed == 1
            # A late subscriber to the replayed (terminal) scenario still
            # gets the transcript, ending in the summary.
            events = drain(service.subscribe_scenario(scenario_id))
            assert events
            assert events[-1].event == "summary"
            assert len(service._journal) == 0

    def test_kill9_replay_survives_a_second_kill9(self, tmp_path):
        # Crash, restart-and-crash (journal untouched in between), then a
        # real restart: the record must still be pending and replayable.
        journal_path = tmp_path / "journal.jsonl"
        scenario_id = self._kill9_child(journal_path)
        runner = BatchRunner(registry=_fast_registry(), backend="thread")
        with PassivityService(
            runner, max_workers=2, journal=journal_path
        ) as service:
            assert service.wait_scenario(scenario_id, timeout=120.0)
        # The terminal record landed: a third incarnation replays nothing.
        with PassivityService(
            runner, max_workers=2, journal=journal_path
        ) as service:
            assert service.stats().replayed == 0


class TestShmDescriptorFallback:
    """Journal records whose ``system`` is a dead shared-memory descriptor."""

    SHM_DOC = {
        "kind": "array_shipment",
        "segment": "repro-arena-dead-f00d",
        "specs": [{"name": "E", "shape": [6, 6], "dtype": "float64"}],
    }

    def _write_journal(self, path, *records) -> None:
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_descriptor_record_without_fallback_is_unreplayable(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        self._write_journal(
            journal_path,
            {
                "event": "submitted",
                "job_id": "job-shm-orphan",
                "system": dict(self.SHM_DOC),
                "method": "auto",
                "options": {},
                "priority": 0,
                "timeout": None,
                "submitted_at": time.time(),
            },
            {
                "event": "submitted",
                "job_id": "job-plain",
                "system": system_to_jsonable(rlc_ladder(3).system),
                "method": "auto",
                "options": {},
                "priority": 0,
                "timeout": None,
                "submitted_at": time.time(),
            },
        )
        with PassivityService(max_workers=1, journal=journal_path) as service:
            # The orphan descriptor is skipped (not a startup failure) and
            # closed out as unreplayable; its neighbour replays normally.
            assert service.result("job-plain", timeout=120.0).is_passive
            with pytest.raises(UnknownJobError):
                service.status("job-shm-orphan")
            assert service.stats().replayed == 1
            assert len(service._journal) == 0
