"""Cancellation races of the streaming scenario engine.

The property test drives a gated scenario to a randomly chosen point of
completion, cancels it there, and checks the invariants the stream contract
promises regardless of where the cancellation lands:

* no orphan corners — every cell job reaches a terminal state,
* no events after the terminal ``cancelled`` event,
* balanced counters — done/cancelled cells partition the scenario, and the
  cache's counter deltas stay consistent (nothing double-counted, nothing
  negative).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner
from repro.service import JobState, PassivityService, ScenarioSpec, ScenarioState

from harness import GateRegistry, assert_terminal_last, drain, numbered_ids


def _decomposition_counters(cache: dict) -> dict:
    """Aggregate cache counters less the verdict kind's share."""
    verdict = cache["by_kind"].get("verdict", {})
    return {
        key: cache[key] - verdict.get(key, 0)
        for key in ("hits", "misses", "factorizations")
    }


def _gated_service(gates: GateRegistry) -> PassivityService:
    runner = BatchRunner(registry=gates.registry, backend="thread")
    return PassivityService(runner, max_workers=1)


class TestCancellationRace:
    @pytest.mark.property
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(n_corners=st.integers(2, 6), frac=st.floats(0.0, 1.0))
    def test_cancel_anywhere_leaves_no_orphans_and_a_silent_tail(
        self, n_corners, frac
    ):
        completed_target = int(frac * (n_corners - 1))
        gates = GateRegistry()
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=n_corners,
            method="gated",
        )
        with _gated_service(gates) as service:
            baseline = service.stats().cache
            handle = service.submit_scenario(spec)
            subscription = handle.subscribe(buffer=1024)
            assert gates.wait_started(1)
            # Drive exactly `completed_target` cells to completion before
            # cancelling (event-driven: we count their corner events).
            gates.release(completed_target)
            seen = 0
            while seen < completed_target:
                event = subscription.get(timeout=10.0)
                assert event is not None, "stream stalled before cancel"
                if event.event == "corner":
                    seen += 1
            assert handle.cancel() is True
            assert handle.cancel() is False  # idempotent: already terminal
            gates.open_all()  # let any in-flight gated cell resolve
            # Invariant 1: no orphans — every cell job is (or becomes)
            # terminal, including the ones that were held or running.
            scenario_id = handle.scenario_id
            for index in range(n_corners):
                assert service.wait(f"{scenario_id}-c{index}", timeout=10.0)
            # Invariant 2: nothing follows the terminal `cancelled` event.
            events = drain(subscription)
            assert_terminal_last(events)
            assert events[-1].event == "cancelled"
            ids = numbered_ids(events)
            assert ids == sorted(ids)
            # Invariant 3: balanced counters — done + cancelled cells
            # partition the scenario (the cell running at the cancel may
            # land on either side), nothing failed, nothing queued.
            status = handle.status()
            assert status.state is ScenarioState.CANCELLED
            assert status.n_failed == 0
            assert status.n_done + status.n_cancelled == n_corners
            assert completed_target <= status.n_done <= completed_target + 1
            assert service.stats().queue_depth == 0
            # Invariant 4: the cache's counter deltas stayed balanced —
            # the gated method never touches a decomposition kind, so the
            # cancellation storm must not have moved (or negated) them.
            # (Each cell that ran looked its verdict up; those lookups are
            # the engine's, counted under by_kind["verdict"].)
            cache = _decomposition_counters(service.stats().cache)
            baseline = _decomposition_counters(baseline)
            for key in ("hits", "misses", "factorizations"):
                assert cache[key] == baseline[key] >= 0
            # The service is still healthy for unrelated traffic.
            follow_up = service.submit(
                rlc_ladder(3).system, method="gated"
            )
            assert follow_up.result(timeout=10.0).is_passive

    def test_cancel_before_the_root_reaps_held_corners(self):
        gates = GateRegistry()
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=5,
            method="gated",
        )
        with _gated_service(gates) as service:
            handle = service.submit_scenario(spec)
            subscription = handle.subscribe()
            assert gates.wait_started(1)  # root on the pool, corners held
            assert handle.cancel() is True
            gates.open_all()
            assert handle.wait(10.0)
            events = drain(subscription)
            assert events[-1].event == "cancelled"
            # The four held corners were cancelled without ever running;
            # the root resolved silently after the cancel.
            status = handle.status()
            assert status.n_cancelled == 4
            scenario_id = handle.scenario_id
            for index in range(1, 5):
                job = service.status(f"{scenario_id}-c{index}")
                assert job.state is JobState.CANCELLED
                assert job.started_at is None
            assert service.wait(f"{scenario_id}-c0", timeout=10.0)

    def test_cancelled_cells_report_the_scenario_as_cause(self):
        gates = GateRegistry()
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=3,
            method="gated",
        )
        with _gated_service(gates) as service:
            handle = service.submit_scenario(spec)
            assert gates.wait_started(1)
            assert handle.cancel()
            gates.open_all()
            assert handle.wait(10.0)
            job = service.status(f"{handle.scenario_id}-c1")
            assert job.error == "scenario cancelled"

    def test_service_close_finalizes_open_scenarios_as_cancelled(self):
        gates = GateRegistry()
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=4,
            method="gated",
        )
        service = _gated_service(gates)
        service.start()
        handle = service.submit_scenario(spec)
        subscription = handle.subscribe()
        assert gates.wait_started(1)
        gates.open_all()
        service.close()
        events = drain(subscription, timeout=5.0)
        assert events, "shutdown delivered no terminal event"
        assert events[-1].event == "cancelled"
        status = handle.status()  # frozen records stay readable when closed
        assert status.state is ScenarioState.CANCELLED

    def test_cancel_after_done_returns_false(self):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(3).system, n_corners=2
        )
        with PassivityService(max_workers=2) as service:
            handle = service.submit_scenario(spec)
            assert handle.wait(15.0)
            assert handle.cancel() is False
