"""Streaming scenario engine: expansion, event transcripts, backpressure.

The golden-transcript suite of the SSE push layer — every test runs
in-process on the harness's event-driven client (no sockets, no sleeps):
subscription queues and gate events are the only synchronization.
"""

from __future__ import annotations

import pytest

from repro.circuits import rc_line, rlc_ladder
from repro.engine import BatchRunner
from repro.exceptions import (
    DimensionError,
    QueueFullError,
    SerializationError,
    UnknownScenarioError,
)
from repro.service import (
    PassivityService,
    ScenarioSpec,
    ScenarioState,
    format_sse_event,
    scenario_from_jsonable,
    scenario_to_jsonable,
)

from harness import (
    FakeClock,
    GateRegistry,
    assert_gapless_monotonic,
    assert_resume_contract,
    assert_terminal_last,
    drain,
    numbered_ids,
)


class TestScenarioSpec:
    def test_corners_expansion_chains_to_nominal_root(self):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(4).system, n_corners=5
        )
        cells = spec.expand()
        assert len(cells) == 5
        assert cells[0].label == "nominal"
        assert cells[0].ancestor is None and not cells[0].defer
        for cell in cells[1:]:
            assert cell.ancestor == 0 and cell.defer

    def test_frequency_sweep_bands_cover_the_range(self):
        spec = ScenarioSpec(
            family="frequency_sweep",
            system=rc_line(5).system,
            n_bands=4,
            omega_min=1e-2,
            omega_max=1e2,
        )
        cells = spec.expand()
        assert len(cells) == 4
        assert all(cell.method == "sampling" for cell in cells)
        # Only the first band probes omega=0; bands tile [min, max].
        assert cells[0].options["include_zero"] is True
        assert all(c.options["include_zero"] is False for c in cells[1:])
        assert cells[0].options["omega_min"] == pytest.approx(1e-2)
        assert cells[-1].options["omega_max"] == pytest.approx(1e2)

    def test_portfolio_promotes_the_medoid_root(self):
        base = rlc_ladder(4).system
        from repro.circuits import perturb_system

        members = [base] + [
            perturb_system(base, 1e-4, seed=i) for i in range(1, 4)
        ]
        spec = ScenarioSpec(family="portfolio", systems=members)
        cells = spec.expand()
        assert len(cells) == 4
        # The medoid leads; every other member chains to it.
        assert cells[0].ancestor is None
        assert all(c.ancestor == 0 and c.defer for c in cells[1:])

    def test_wire_roundtrip(self):
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=4,
            scale=3e-4,
            seed=7,
            method="gare",
            priority=2,
        )
        revived = scenario_from_jsonable(scenario_to_jsonable(spec))
        assert revived.family == spec.family
        assert revived.n_corners == 4
        assert revived.seed == 7
        assert revived.method == "gare"
        assert revived.priority == 2
        first, second = spec.expand(), revived.expand()
        assert [c.label for c in first] == [c.label for c in second]

    def test_malformed_wire_document_raises(self):
        with pytest.raises(SerializationError):
            scenario_from_jsonable({"kind": "nonsense"})
        with pytest.raises(SerializationError):
            scenario_from_jsonable({"kind": "scenario", "family": "corners"})

    def test_bad_parameters_raise(self):
        with pytest.raises(DimensionError):
            ScenarioSpec(
                family="corners", system=rlc_ladder(3).system, n_corners=0
            ).validate()
        with pytest.raises(DimensionError):
            ScenarioSpec(family="portfolio", systems=[]).validate()
        for timeout in (-1.0, 0.0, float("nan")):
            with pytest.raises(DimensionError):
                ScenarioSpec(
                    family="corners",
                    system=rlc_ladder(3).system,
                    n_corners=3,
                    timeout=timeout,
                ).validate()


class TestScenarioStreaming:
    def test_corner_sweep_streams_every_verdict(self):
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(4).system,
            n_corners=6,
            method="gare",
        )
        with PassivityService(max_workers=2, incremental=True) as service:
            handle = service.submit_scenario(spec)
            events = drain(handle.subscribe())
            assert handle.wait(10.0)
            assert_gapless_monotonic(events)
            assert_terminal_last(events)
            corners = [e for e in events if e.event == "corner"]
            assert len(corners) == 6
            assert all(e.data["is_passive"] for e in corners)
            assert {e.data["index"] for e in corners} == set(range(6))
            # Chained corners certify through the incremental tier.
            warmed = [e for e in corners if e.data.get("incremental")]
            assert warmed, "no corner warm-started from the family root"
            summary = events[-1]
            assert summary.data["n_done"] == 6
            assert summary.data["n_passive"] == 6
            status = handle.status()
            assert status.state is ScenarioState.DONE
            stats = service.stats()
            assert stats.scenarios == 1
            assert stats.streamed_events == len(numbered_ids(events))
            assert stats.incremental_hits > 0

    def test_progress_events_carry_elapsed_and_eta_from_the_clock(self):
        clock = FakeClock(start=100.0)
        gates = GateRegistry()
        runner = BatchRunner(registry=gates.registry, backend="thread")
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=3,
            method="gated",
        )
        with PassivityService(runner, max_workers=1, clock=clock) as service:
            handle = service.submit_scenario(spec)
            subscription = handle.subscribe()
            assert gates.wait_started(1)
            clock.advance(10.0)
            gates.open_all()
            events = drain(subscription)
            assert handle.wait(10.0)
            progress = [e for e in events if e.event == "progress"]
            # The submission tick reports zero elapsed at fake time 100.
            assert progress[0].data["done"] == 0
            assert progress[0].data["elapsed_seconds"] == 0.0
            after_first = next(p for p in progress if p.data["done"] == 1)
            assert after_first.data["elapsed_seconds"] == pytest.approx(10.0)
            # ETA extrapolates the per-cell pace: 10 s/cell, 2 cells left.
            assert after_first.data["eta_seconds"] == pytest.approx(20.0)
            assert all(e.at >= 100.0 for e in events)

    def test_late_subscriber_replays_the_full_transcript_and_closes(self):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(3).system, n_corners=4
        )
        with PassivityService(max_workers=2) as service:
            handle = service.submit_scenario(spec)
            live = drain(handle.subscribe())
            assert handle.wait(10.0)
            replayed = drain(handle.subscribe())
            assert numbered_ids(replayed) == numbered_ids(live)
            assert_terminal_last(replayed)

    def test_resume_replays_no_gaps_no_duplicates(self):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(3).system, n_corners=5
        )
        with PassivityService(max_workers=2) as service:
            handle = service.submit_scenario(spec)
            first = drain(handle.subscribe())
            assert handle.wait(10.0)
            for since in (1, 3, numbered_ids(first)[-1] - 1):
                resumed = drain(handle.subscribe(last_event_id=since))
                assert_resume_contract(first, resumed, since)

    def test_resume_past_the_ring_window_gets_a_snapshot(self):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(3).system, n_corners=5
        )
        with PassivityService(
            max_workers=2, scenario_event_history=3
        ) as service:
            handle = service.submit_scenario(spec)
            full = drain(handle.subscribe())
            assert handle.wait(10.0)
            # The live stream saw everything; the ring kept only 3 events,
            # so resuming from id 1 cannot replay without a gap.
            resumed = drain(handle.subscribe(last_event_id=1))
            assert len(resumed) == 1
            snapshot = resumed[0]
            assert snapshot.event == "snapshot"
            assert snapshot.event_id is None
            assert snapshot.data["through_id"] == numbered_ids(full)[-1]
            assert snapshot.data["scenario"]["state"] == "done"

    def test_slow_consumer_drops_backlog_and_receives_snapshot(self):
        gates = GateRegistry()
        runner = BatchRunner(registry=gates.registry, backend="thread")
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=8,
            method="gated",
        )
        with PassivityService(runner, max_workers=1) as service:
            handle = service.submit_scenario(spec)
            # buffer=2: the submission progress tick is already enqueued;
            # the root's corner + progress pair must overflow it.
            subscription = handle.subscribe(buffer=2)
            assert gates.wait_started(1)  # the root is on the pool
            gates.release(1)  # root completes: corner fills, progress drops
            assert gates.wait_started(1)  # first corner dispatched; stream idle
            snapshot = subscription.get(timeout=10.0)
            assert snapshot is not None
            assert snapshot.event == "snapshot"
            assert snapshot.event_id is None
            assert snapshot.data["dropped"] == 2
            # The snapshot's coverage point is the id of the dropped tail.
            assert snapshot.data["through_id"] >= 3
            gates.open_all()
            assert handle.wait(15.0)
            events = drain(subscription)
            assert subscription.dropped >= 2
            # The terminal event always lands (forced past the buffer).
            assert events[-1].event in ("summary", "cancelled")
            assert events[-1].data["n_cells"] == 8
            assert service.stats().dropped_events >= subscription.dropped

    def test_subscriber_limit_maps_to_queue_full(self):
        gates = GateRegistry()
        runner = BatchRunner(registry=gates.registry, backend="thread")
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=2,
            method="gated",
        )
        with PassivityService(
            runner, max_workers=1, max_subscribers=2
        ) as service:
            handle = service.submit_scenario(spec)
            subs = [handle.subscribe(), handle.subscribe()]
            with pytest.raises(QueueFullError):
                handle.subscribe()
            gates.open_all()
            assert handle.wait(10.0)
            for subscription in subs:
                assert_terminal_last(drain(subscription))

    def test_unknown_scenario_raises_typed_error(self):
        with PassivityService(max_workers=1) as service:
            with pytest.raises(UnknownScenarioError):
                service.scenario_status("scn-missing")
            with pytest.raises(UnknownScenarioError):
                service.subscribe_scenario("scn-missing")
            with pytest.raises(UnknownScenarioError):
                service.cancel_scenario("scn-missing")

    def test_scenario_rejected_atomically_by_queue_bound(self):
        gates = GateRegistry()
        runner = BatchRunner(registry=gates.registry, backend="thread")
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=6,
            method="gated",
        )
        with PassivityService(runner, max_workers=1, max_queue=4) as service:
            with pytest.raises(QueueFullError):
                service.submit_scenario(spec)
            # Nothing leaked: no scenario, no cells, and a fitting
            # scenario is still accepted afterwards.
            stats = service.stats()
            assert stats.scenarios == 0
            assert stats.submitted == 0
            assert stats.rejected == 1
            small = ScenarioSpec(
                family="corners",
                system=rlc_ladder(3).system,
                n_corners=3,
                method="gated",
            )
            handle = service.submit_scenario(small)
            gates.open_all()
            assert handle.wait(10.0)

    def test_sse_frame_formatting_omits_ids_on_transients(self):
        from repro.service.scenario import ScenarioEvent

        framed = format_sse_event(
            ScenarioEvent(event_id=7, event="corner", data={"a": 1})
        )
        assert framed.startswith(b"id: 7\nevent: corner\ndata: ")
        transient = format_sse_event(
            ScenarioEvent(event_id=None, event="snapshot", data={})
        )
        assert not transient.startswith(b"id:")


class TestQueueDepthSnapshot:
    """Satellite regression: /stats queue_depth is recomputed, not cached."""

    def test_queue_depth_counts_held_corners(self):
        gates = GateRegistry()
        runner = BatchRunner(registry=gates.registry, backend="thread")
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=5,
            method="gated",
        )
        with PassivityService(runner, max_workers=1) as service:
            handle = service.submit_scenario(spec)
            assert gates.wait_started(1)  # the root is on the pool
            # The running tally sees no queued work (the 4 corners are
            # held, occupying no asyncio-queue slot), but the snapshot
            # reports the truth: 4 cells are waiting.
            assert service._n_queued == 0
            assert service.stats().queue_depth == 4
            gates.open_all()
            assert handle.wait(10.0)
            assert service.stats().queue_depth == 0

    def test_queue_depth_survives_a_corrupted_tally(self):
        """The snapshot is derived from job states, not the running count."""
        with PassivityService(max_workers=1) as service:
            handle = service.submit(rlc_ladder(3).system)
            assert handle.result(timeout=30.0).is_passive
            # Simulate tally drift (the historical stale-depth bug): the
            # snapshot must still derive 0 from the job table.
            service._n_queued = 17
            assert service.stats().queue_depth == 0
            service._n_queued = 0
