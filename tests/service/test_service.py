"""Integration tests of the PassivityService job queue.

The headline guarantee mirrors the ISSUE acceptance criterion: many
concurrent clients submitting duplicate systems must observe *one* QZ
factorization per distinct fingerprint — asserted with the same
``QZCounter`` the spectral-context regression suite uses.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench import QZCounter
from repro.circuits import rlc_ladder
from repro.engine import (
    BatchRunner,
    DecompositionCache,
    MethodRegistry,
    MethodSpec,
    UnknownMethodError,
)
from repro.exceptions import (
    JobCancelledError,
    JobFailedError,
    JobNotReadyError,
    ServiceError,
    UnknownJobError,
)
from repro.passivity.result import PassivityReport
from repro.service import JobState, PassivityService


def _sleepy_runner(system, tol, cache, seconds=0.4, **options):
    """Test method: sleep, then report passive (controllable job duration)."""
    time.sleep(seconds)
    return PassivityReport(is_passive=True, method="sleepy")


def _failing_runner(system, tol, cache, **options):
    """Test method that always raises inside the worker."""
    raise RuntimeError("synthetic method failure")


def _test_registry() -> MethodRegistry:
    registry = MethodRegistry()
    registry.register(
        MethodSpec(
            name="sleepy",
            runner=_sleepy_runner,
            description="sleeps then reports passive",
            uses_spectral_cache=False,
        )
    )
    registry.register(
        MethodSpec(
            name="failing",
            runner=_failing_runner,
            description="always raises",
            uses_spectral_cache=False,
        )
    )
    return registry


@pytest.fixture()
def slow_service():
    """Single-worker service with the sleepy/failing test methods."""
    runner = BatchRunner(registry=_test_registry(), backend="thread")
    service = PassivityService(runner, max_workers=1, dedup=True)
    with service:
        yield service


class TestBasics:
    def test_submit_and_result(self):
        with PassivityService(max_workers=2) as service:
            handle = service.submit(rlc_ladder(4).system)
            report = handle.result(timeout=60.0)
            assert report.is_passive
            assert report.diagnostics["engine"]["auto"] is True
            status = handle.status()
            assert status.state is JobState.DONE
            assert status.finished_at is not None

    def test_poll_style_result_raises_until_done(self, slow_service):
        handle = slow_service.submit(rlc_ladder(3).system, method="sleepy")
        try:
            # Non-blocking default: either still pending (typed error) or,
            # on a fast machine, already done.
            slow_service.result(handle.job_id)
        except JobNotReadyError:
            pass
        assert handle.result(timeout=30.0).is_passive

    def test_unknown_method_fails_at_submission(self):
        with PassivityService(max_workers=1) as service:
            with pytest.raises(UnknownMethodError):
                service.submit(rlc_ladder(3).system, method="nope")

    def test_submit_requires_descriptor_system(self):
        with PassivityService(max_workers=1) as service:
            with pytest.raises(TypeError):
                service.submit("not a system")

    def test_submit_rejects_non_numeric_timeout(self):
        # A string timeout reaching asyncio.wait would kill the worker
        # coroutine; it must be refused at submission instead.
        with PassivityService(max_workers=1) as service:
            with pytest.raises(TypeError):
                service.submit(rlc_ladder(3).system, timeout="5")
            with pytest.raises(TypeError):
                service.submit(rlc_ladder(3).system, timeout=True)
            # The service must still work afterwards.
            assert service.submit(rlc_ladder(3).system).result(
                timeout=60.0
            ).is_passive

    def test_unknown_job_id_raises_typed_error(self):
        with PassivityService(max_workers=1) as service:
            with pytest.raises(UnknownJobError):
                service.status("job-missing")
            with pytest.raises(UnknownJobError):
                service.result("job-missing")
            with pytest.raises(UnknownJobError):
                service.cancel("job-missing")
            # Backward compatible with mapping-style callers.
            assert issubclass(UnknownJobError, KeyError)
            assert issubclass(UnknownJobError, ServiceError)

    def test_closed_service_rejects_submissions(self):
        service = PassivityService(max_workers=1)
        service.start()
        service.close()
        with pytest.raises(ServiceError):
            service.submit(rlc_ladder(3).system)

    def test_failed_job_raises_job_failed(self, slow_service):
        handle = slow_service.submit(rlc_ladder(3).system, method="failing")
        assert handle.wait(timeout=30.0)
        assert handle.status().state is JobState.FAILED
        with pytest.raises(JobFailedError, match="synthetic method failure"):
            handle.result(timeout=1.0)

    def test_alias_submission_coalesces_with_canonical(self):
        # "proposed" is an alias of "shh": both resolve to one dedup key.
        with PassivityService(max_workers=1) as service:
            system = rlc_ladder(4).system
            first = service.submit(system, method="shh")
            second = service.submit(system, method="proposed")
            assert first.result(timeout=60.0).is_passive
            assert second.result(timeout=60.0).is_passive
            assert service.stats().deduplicated >= 1


class TestSchedulingControls:
    def test_priorities_order_the_queue(self, slow_service):
        blocker = slow_service.submit(
            rlc_ladder(3).system, method="sleepy", seconds=0.5
        )
        low = slow_service.submit(
            rlc_ladder(4).system, method="sleepy", priority=5, seconds=0.01
        )
        high = slow_service.submit(
            rlc_ladder(5).system, method="sleepy", priority=-5, seconds=0.01
        )
        for handle in (blocker, low, high):
            assert handle.wait(timeout=30.0)
        assert (
            high.status().started_at < low.status().started_at
        ), "higher-priority job must start first"

    def test_job_timeout_is_reported(self, slow_service):
        handle = slow_service.submit(
            rlc_ladder(3).system, method="sleepy", timeout=0.05, seconds=5.0
        )
        assert handle.wait(timeout=30.0)
        assert handle.status().state is JobState.TIMED_OUT
        with pytest.raises(JobFailedError, match="timed out"):
            handle.result(timeout=1.0)

    def test_cancel_queued_job(self, slow_service):
        blocker = slow_service.submit(
            rlc_ladder(3).system, method="sleepy", seconds=0.5
        )
        queued = slow_service.submit(rlc_ladder(6).system, method="sleepy")
        assert queued.cancel() is True
        assert queued.status().state is JobState.CANCELLED
        with pytest.raises(JobCancelledError):
            queued.result(timeout=1.0)
        assert blocker.result(timeout=30.0).is_passive
        # Terminal jobs cannot be cancelled again.
        assert queued.cancel() is False
        assert blocker.cancel() is False

    def test_cancelling_primary_promotes_follower(self, slow_service):
        blocker = slow_service.submit(
            rlc_ladder(3).system, method="sleepy", seconds=0.5
        )
        system = rlc_ladder(7).system
        primary = slow_service.submit(system, method="sleepy")
        follower = slow_service.submit(system, method="sleepy")
        assert follower.status().deduplicated
        assert primary.cancel() is True
        # The coalesced duplicate must still complete after the primary dies.
        assert follower.result(timeout=30.0).is_passive
        assert primary.status().state is JobState.CANCELLED
        assert blocker.result(timeout=30.0).is_passive

    def test_close_cancels_unfinished_jobs(self):
        runner = BatchRunner(registry=_test_registry(), backend="thread")
        service = PassivityService(runner, max_workers=1)
        service.start()
        blocker = service.submit(
            rlc_ladder(3).system, method="sleepy", seconds=1.0
        )
        queued = service.submit(rlc_ladder(4).system, method="sleepy")
        service.close()
        assert queued.status().state is JobState.CANCELLED
        assert blocker.status().state is JobState.CANCELLED


class TestDeduplication:
    def test_concurrent_duplicates_observe_one_qz(self):
        """N concurrent clients, one fingerprint -> exactly one QZ."""
        system = rlc_ladder(6).system
        handles = []
        submit_lock = threading.Lock()
        with QZCounter() as counter:
            with PassivityService(max_workers=4) as service:

                def client():
                    handle = service.submit(system)
                    with submit_lock:
                        handles.append(handle)
                    handle.result(timeout=60.0)

                threads = [threading.Thread(target=client) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                stats = service.stats()
        assert len(handles) == 8
        assert counter.total == 1, (
            f"8 duplicate submissions performed {counter.total} QZ "
            f"factorizations (qz={counter.qz}, ordqz={counter.ordqz})"
        )
        assert stats.completed == 8
        assert stats.cache["by_kind"]["pencil_spectrum"]["factorizations"] == 1

    def test_cache_level_dedup_without_coalescing(self):
        """dedup=False still shares the factorization through the cache."""
        system = rlc_ladder(6).system
        with QZCounter() as counter:
            with PassivityService(max_workers=4, dedup=False) as service:
                handles = [service.submit(system) for _ in range(6)]
                for handle in handles:
                    assert handle.result(timeout=60.0).is_passive
                stats = service.stats()
        assert stats.deduplicated == 0
        assert stats.completed == 6
        # Every job executed, but the per-key cache locks still allowed only
        # one pencil factorization.
        assert counter.total == 1, (
            f"6 uncoalesced duplicates performed {counter.total} QZ calls"
        )

    def test_acceptance_demo_four_fingerprints(self):
        """ISSUE acceptance: 8 concurrent submissions, 4 distinct
        fingerprints -> stats() shows dedup and <= 4 factorizations."""
        systems = [rlc_ladder(n).system for n in (4, 5, 6, 7)]
        with QZCounter() as counter:
            with PassivityService(max_workers=4) as service:
                handles = [service.submit(s) for s in systems for _ in range(2)]
                reports = [h.result(timeout=120.0) for h in handles]
                stats = service.stats()
        assert len(reports) == 8
        assert all(r.is_passive for r in reports)
        assert stats.submitted == 8
        # Usually all 4 duplicates coalesce; a duplicate submitted after its
        # primary already finished re-executes (cache-warm, zero extra QZ),
        # so only the factorization bound below is deterministic.
        assert stats.deduplicated >= 1
        assert counter.total <= 4, (
            f"4 distinct fingerprints performed {counter.total} QZ calls"
        )
        assert stats.cache["by_kind"]["pencil_spectrum"]["factorizations"] <= 4

    def test_shared_cache_across_service_and_direct_calls(self):
        """A caller-supplied cache warms the service (and vice versa)."""
        cache = DecompositionCache()
        system = rlc_ladder(5).system
        with PassivityService(max_workers=1, cache=cache) as service:
            service.submit(system).result(timeout=60.0)
        from repro import check_passivity

        report = check_passivity(system, cache=cache)
        assert report.diagnostics["engine"]["factorizations"] == 0


class TestStatsTelemetry:
    def test_stats_counters_and_throughput(self):
        with PassivityService(max_workers=2) as service:
            handles = [service.submit(rlc_ladder(4).system) for _ in range(3)]
            for handle in handles:
                handle.result(timeout=60.0)
            stats = service.stats()
        assert stats.workers == 2
        assert stats.submitted == 3
        assert stats.completed == 3
        assert stats.failed == 0
        assert stats.queue_depth == 0
        assert stats.uptime_seconds > 0
        assert stats.throughput_per_second > 0
        payload = stats.to_jsonable()
        assert payload["completed"] == 3
        assert "factorizations" in payload["cache"]

    def test_history_eviction_raises_unknown_job(self):
        with PassivityService(max_workers=1, max_history=2) as service:
            handles = [service.submit(rlc_ladder(4).system) for _ in range(4)]
            deadline = time.time() + 60.0
            while time.time() < deadline:
                stats = service.stats()
                if stats.completed + stats.failed == 4:
                    break
                time.sleep(0.01)
            # Only the two newest terminal jobs stay pollable; the oldest is
            # evicted and must raise the typed error, not KeyError leakage.
            with pytest.raises(UnknownJobError):
                service.status(handles[0].job_id)
            assert handles[-1].status().state is JobState.DONE


class TestIncrementalDispatch:
    """Sweep-aware dispatch: same-family jobs warm-start off the last root."""

    def test_family_sweep_certifies_incrementally(self):
        from repro.circuits import rlc_grid_corners

        family = rlc_grid_corners(4, 4, n_corners=5, scale=2e-4, seed=0)
        with PassivityService(max_workers=1, incremental=True) as service:
            reports = [
                service.submit(system, method="gare").result(timeout=60.0)
                for system in family
            ]
            stats = service.stats()
        assert all(r.is_passive for r in reports)
        assert stats.incremental_hits >= 1
        payload = stats.to_jsonable()
        assert "incremental_hits" in payload
        assert "incremental_fallbacks" in payload
        assert "update_residual_max" in payload
        assert payload["incremental_hits"] == stats.incremental_hits

    def test_incremental_off_never_engages_the_tier(self):
        from repro.circuits import rlc_grid_corners

        family = rlc_grid_corners(4, 4, n_corners=3, scale=2e-4, seed=1)
        with PassivityService(max_workers=1) as service:
            for system in family:
                service.submit(system, method="gare").result(timeout=60.0)
            stats = service.stats()
        assert stats.incremental_hits == 0
        assert stats.incremental_fallbacks == 0


class TestStatsShape:
    def test_to_jsonable_keys_are_the_dataclass_fields(self):
        # Pins the shape of HTTP /stats: one key per ServiceStats field.
        import dataclasses

        from repro.service import ServiceStats

        with PassivityService(max_workers=1) as service:
            service.submit(rlc_ladder(3).system).result(timeout=60.0)
            payload = service.stats().to_jsonable()
        fields = [field.name for field in dataclasses.fields(ServiceStats)]
        assert list(payload) == fields
        assert isinstance(payload["cache"], dict)
        assert isinstance(payload["stages"], dict)
