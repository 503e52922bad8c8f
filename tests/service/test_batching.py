"""Micro-batch dispatch in the service layer."""

import asyncio

import pytest

from repro.circuits import rlc_ladder
from repro.service import PassivityService
from repro.service.jobs import Job, JobState


class TestServiceMicroBatching:
    def test_process_service_batches_small_job_floods(self):
        systems = [rlc_ladder(2 + (k % 3)).system for k in range(8)]
        with PassivityService(
            max_workers=1,
            executor="process",
            batch_small_systems=True,
            dedup=False,
        ) as service:
            handles = [service.submit(system, method="gare") for system in systems]
            reports = [handle.result(timeout=120.0) for handle in handles]
            stats = service.stats()
        assert all(report.is_passive for report in reports)
        # One worker, eight near-simultaneous submissions: at least one
        # dispatch must have carried several jobs.
        assert stats.batches >= 1
        assert stats.batched_jobs >= 2
        assert stats.batch_occupancy > 1.0

    def test_policy_off_never_batches(self):
        systems = [rlc_ladder(2).system for _ in range(4)]
        with PassivityService(
            max_workers=1,
            executor="process",
            batch_small_systems=False,
            dedup=False,
        ) as service:
            handles = [service.submit(system, method="gare") for system in systems]
            for handle in handles:
                handle.result(timeout=120.0)
            stats = service.stats()
        assert stats.batches == 0
        assert stats.batched_jobs == 0
        assert stats.batch_occupancy == 0.0

    def test_thread_executor_reports_no_transport_or_batches(self):
        with PassivityService(max_workers=1, executor="thread") as service:
            service.submit(rlc_ladder(3).system, method="gare").result(timeout=120.0)
            stats = service.stats()
        assert stats.batches == 0
        assert stats.shm_bytes == 0

    def test_forced_pickle_transport(self):
        with PassivityService(max_workers=1, executor="process") as service:
            report = service.submit(rlc_ladder(3).system, method="gare").result(
                timeout=120.0
            )
            stats = service.stats()
        assert report.is_passive
        assert stats.shm_bytes == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            PassivityService(batch_small_systems="sometimes")
        with pytest.raises(ValueError):
            PassivityService(max_batch_size=0)

    def test_stats_jsonable_carries_batch_fields(self):
        with PassivityService(max_workers=1) as service:
            payload = service.stats().to_jsonable()
        for key in ("batches", "batched_jobs", "batch_occupancy", "shm_bytes"):
            assert key in payload


def _stub_service(max_batch_size=32):
    """A bare service carrying just the state _drain_batch touches."""
    service = PassivityService.__new__(PassivityService)
    service._executor_kind = "process"
    service._batch_policy = True
    service._small_system_order = 100
    service._max_batch_size = max_batch_size
    service._queue = asyncio.PriorityQueue()
    service._jobs = {}
    service._n_queued = 0
    return service


def _make_job(seq, system, priority=0, state=JobState.QUEUED):
    return Job(
        job_id=f"job-{seq}",
        system=system,
        method="gare",
        options={},
        priority=priority,
        timeout=None,
        fingerprint=f"fp-{seq}",
        key=(f"fp-{seq}", "gare", ""),
        seq=seq,
        state=state,
    )


class TestDrainBatchOrdering:
    def _enqueue(self, service, job):
        service._jobs[job.job_id] = job
        service._n_queued += 1
        service._queue.put_nowait((job.priority, job.seq, job.job_id))

    def test_drain_stops_at_higher_priority_non_batchable_job(self):
        # Queue order: a large (non-batchable) priority-0 job ahead of a
        # small priority-5 job.  Draining must NOT pull the small job past
        # the large one — that would be priority inversion.
        service = _stub_service()
        small = rlc_ladder(2).system
        large = rlc_ladder(40).system  # order 121 > small_system_order
        primary = _make_job(1, small, state=JobState.RUNNING)
        blocker = _make_job(2, large, priority=0)
        laggard = _make_job(3, small, priority=5)
        self._enqueue(service, blocker)
        self._enqueue(service, laggard)

        extras = service._drain_batch(primary)

        assert extras == []
        assert service._n_queued == 2
        # The blocker kept its place at the head of the queue.
        assert service._queue.get_nowait() == (0, 2, blocker.job_id)
        assert service._queue.get_nowait() == (5, 3, laggard.job_id)

    def test_drain_joins_eligible_jobs_and_consumes_ghosts(self):
        service = _stub_service()
        small = rlc_ladder(2).system
        primary = _make_job(1, small, state=JobState.RUNNING)
        joiner = _make_job(3, small)
        self._enqueue(service, joiner)
        # A ghost tuple (job record already evicted) ahead of the joiner.
        service._queue.put_nowait((0, 2, "cancelled-ghost"))

        extras = service._drain_batch(primary)

        assert extras == [joiner]
        assert joiner.state is JobState.RUNNING
        assert service._n_queued == 0
        assert service._queue.empty()
