"""Service-level store features: restart persistence, process executor, 429.

The satellites of the store PR at the serving layer: completed-job results
survive a service restart through the store; the process-pool execution
mode answers from the shared on-disk tier with zero factorizations; the
bounded submission queue rejects overflow as
:class:`~repro.exceptions.QueueFullError`, which the HTTP front-end maps to
``429 Too Many Requests`` with a ``Retry-After`` header.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.circuits import rlc_grid, rlc_ladder
from repro.exceptions import QueueFullError, UnknownJobError
from repro.service import (
    PassivityService,
    job_record_from_jsonable,
    job_record_to_jsonable,
    serve,
    system_to_jsonable,
)
from repro.service.jobs import JobState
from repro.store import DecompositionStore


class TestRestartPersistence:
    def test_result_survives_restart(self, tmp_path):
        store_root = tmp_path / "store"
        system = rlc_ladder(4).system
        with PassivityService(max_workers=1, store=store_root) as service:
            handle = service.submit(system)
            original = handle.result(timeout=60.0)
            job_id = handle.job_id
        # A brand-new service over the same store: the id still resolves.
        with PassivityService(max_workers=1, store=store_root) as reborn:
            status = reborn.status(job_id)
            assert status.state is JobState.DONE
            restored = reborn.result(job_id)
        assert restored.is_passive == original.is_passive
        assert restored.method == original.method

    def test_restored_jobs_do_not_pollute_lifetime_counters(self, tmp_path):
        store_root = tmp_path / "store"
        with PassivityService(max_workers=1, store=store_root) as service:
            service.submit(rlc_ladder(4).system).result(timeout=60.0)
        with PassivityService(max_workers=1, store=store_root) as reborn:
            stats = reborn.stats()
            assert stats.submitted == 0
            assert stats.completed == 0

    def test_restored_history_respects_max_history(self, tmp_path):
        store_root = tmp_path / "store"
        with PassivityService(max_workers=1, store=store_root, dedup=False) as service:
            handles = [service.submit(rlc_ladder(4).system) for _ in range(3)]
            for handle in handles:
                handle.result(timeout=60.0)
        with PassivityService(
            max_workers=1, store=store_root, max_history=1
        ) as reborn:
            with pytest.raises(UnknownJobError):
                reborn.status(handles[0].job_id)
            assert reborn.status(handles[-1].job_id).state is JobState.DONE

    def test_history_eviction_prunes_store_records(self, tmp_path):
        # The jobs/ directory must track the bounded history, not grow for
        # the lifetime of the deployment.
        store_root = tmp_path / "store"
        with PassivityService(
            max_workers=1, max_history=2, store=store_root, dedup=False
        ) as service:
            handles = []
            for _ in range(5):
                # One at a time: with five in flight, a job can leave the
                # two-job history before its result() call looks it up.
                handles.append(service.submit(rlc_ladder(4).system))
                handles[-1].result(timeout=60.0)
        records = service.store.load_job_records()
        assert len(records) <= 2
        kept = {record["job_id"] for record in records}
        assert handles[-1].job_id in kept

    def test_job_record_round_trip(self, tmp_path):
        store_root = tmp_path / "store"
        with PassivityService(max_workers=1, store=store_root) as service:
            handle = service.submit(rlc_ladder(4).system)
            report = handle.result(timeout=60.0)
            status = handle.status()
        record = job_record_to_jsonable(status, report)
        revived = job_record_from_jsonable(json.loads(json.dumps(record)))
        assert revived["job_id"] == status.job_id
        assert revived["report"].is_passive == report.is_passive

    def test_decompositions_survive_too(self, tmp_path):
        # Not just the result record: a *new submission* of the same system
        # after a restart answers from the store without factorizing.
        store_root = tmp_path / "store"
        system = rlc_grid(5, 5, sparse=False).system
        with PassivityService(max_workers=1, store=store_root) as service:
            service.submit(system).result(timeout=120.0)
        with PassivityService(max_workers=1, store=store_root) as reborn:
            reborn.submit(system).result(timeout=120.0)
            cache = reborn.stats().cache
        assert cache["factorizations"] == 0
        assert cache["l2_hits"] > 0


class TestProcessExecutor:
    def test_process_mode_end_to_end(self, tmp_path):
        pytest.importorskip("multiprocessing")
        store_root = tmp_path / "store"
        system = rlc_grid(5, 5, sparse=False).system
        # Warm the store in-process first.
        with PassivityService(max_workers=1, store=store_root) as warmup:
            warmup.submit(system).result(timeout=120.0)
        try:
            with PassivityService(
                max_workers=2, executor="process", store=store_root
            ) as service:
                handle = service.submit(system)
                report = handle.result(timeout=120.0)
                stats = service.stats()
        except (OSError, PermissionError):
            pytest.skip("process pool unavailable in this environment")
        if stats.completed == 0:
            pytest.skip("process pool unavailable in this environment")
        assert report.is_passive
        assert stats.executor == "process"
        # The worker process rehydrated everything from the shared store.
        assert stats.cache["factorizations"] == 0
        assert stats.cache["l2_hits"] > 0

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            PassivityService(executor="fiber")


class TestBackpressure:
    def test_queue_overflow_raises_and_counts(self):
        with PassivityService(max_workers=1, max_queue=1) as service:
            blocker = rlc_grid(9, 9, sparse=False).system
            handles = [service.submit(blocker)]
            rejected = 0
            for rows in range(3, 11):
                try:
                    handles.append(
                        service.submit(rlc_grid(rows, 3, sparse=False).system)
                    )
                except QueueFullError:
                    rejected += 1
            assert rejected >= 1
            stats = service.stats()
            assert stats.rejected == rejected
            assert stats.queue_capacity == 1
            for handle in handles:
                handle.result(timeout=120.0)

    def test_coalesced_duplicates_bypass_the_bound(self):
        system = rlc_grid(8, 8, sparse=False).system
        with PassivityService(max_workers=1, max_queue=1) as service:
            primary = service.submit(system)
            # Identical submissions coalesce regardless of the full queue.
            followers = [service.submit(system) for _ in range(5)]
            stats = service.stats()
            assert stats.deduplicated == 5
            assert stats.rejected == 0
            for handle in [primary, *followers]:
                assert handle.result(timeout=120.0).is_passive

    def test_invalid_max_queue_rejected(self):
        with pytest.raises(ValueError):
            PassivityService(max_queue=0)

    def test_cancelled_jobs_free_their_queue_slots(self):
        # A cancelled queued job leaves a ghost tuple in the asyncio queue;
        # the bound must track live QUEUED jobs, not ghosts, or cancel+retry
        # clients wedge themselves into permanent 429s.
        with PassivityService(max_workers=1, max_queue=2, dedup=False) as service:
            blocker = rlc_grid(9, 9, sparse=False).system
            running = service.submit(blocker)
            queued = [
                service.submit(rlc_grid(rows, 3, sparse=False).system)
                for rows in (3, 4)
            ]
            with pytest.raises(QueueFullError):
                service.submit(rlc_grid(5, 3, sparse=False).system)
            for handle in queued:
                assert handle.cancel()
            assert service.stats().queue_depth == 0
            # Slots freed: new submissions are accepted again.
            retry = service.submit(rlc_grid(6, 3, sparse=False).system)
            assert retry.result(timeout=120.0).is_passive
            running.result(timeout=120.0)


class TestHTTPBackpressure:
    @pytest.fixture()
    def busy_server(self):
        """A 1-worker, 1-slot service behind HTTP, primed with a long job."""
        service = PassivityService(max_workers=1, max_queue=1)
        server = serve(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", service
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    @staticmethod
    def _post_job(base: str, system) -> "urllib.request.http.client.HTTPResponse":
        request = urllib.request.Request(
            f"{base}/jobs",
            data=json.dumps({"system": system_to_jsonable(system)}).encode(),
            method="POST",
        )
        return urllib.request.urlopen(request, timeout=30.0)

    def test_overflow_maps_to_429_with_retry_after(self, busy_server):
        base, _service = busy_server
        blocker = rlc_grid(9, 9, sparse=False).system
        with self._post_job(base, blocker) as response:
            assert response.status == 202
        saw_429 = None
        for rows in range(3, 11):
            system = rlc_grid(rows, 3, sparse=False).system
            try:
                with self._post_job(base, system) as response:
                    assert response.status == 202
            except urllib.error.HTTPError as error:
                saw_429 = error
                break
        assert saw_429 is not None, "bounded queue never overflowed over HTTP"
        assert saw_429.code == 429
        assert saw_429.headers.get("Retry-After") == "1"
        payload = json.loads(saw_429.read())
        assert payload["error"] == "QueueFullError"

    def test_stats_carry_the_backpressure_fields(self, busy_server):
        base, _service = busy_server
        with urllib.request.urlopen(f"{base}/stats", timeout=30.0) as response:
            payload = json.loads(response.read())
        assert payload["queue_capacity"] == 1
        assert payload["executor"] == "thread"
        assert "rejected" in payload
        assert "l2_hits" in payload["cache"]


class TestStoreParameterForms:
    def test_store_accepts_a_path(self, tmp_path):
        with PassivityService(max_workers=1, store=tmp_path / "store") as service:
            assert isinstance(service.store, DecompositionStore)
            service.submit(rlc_ladder(4).system).result(timeout=60.0)
        assert len(service.store.load_job_records()) == 1

    def test_store_attaches_to_a_caller_runner(self, tmp_path):
        from repro.engine import BatchRunner

        runner = BatchRunner(backend="thread")
        store = DecompositionStore(tmp_path / "store")
        with PassivityService(runner, store=store, max_workers=1) as service:
            assert service.runner.cache.store is store
            service.submit(rlc_ladder(4).system).result(timeout=60.0)
        assert len(store) > 0
