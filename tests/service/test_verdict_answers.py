"""Repeat submissions answered at ``submit`` from the cached verdict.

Deduplication covers finished jobs as well as in-flight ones: a submission
whose verdict key (fingerprint, method, runner, exact options) matches a
job that already finished is ``DONE`` when ``submit`` returns — never
queued, dispatched or journaled — on both executors and across a restart.
A journaled job replayed after a crash is answered the same way when its
verdict reached the store before the crash.
Options are keyed by an exact form, so two jobs whose array options differ
past ``repr``'s elision neither coalesce nor share a verdict.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import impulsive_rlc_ladder, rlc_ladder
from repro.engine import (
    BatchRunner,
    DecompositionCache,
    MethodRegistry,
    MethodSpec,
    check_passivity,
)
from repro.engine.registry import DEFAULT_REGISTRY
from repro.passivity.result import PassivityReport
from repro.service import JobState, PassivityService, serve, system_to_jsonable
from repro.service.journal import JobJournal
from repro.store import DecompositionStore

EXECUTORS = ["thread", "process"]


def _weighted_runner(system, tol, cache, weights=None, seconds=0.4, **options):
    """Slow test method whose verdict reads one entry of an array option."""
    time.sleep(seconds)
    return PassivityReport(
        is_passive=bool(np.asarray(weights)[1000] == 0.0), method="weighted"
    )


def _registry() -> MethodRegistry:
    registry = MethodRegistry()
    for spec in DEFAULT_REGISTRY:
        registry.register(spec)
    registry.register(
        MethodSpec(
            name="weighted", runner=_weighted_runner,
            description="sleeps, then reads weights[1000]",
            uses_spectral_cache=False,
        )
    )
    return registry


def _service(executor, store=None, journal=False, dedup=True) -> PassivityService:
    runner = BatchRunner(registry=_registry(), backend="thread")
    return PassivityService(
        runner, max_workers=1, executor=executor, store=store, journal=journal,
        dedup=dedup, probe_interval=300.0,
    )


class _PoolSpy:
    """Counts the service's pool submissions."""

    def __init__(self, service: PassivityService, monkeypatch) -> None:
        self.calls = 0
        pool = service._pool
        submit = pool.submit

        def counting(*args, **kwargs):
            self.calls += 1
            return submit(*args, **kwargs)

        monkeypatch.setattr(pool, "submit", counting)


def _journal_lines(store_root: Path) -> int:
    return len((store_root / "journal.jsonl").read_text().splitlines())


def _span_names(trace) -> list:
    names = []

    def walk(spans):
        for span in spans:
            names.append(span["name"])
            walk(span.get("children", []))

    walk(trace["spans"])
    return names


@pytest.mark.parametrize("executor", EXECUTORS)
class TestAnsweredAtSubmit:
    def test_a_repeat_is_done_when_submit_returns(self, executor, tmp_path, monkeypatch):
        store_root = tmp_path / "store"
        system = impulsive_rlc_ladder(3, 1).system
        with _service(executor, store=store_root, journal=True) as service:
            first = service.submit(system)
            cold = first.result(timeout=60.0)
            assert cold.diagnostics["engine"]["verdict_cached"] is False
            spy = _PoolSpy(service, monkeypatch)
            # The first job's "finished" line was written before its result
            # was released, so the count is final here.
            lines = _journal_lines(store_root)
            repeat = service.submit(system)
            status = repeat.status()
            assert status.state is JobState.DONE
            assert status.started_at is None and not status.deduplicated
            assert spy.calls == 0
            assert _journal_lines(store_root) == lines
            names = _span_names(service.trace(repeat.job_id))
            assert names == ["cache.verdict"]
            report = repeat.result(timeout=0.0)
            assert report.is_passive == cold.is_passive
            assert report.step_names == cold.step_names
            engine = report.diagnostics["engine"]
            assert engine["verdict_cached"] is True
            assert engine["factorizations"] == 0
            assert engine["method"] == cold.diagnostics["engine"]["method"]
            stats = service.stats()
            assert stats.cache["by_kind"]["verdict"]["hits"] >= 1
            assert stats.completed == 2
        # The job record was persisted like any finished job's.
        with _service(executor, store=store_root) as restarted:
            assert restarted.result(repeat.job_id).is_passive == cold.is_passive

    def test_a_restarted_service_answers_from_the_store(self, executor, tmp_path):
        store_root = tmp_path / "store"
        system = rlc_ladder(4).system
        with _service(executor, store=store_root) as service:
            cold = service.submit(system).result(timeout=60.0)
        with _service(executor, store=store_root) as restarted:
            repeat = restarted.submit(system)
            assert repeat.status().state is JobState.DONE
            trace = restarted.trace(repeat.job_id)
            assert [span["attrs"]["outcome"] for span in trace["spans"]] == ["l2_hit"]
            report = repeat.result(timeout=0.0)
            assert report.is_passive == cold.is_passive
            assert report.diagnostics["engine"]["verdict_cached"] is True

    def test_a_repeat_with_other_options_is_dispatched(self, executor, monkeypatch):
        system = impulsive_rlc_ladder(3, 1).system
        with _service(executor) as service:
            service.submit(system, "shh").result(timeout=60.0)
            spy = _PoolSpy(service, monkeypatch)
            other = service.submit(system, "shh", check_stability=False)
            report = other.result(timeout=60.0)
            assert spy.calls == 1
            assert report.diagnostics["engine"]["verdict_cached"] is False
            assert "engine.dispatch" in _span_names(service.trace(other.job_id))

    def test_dedup_off_dispatches_a_repeat(self, executor, monkeypatch):
        system = impulsive_rlc_ladder(3, 1).system
        with _service(executor, dedup=False) as service:
            service.submit(system).result(timeout=60.0)
            spy = _PoolSpy(service, monkeypatch)
            repeat = service.submit(system)
            repeat.result(timeout=60.0)
            assert spy.calls == 1
            assert repeat.status().started_at is not None

    def test_in_flight_coalescing_is_unchanged(self, executor, monkeypatch):
        system = rlc_ladder(3).system
        weights = np.zeros(2000)
        with _service(executor) as service:
            spy = _PoolSpy(service, monkeypatch)
            primary = service.submit(system, "weighted", weights=weights)
            follower = service.submit(system, "weighted", weights=weights.copy())
            assert follower.status().deduplicated
            assert follower.result(timeout=60.0).is_passive
            assert primary.result(timeout=60.0).is_passive
            assert spy.calls == 1
            # Finished now: the next repeat is answered at submit.
            again = service.submit(system, "weighted", weights=weights)
            assert again.status().state is JobState.DONE
            assert spy.calls == 1
            assert service.stats().deduplicated == 1

    def test_array_options_past_the_repr_cut_are_distinct_jobs(
        self, executor, monkeypatch
    ):
        # repr() shows both arrays as "array([0., 0., 0., ..., 0., 0., 0.])":
        # a repr-based identity coalesced the second job onto the first and
        # handed it the wrong verdict.
        system = rlc_ladder(3).system
        passive = np.zeros(2000)
        active = passive.copy()
        active[1000] = 1.0
        with _service(executor) as service:
            spy = _PoolSpy(service, monkeypatch)
            first = service.submit(system, "weighted", weights=passive)
            second = service.submit(system, "weighted", weights=active)
            assert not second.status().deduplicated
            assert first.result(timeout=60.0).is_passive is True
            assert second.result(timeout=60.0).is_passive is False
            assert spy.calls == 2
            # ...and neither finished verdict answers the other's repeat.
            third = service.submit(system, "weighted", weights=active)
            assert third.result(timeout=60.0).is_passive is False
            assert spy.calls == 2



class TestOptionsWithoutAnExactForm:
    def test_are_never_coalesced(self, monkeypatch):
        # An opaque object has no exact form (and would not pickle, so the
        # thread executor runs it).
        system = rlc_ladder(3).system
        weights = np.zeros(2000)
        opaque = object()
        with _service("thread") as service:
            spy = _PoolSpy(service, monkeypatch)
            handles = [
                service.submit(system, "weighted", weights=weights, tag=opaque)
                for _ in range(2)
            ]
            assert not any(handle.status().deduplicated for handle in handles)
            for handle in handles:
                assert handle.result(timeout=60.0).is_passive
            assert spy.calls == 2


class TestReplayAnswersFromTheStore:
    def test_a_replayed_job_whose_verdict_is_stored_is_not_run(self, tmp_path):
        # The crash left one journaled job pending, after its worker had
        # already written the verdict to the store.
        store_root = tmp_path / "store"
        system = rlc_ladder(4).system
        stored = check_passivity(
            system, cache=DecompositionCache(store=DecompositionStore(store_root))
        )
        job_id = "job-replayed"
        with JobJournal(store_root / "journal.jsonl") as journal:
            journal.record_submitted(
                job_id,
                {
                    "system": system_to_jsonable(system),
                    "method": "auto",
                    "options": {},
                    "priority": 0,
                    "timeout": None,
                    "submitted_at": 1000.0,
                },
            )
        with _service("thread", store=store_root, journal=True) as service:
            status = service.status(job_id)
            assert status.state is JobState.DONE
            assert status.started_at is None
            assert service.stats().replayed == 1
            names = _span_names(service.trace(job_id))
            assert "engine.dispatch" not in names
            assert names == ["cache.verdict"]
            lines = (store_root / "journal.jsonl").read_bytes().splitlines()
            finished = [
                record
                for record in map(json.loads, lines)
                if record.get("event") == "finished"
            ]
            assert [(r["job_id"], r["state"]) for r in finished] == [
                (job_id, "done")
            ]
            server = serve(service, host="127.0.0.1", port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                url = f"http://{host}:{port}/jobs/{job_id}/result"
                with urllib.request.urlopen(url, timeout=30.0) as response:
                    assert response.status == 200
                    document = json.loads(response.read())
            finally:
                server.shutdown()
                server.server_close()
        assert document["is_passive"] == stored.is_passive
