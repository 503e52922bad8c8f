"""Tests of the write-ahead job journal and service-level replay.

The headline pin mirrors the ISSUE acceptance criterion: a service killed
with N accepted-but-unfinished jobs must replay exactly those N on restart
under their original ids, and no job may ever acquire two terminal journal
records.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.exceptions import JobNotReadyError, JournalError, ServiceError
from repro.passivity.result import PassivityReport
from repro.service import JobState, PassivityService, system_to_jsonable
from repro.service.journal import JobJournal


def _submit_payload(system, method="auto", priority=0, timeout=None):
    """Build the wire-form payload the service journals on submission."""
    return {
        "system": system_to_jsonable(system),
        "method": method,
        "options": {},
        "priority": priority,
        "timeout": timeout,
        "submitted_at": 1000.0,
    }


class TestJobJournal:
    def test_round_trip_pending_across_instances(self, tmp_path):
        system = rlc_ladder(3).system
        with JobJournal(tmp_path / "j.jsonl") as journal:
            journal.record_submitted("job-a", _submit_payload(system))
            journal.record_submitted("job-b", _submit_payload(system))
            journal.record_started("job-a")
            assert journal.record_finished("job-a", "done") is True
        reopened = JobJournal(tmp_path / "j.jsonl")
        pending = reopened.pending()
        assert [record["job_id"] for record in pending] == ["job-b"]
        assert pending[0]["system"] == system_to_jsonable(system)
        assert reopened.n_corrupt == 0 and reopened.n_truncated == 0
        reopened.close()

    def test_directory_path_resolves_to_journal_file(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            assert journal.path == tmp_path / "journal.jsonl"
            journal.record_submitted("job-a", {"method": "auto"})
        assert (tmp_path / "journal.jsonl").exists()

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            journal.record_submitted("job-a", {"method": "auto"})
            journal.record_submitted("job-b", {"method": "auto"})
        # Simulate a crash mid-append: truncate inside the final record.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        reopened = JobJournal(path)
        assert [r["job_id"] for r in reopened.pending()] == ["job-a"]
        assert reopened.n_truncated == 1
        assert reopened.n_corrupt == 0
        # The journal must stay appendable after a torn tail.
        reopened.record_submitted("job-c", {"method": "auto"})
        reopened.close()
        assert len(JobJournal(path)) == 2

    def test_corrupt_interior_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            journal.record_submitted("job-a", {"method": "auto"})
        lines = path.read_bytes().splitlines()
        lines.insert(0, b"\x00garbage not json")
        path.write_bytes(b"\n".join(lines) + b"\n")
        reopened = JobJournal(path)
        assert [r["job_id"] for r in reopened.pending()] == ["job-a"]
        assert reopened.n_corrupt == 1
        assert reopened.n_truncated == 0
        reopened.close()

    def test_duplicate_terminal_record_is_refused(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            journal.record_submitted("job-a", {"method": "auto"})
            assert journal.record_finished("job-a", "done") is True
            assert journal.record_finished("job-a", "done") is False
            assert journal.record_finished("job-never-seen", "done") is False
        raw = (tmp_path / "j.jsonl").read_bytes()
        terminal = [
            line for line in raw.splitlines()
            if json.loads(line).get("event") == "finished"
        ]
        assert len(terminal) == 1

    def test_lag_counts_dead_lines_and_compact_removes_them(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, compact_threshold=None)
        for index in range(4):
            journal.record_submitted(f"job-{index}", {"method": "auto"})
        journal.record_started("job-0")
        assert journal.lag == 0
        journal.record_finished("job-0", "done")
        # job-0 leaves three dead lines: submitted + started + finished.
        assert journal.lag == 3
        journal.compact()
        assert journal.lag == 0
        assert len(journal) == 3
        journal.close()
        # Compaction keeps replayability: the survivors are intact records.
        assert len(JobJournal(path)) == 3

    def test_auto_compaction_triggers_at_threshold(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", compact_threshold=4)
        for index in range(4):
            journal.record_submitted(f"job-{index}", {"method": "auto"})
            journal.record_finished(f"job-{index}", "done")
        assert journal.n_compactions >= 1
        assert journal.lag < 4
        journal.close()

    def test_invalid_threshold_and_closed_appends_raise(self, tmp_path):
        with pytest.raises(JournalError):
            JobJournal(tmp_path / "j.jsonl", compact_threshold=0)
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.record_submitted("job-a", {"method": "auto"})

    def test_unusable_path_raises_at_construction(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where a parent directory must go")
        with pytest.raises(JournalError):
            JobJournal(blocker / "sub" / "j.jsonl")


class TestServiceJournal:
    def test_journal_true_requires_store(self):
        with pytest.raises(ServiceError):
            PassivityService(max_workers=1, journal=True)

    def test_submission_flows_through_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with PassivityService(max_workers=1, journal=path) as service:
            handle = service.submit(rlc_ladder(3).system)
            assert handle.result(timeout=60.0).is_passive
            journal = service._journal
            assert len(journal) == 0  # finished record closed the book
            assert journal.n_appends >= 2  # submitted + finished
        # The on-disk journal agrees after restart.
        assert len(JobJournal(path)) == 0

    def test_restart_replays_unfinished_jobs_under_original_ids(self, tmp_path):
        path = tmp_path / "j.jsonl"
        system = rlc_ladder(3).system
        # Simulate a service killed with accepted work: journal holds three
        # write-ahead records and no terminal events.
        with JobJournal(path) as journal:
            for index in range(3):
                journal.record_submitted(f"job-replay-{index}", _submit_payload(system))
        with PassivityService(max_workers=2, journal=path) as service:
            # The original ids resolve on the restarted service ...
            for index in range(3):
                report = service.result(f"job-replay-{index}", timeout=60.0)
                assert report.is_passive
            assert service.stats().replayed == 3
            # ... and every replayed job reaches exactly one terminal record.
            assert len(service._journal) == 0
        terminal = {}
        for line in path.read_bytes().splitlines():
            record = json.loads(line)
            if record.get("event") == "finished":
                terminal[record["job_id"]] = terminal.get(record["job_id"], 0) + 1
        assert all(count == 1 for count in terminal.values())

    def test_unreplayable_record_is_retired_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            journal.record_submitted(
                "job-bad", {"system": {"nonsense": True}, "method": "auto",
                            "options": {}, "priority": 0, "timeout": None}
            )
            journal.record_submitted("job-good", _submit_payload(rlc_ladder(3).system))
        with PassivityService(max_workers=1, journal=path) as service:
            assert service.result("job-good", timeout=60.0).is_passive
            assert service.stats().replayed == 1
            with pytest.raises(Exception):
                service.status("job-bad")

    def test_journal_under_store_root(self, tmp_path):
        from repro.store import DecompositionStore

        store = DecompositionStore(tmp_path / "store")
        with PassivityService(max_workers=1, store=store, journal=True) as service:
            assert service._journal.path.parent == (tmp_path / "store").resolve()
            handle = service.submit(rlc_ladder(3).system)
            assert handle.result(timeout=60.0).is_passive

    def test_replay_skips_jobs_the_store_already_finished(self, tmp_path):
        from repro.store import DecompositionStore

        system = rlc_ladder(3).system
        store_dir = tmp_path / "store"
        path = tmp_path / "j.jsonl"
        store = DecompositionStore(store_dir)
        with PassivityService(max_workers=1, store=store, journal=path) as service:
            handle = service.submit(system)
            handle.result(timeout=60.0)
            done_id = handle.job_id
        # Re-inject the submitted record as if the crash ate the terminal
        # append: the restarted service must close the book, not re-run.
        with JobJournal(path) as journal:
            journal.record_submitted(done_id, _submit_payload(system))
        store = DecompositionStore(store_dir)
        with PassivityService(max_workers=1, store=store, journal=path) as service:
            assert service.stats().replayed == 0
            assert service.status(done_id).state is JobState.DONE
            assert len(service._journal) == 0


def _slow_runner(system, tol, cache, **options):
    time.sleep(0.3)
    return PassivityReport(is_passive=True, method="slow")


def _journaled_finished(service) -> set:
    lines = service._journal.path.read_bytes().splitlines()
    return {
        record["job_id"]
        for record in map(json.loads, lines)
        if record.get("event") == "finished"
    }


class TestDurableBeforeVisible:
    """A released result is already journaled finished and persisted."""

    @pytest.fixture()
    def service(self, tmp_path, monkeypatch):
        registry = MethodRegistry()
        registry.register(
            MethodSpec(
                name="slow", runner=_slow_runner, description="sleeps 0.3 s",
                uses_spectral_cache=False,
            )
        )
        # Widen the window between a job turning terminal and its journal
        # line: a result released before the line would be seen here.
        record_finished = JobJournal.record_finished

        def delayed(journal, job_id, state):
            time.sleep(0.2)
            return record_finished(journal, job_id, state)

        monkeypatch.setattr(JobJournal, "record_finished", delayed)
        runner = BatchRunner(registry=registry, backend="thread")
        with PassivityService(
            runner, max_workers=1, store=tmp_path / "store", journal=True
        ) as service:
            yield service

    def test_result_waits_for_the_journal_and_the_record(self, service):
        system = rlc_ladder(3).system
        primary = service.submit(system, "slow")
        follower = service.submit(system, "slow")
        assert follower.status().deduplicated
        for handle in (follower, primary):
            assert handle.result(timeout=60.0).is_passive
            assert handle.job_id in _journaled_finished(service)
            records = service.store.load_job_records()
            assert handle.job_id in {r["job_id"] for r in records}

    def test_a_poll_sees_the_result_only_once_it_is_durable(self, service):
        handle = service.submit(rlc_ladder(3).system, "slow")
        deadline = time.monotonic() + 60.0
        while True:
            try:
                report = service.result(handle.job_id, timeout=0.0)
                break
            except JobNotReadyError:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        assert report.is_passive
        assert handle.job_id in _journaled_finished(service)
        records = service.store.load_job_records()
        assert handle.job_id in {r["job_id"] for r in records}
