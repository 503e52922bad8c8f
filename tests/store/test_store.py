"""Unit tests of the persistent verdict store.

Covers the blob layout (sharding, atomic publication, the ``__meta__``
document), verdict round trips, and the failure modes: truncated blobs,
unknown entry tags, concurrent writers racing on one key, and LRU eviction
under a tiny size budget.
"""

from __future__ import annotations

import json
import pickle
import threading

import numpy as np
import pytest

from repro.engine import check_passivity
from repro.engine.api import verdict_key
from repro.exceptions import SerializationError, StoreError
from repro.passivity.result import PassivityReport, report_to_jsonable
from repro.store import DecompositionStore

FP = "ab" + "0123456789abcdef" * 4  # a well-formed 66-char key


@pytest.fixture()
def store(tmp_path):
    return DecompositionStore(tmp_path / "store")


@pytest.fixture(scope="module")
def report(small_rlc_ladder):
    return check_passivity(small_rlc_ladder, method="gare")


def _blob(store, key):
    return store.root / "objects" / key[:2] / f"{key}.verdict.npz"


class TestLayout:
    def test_blobs_are_sharded_by_key_prefix(self, store, small_rlc_ladder, report):
        key = verdict_key(small_rlc_ladder, "gare")
        store.put(key, report)
        blob = _blob(store, key)
        assert blob.exists()
        # No staging leftovers: the temp file was renamed away.
        assert not list(blob.parent.glob("*.tmp"))
        assert store.contains(key)
        assert len(store) == 1
        assert store.total_bytes == blob.stat().st_size
        # The on-disk format: one JSON member holding the report document.
        with np.load(blob, allow_pickle=False) as archive:
            assert archive.files == ["__meta__"]
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        assert meta == {"tag": "value", "report": report_to_jsonable(report)}

    def test_malformed_keys_are_rejected(self, store, report):
        with pytest.raises(StoreError):
            store.put("../escape", report)
        with pytest.raises(StoreError):
            store.load("Bad/Key")
        with pytest.raises(StoreError):
            store.contains("")

    def test_put_refuses_a_non_report(self, store):
        with pytest.raises(SerializationError):
            store.put(FP, {"is_passive": True})
        assert not store.contains(FP)

    def test_size_budget_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError):
            DecompositionStore(tmp_path / "s", size_budget=0)

    def test_pickle_reopens_the_same_root(self, store, report):
        store.put(FP, report)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.size_budget == store.size_budget
        assert clone.load(FP).is_passive == report.is_passive


class TestRoundTrips:
    def test_verdict_round_trip(self, store, small_impulsive_ladder):
        original = check_passivity(small_impulsive_ladder, method="shh")
        store.put(FP, original)
        loaded = store.load(FP)
        assert isinstance(loaded, PassivityReport)
        assert report_to_jsonable(loaded) == report_to_jsonable(original)

    def test_verdict_of_a_refusal_round_trip(self, store, small_impulsive_ladder):
        original = check_passivity(small_impulsive_ladder, method="gare")
        assert not original.is_passive and original.failure_reason
        store.put(FP, original)
        loaded = store.load(FP)
        assert loaded.failure_reason == original.failure_reason
        assert loaded.step_names == original.step_names
        assert [step.passed for step in loaded.steps] == [
            step.passed for step in original.steps
        ]

    def test_unknown_entry_tag_reads_as_corruption(self, store, report):
        # A negative entry (or any tag but "value") has no reader: the blob
        # is quarantined and the lookup is a miss.
        store.put(FP, report)
        blob = _blob(store, FP)
        meta = {"tag": "error", "error_type": "NotAdmissibleError", "message": "x"}
        raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(blob, "wb") as handle:
            np.savez(handle, __meta__=raw)
        assert store.load(FP) is None
        assert store.counters()["corrupt"] == 1
        assert not blob.exists()


class TestFailureModes:
    def test_missing_blob_is_a_miss(self, store):
        assert store.load(FP) is None
        assert store.counters()["load_misses"] == 1

    def test_truncated_blob_is_quarantined(self, store, report):
        store.put(FP, report)
        blob = _blob(store, FP)
        raw = blob.read_bytes()
        blob.write_bytes(raw[: len(raw) // 3])  # truncate mid-archive
        assert store.load(FP) is None
        assert store.counters()["corrupt"] == 1
        assert not blob.exists()  # quarantined, not left to fail again
        # The key is computable again (a fresh put repairs the store).
        store.put(FP, report)
        assert store.load(FP) is not None

    def test_transient_read_error_does_not_quarantine(self, store, report, monkeypatch):
        # An OSError (fd exhaustion, a network-volume hiccup) is a miss,
        # but the blob — which may be perfectly healthy — must survive.
        store.put(FP, report)
        blob = _blob(store, FP)

        def flaky_load(*args, **kwargs):
            raise PermissionError("transient I/O failure")

        monkeypatch.setattr(np, "load", flaky_load)
        assert store.load(FP) is None
        monkeypatch.undo()
        assert blob.exists()  # not quarantined
        assert store.counters()["corrupt"] == 0
        assert store.load(FP) is not None

    def test_garbage_blob_is_quarantined(self, store):
        blob = _blob(store, FP)
        blob.parent.mkdir(parents=True, exist_ok=True)
        blob.write_bytes(b"this is not a zip archive")
        assert store.load(FP) is None
        assert not blob.exists()

    def test_corrupt_index_is_rebuilt_from_scan(self, tmp_path, report):
        root = tmp_path / "store"
        DecompositionStore(root).put(FP, report)
        (root / "index.json").write_text("{not json", encoding="utf-8")
        reopened = DecompositionStore(root)
        assert len(reopened) == 1
        assert reopened.load(FP) is not None

    def test_concurrent_writers_racing_on_one_key(self, store, report):
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    store.put(FP, report)
                    assert store.load(FP) is not None
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.load(FP).is_passive == report.is_passive

    def test_two_store_handles_race_on_one_root(self, tmp_path, report):
        # Emulates two *processes* publishing the same key: separate handles,
        # separate in-memory indexes, one directory.  Atomic renames keep
        # every observable state a complete blob.
        root = tmp_path / "store"
        left = DecompositionStore(root)
        right = DecompositionStore(root)
        left.put(FP, report)
        right.put(FP, report)
        # Each handle sees the blob even though the *other* wrote last.
        assert left.load(FP) is not None
        assert right.load(FP) is not None


class TestEviction:
    def _distinct_keys(self, count):
        return [f"{i:02x}" + "00" * 31 for i in range(count)]

    def _blob_size(self, tmp_path, report):
        probe = DecompositionStore(tmp_path / "probe")
        probe.put(FP, report)
        return probe.total_bytes

    def test_tiny_budget_evicts_lru(self, tmp_path, report):
        blob_size = self._blob_size(tmp_path, report)
        # Budget fits ~2 blobs; inserting 4 must evict the least recently
        # used ones (but never the just-written entry).
        store = DecompositionStore(tmp_path / "store", size_budget=2 * blob_size)
        keys = self._distinct_keys(4)
        for key in keys:
            store.put(key, report)
        assert store.n_evictions >= 2
        assert store.total_bytes <= 2 * blob_size
        assert store.load(keys[0]) is None  # LRU gone
        assert store.load(keys[-1]) is not None

    def test_loads_refresh_recency(self, tmp_path, report):
        blob_size = self._blob_size(tmp_path, report)
        store = DecompositionStore(tmp_path / "store", size_budget=2 * blob_size)
        first, second, third = self._distinct_keys(3)
        store.put(first, report)
        store.put(second, report)
        store.load(first)  # touch: second is now the LRU
        store.put(third, report)
        assert store.load(second) is None
        assert store.load(first) is not None

    def test_budget_never_evicts_below_one_entry(self, tmp_path, report):
        store = DecompositionStore(tmp_path / "store", size_budget=1)
        store.put(FP, report)
        # The single (oversized) entry survives: the budget bounds growth,
        # it does not make the store refuse to be useful.
        assert store.load(FP) is not None


class TestJobRecords:
    def test_round_trip_and_ordering(self, store):
        store.save_job_record({"job_id": "job-b", "finished_at": 2.0})
        store.save_job_record({"job_id": "job-a", "finished_at": 1.0})
        records = store.load_job_records()
        assert [record["job_id"] for record in records] == ["job-a", "job-b"]

    def test_malformed_id_is_refused(self, store):
        with pytest.raises(StoreError):
            store.save_job_record({"job_id": "../evil"})

    def test_corrupt_record_is_skipped_and_removed(self, store):
        store.save_job_record({"job_id": "job-ok", "finished_at": 1.0})
        bad = store.root / "jobs" / "job-bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        records = store.load_job_records()
        assert [record["job_id"] for record in records] == ["job-ok"]
        assert not bad.exists()

    def test_clear_removes_blobs_and_jobs(self, store, report):
        store.put(FP, report)
        store.save_job_record({"job_id": "job-x"})
        store.clear()
        assert len(store) == 0
        assert store.load(FP) is None
        assert store.load_job_records() == []

    def test_index_survives_reopen(self, tmp_path, report):
        root = tmp_path / "store"
        DecompositionStore(root).put(FP, report)
        index = json.loads((root / "index.json").read_text(encoding="utf-8"))
        assert f"{FP}:verdict" in index["entries"]
        reopened = DecompositionStore(root)
        assert len(reopened) == 1


class TestStoreWrittenByAnOlderVersion:
    """A store directory from before the store held verdicts only.

    Such a store also holds ``gare_state_space``, ``gare_riccati`` and
    ``update_lineage`` blobs, all listed in its ``index.json``.  Its
    verdicts must keep answering; the leftovers are never read, and a size
    budget evicts them like any other blob.
    """

    LEFTOVERS = {
        "gare_state_space": ({"tag": "value"}, {"a": np.eye(3), "d": np.eye(1)}),
        "gare_riccati": (
            {"tag": "value", "feedthrough_psd": True, "epsilon": 0.0,
             "residual": 1e-12, "failure": None, "has_x": True},
            {"x": np.eye(3)},
        ),
        "update_lineage": (
            {"tag": "value", "mechanism": "spectral", "distance": 1e-4}, {}
        ),
    }

    @staticmethod
    def _write_blob(root, key, kind, meta, arrays):
        blob = root / "objects" / key[:2] / f"{key}.{kind}.npz"
        blob.parent.mkdir(parents=True, exist_ok=True)
        raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(blob, "wb") as handle:
            np.savez(handle, __meta__=raw, **arrays)
        return blob

    def _older_store(self, root, report):
        entries = {}
        verdict = self._write_blob(
            root, FP, "verdict",
            {"report": report_to_jsonable(report), "tag": "value"}, {},
        )
        entries[f"{FP}:verdict"] = {
            "size": verdict.stat().st_size, "last_used": 1000.0,
        }
        leftovers = []
        fingerprint = "cd" + "0123456789abcdef" * 4
        for age, (kind, (meta, arrays)) in enumerate(self.LEFTOVERS.items()):
            blob = self._write_blob(root, fingerprint, kind, meta, arrays)
            entries[f"{fingerprint}:{kind}"] = {
                "size": blob.stat().st_size, "last_used": float(age),
            }
            leftovers.append(blob)
        (root / "index.json").write_text(json.dumps({"entries": entries}))
        return verdict, leftovers

    def test_verdicts_still_answer(self, tmp_path, report):
        root = tmp_path / "store"
        _, leftovers = self._older_store(root, report)
        store = DecompositionStore(root)
        assert len(store) == 4
        loaded = store.load(FP)
        assert report_to_jsonable(loaded) == report_to_jsonable(report)
        assert all(blob.exists() for blob in leftovers)  # never read or moved

    def test_leftovers_are_evicted_under_a_budget(self, tmp_path, report):
        root = tmp_path / "store"
        verdict, leftovers = self._older_store(root, report)
        # Room for two verdicts and nothing else: the new put evicts the
        # three (least recently used) leftovers and keeps both verdicts.
        budget = 2 * verdict.stat().st_size + 64
        store = DecompositionStore(root, size_budget=budget)
        other = "ef" + "0123456789abcdef" * 4
        evicted = store.put(other, report)
        assert evicted == len(leftovers)
        assert not any(blob.exists() for blob in leftovers)
        assert store.load(FP) is not None
        assert store.load(other) is not None
        index = json.loads((root / "index.json").read_text())
        assert set(index["entries"]) == {f"{FP}:verdict", f"{other}:verdict"}

    def test_leftovers_are_found_by_scan_without_an_index(self, tmp_path, report):
        root = tmp_path / "store"
        verdict, leftovers = self._older_store(root, report)
        (root / "index.json").unlink()
        store = DecompositionStore(root, size_budget=2 * verdict.stat().st_size + 64)
        assert len(store) == 4
        # Scanned recency is the blob mtime, so make the verdict the newest.
        store.load(FP)
        store.put("ef" + "0123456789abcdef" * 4, report)
        assert not any(blob.exists() for blob in leftovers)
        assert store.load(FP) is not None
