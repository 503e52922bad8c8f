"""Unit tests of the persistent decomposition store and its codecs.

Covers the blob layout (sharding, atomic publication), the per-kind
round trips (verdict, admissible reduction including negative entries,
Riccati certificate), the kinds that are not persisted, and the failure modes:
truncated blobs, concurrent writers racing on one key, and LRU eviction
under a tiny size budget.
"""

from __future__ import annotations

import json
import pickle
import threading

import numpy as np
import pytest

from repro.circuits import rlc_ladder
from repro.engine import DecompositionCache, check_passivity, fingerprint_system
from repro.engine.cache import (
    CHAIN_DATA,
    GARE_RICCATI,
    GARE_STATE_SPACE,
    PENCIL_SPECTRUM,
    SYSTEM_PROFILE,
    VERDICT,
    WEIERSTRASS_FORM,
)
from repro.exceptions import NotAdmissibleError, SerializationError, StoreError
from repro.passivity.result import PassivityReport, report_to_jsonable
from repro.store import PERSISTED_KINDS, DecompositionStore, encode_entry

FP = "ab" + "0123456789abcdef" * 4  # a well-formed 66-char fingerprint


@pytest.fixture()
def store(tmp_path):
    return DecompositionStore(tmp_path / "store")


def certificate_entry(system):
    return ("value", DecompositionCache().gare_certificate(system))


class TestLayout:
    def test_blobs_are_sharded_by_fingerprint_prefix(self, store, small_rlc_ladder):
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        blob = (
            store.root
            / "objects"
            / fingerprint[:2]
            / f"{fingerprint}.{GARE_RICCATI}.npz"
        )
        assert blob.exists()
        # No staging leftovers: the temp file was renamed away.
        assert not list(blob.parent.glob("*.tmp"))
        assert store.contains(fingerprint, GARE_RICCATI)
        assert len(store) == 1
        assert store.total_bytes == blob.stat().st_size

    def test_malformed_keys_are_rejected(self, store):
        with pytest.raises(StoreError):
            store.put("../escape", GARE_RICCATI, ("value", None))
        with pytest.raises(StoreError):
            store.load(FP, "Bad/Kind")
        with pytest.raises(StoreError):
            store.put(FP, "no_codec_kind", ("value", None))

    def test_accepts_matches_the_codec_table(self, store):
        for kind in PERSISTED_KINDS:
            assert store.accepts(kind)
        assert not store.accepts(WEIERSTRASS_FORM)
        assert not store.accepts("made_up_kind")

    def test_size_budget_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError):
            DecompositionStore(tmp_path / "s", size_budget=0)

    def test_pickle_reopens_the_same_root(self, store, small_rlc_ladder):
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.size_budget == store.size_budget
        tag, certificate = clone.load(fingerprint, GARE_RICCATI)
        assert tag == "value" and certificate.x is not None


class TestRoundTrips:
    def test_verdict_round_trip(self, store, small_impulsive_ladder):
        original = check_passivity(small_impulsive_ladder, method="shh")
        store.put(FP, VERDICT, ("value", original))
        tag, loaded = store.load(FP, VERDICT)
        assert tag == "value"
        assert isinstance(loaded, PassivityReport)
        assert report_to_jsonable(loaded) == report_to_jsonable(original)

    def test_verdict_of_a_refusal_round_trip(self, store, small_impulsive_ladder):
        original = check_passivity(small_impulsive_ladder, method="gare")
        assert not original.is_passive and original.failure_reason
        store.put(FP, VERDICT, ("value", original))
        _, loaded = store.load(FP, VERDICT)
        assert loaded.failure_reason == original.failure_reason
        assert loaded.step_names == original.step_names
        assert [step.passed for step in loaded.steps] == [
            step.passed for step in original.steps
        ]

    @pytest.mark.parametrize("kind", [PENCIL_SPECTRUM, CHAIN_DATA, SYSTEM_PROFILE])
    def test_pruned_kinds_have_no_codec(self, store, kind):
        # Recomputing these beats reading them back: they live in L1 only.
        assert not store.accepts(kind)
        with pytest.raises(StoreError):
            store.put(FP, kind, ("value", None))

    def test_gare_state_space_round_trip(self, store, small_rlc_ladder):
        cache = DecompositionCache()
        original = cache.gare_state_space(small_rlc_ladder)
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_STATE_SPACE, ("value", original))
        tag, loaded = store.load(fingerprint, GARE_STATE_SPACE)
        assert tag == "value"
        np.testing.assert_array_equal(loaded.a, original.a)
        np.testing.assert_array_equal(loaded.d, original.d)

    def test_negative_entry_round_trip(self, store):
        error = NotAdmissibleError("2 impulsive mode(s) present")
        store.put(FP, GARE_STATE_SPACE, ("error", error))
        tag, revived = store.load(FP, GARE_STATE_SPACE)
        assert tag == "error"
        assert isinstance(revived, NotAdmissibleError)
        assert "impulsive" in str(revived)

    def test_non_allowlisted_error_is_refused(self, store):
        with pytest.raises(SerializationError):
            store.put(FP, GARE_STATE_SPACE, ("error", RuntimeError("boom")))

    def test_gare_certificate_round_trip(self, store, small_rlc_ladder):
        cache = DecompositionCache()
        original = cache.gare_certificate(small_rlc_ladder)
        assert original.x is not None  # the ladder is passive: solve succeeded
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_RICCATI, ("value", original))
        tag, loaded = store.load(fingerprint, GARE_RICCATI)
        assert tag == "value"
        assert loaded.feedthrough_psd == original.feedthrough_psd
        assert loaded.epsilon == original.epsilon
        assert loaded.residual == original.residual
        assert loaded.failure is None
        np.testing.assert_array_equal(loaded.x, original.x)

    def test_gare_certificate_failure_forms_round_trip(self, store):
        from repro.passivity.gare_test import GareCertificate

        indefinite = GareCertificate(feedthrough_psd=False)
        store.put(FP, GARE_RICCATI, ("value", indefinite))
        _, loaded = store.load(FP, GARE_RICCATI)
        assert not loaded.feedthrough_psd and loaded.x is None

        unsolvable = GareCertificate(
            feedthrough_psd=True, epsilon=1e-9, failure="no stabilizing solution"
        )
        store.put(FP, GARE_RICCATI, ("value", unsolvable))
        _, loaded = store.load(FP, GARE_RICCATI)
        assert loaded.failure == "no stabilizing solution"
        assert loaded.x is None and loaded.residual == float("inf")

    def test_encode_entry_rejects_unknown_tag(self):
        with pytest.raises(StoreError):
            encode_entry(GARE_RICCATI, ("weird", None))


class TestFailureModes:
    def test_missing_blob_is_a_miss(self, store):
        assert store.load(FP, GARE_RICCATI) is None
        assert store.counters()["load_misses"] == 1

    def test_truncated_blob_is_quarantined(self, store, small_rlc_ladder):
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        blob = (
            store.root
            / "objects"
            / fingerprint[:2]
            / f"{fingerprint}.{GARE_RICCATI}.npz"
        )
        raw = blob.read_bytes()
        blob.write_bytes(raw[: len(raw) // 3])  # truncate mid-archive
        assert store.load(fingerprint, GARE_RICCATI) is None
        assert store.counters()["corrupt"] == 1
        assert not blob.exists()  # quarantined, not left to fail again
        # The key is computable again (a fresh put repairs the store).
        store.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        assert store.load(fingerprint, GARE_RICCATI) is not None

    def test_transient_read_error_does_not_quarantine(
        self, store, small_rlc_ladder, monkeypatch
    ):
        # An OSError (fd exhaustion, a network-volume hiccup) is a miss,
        # but the blob — which may be perfectly healthy — must survive.
        fingerprint = fingerprint_system(small_rlc_ladder)
        store.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        blob = (
            store.root
            / "objects"
            / fingerprint[:2]
            / f"{fingerprint}.{GARE_RICCATI}.npz"
        )

        def flaky_load(*args, **kwargs):
            raise PermissionError("transient I/O failure")

        monkeypatch.setattr(np, "load", flaky_load)
        assert store.load(fingerprint, GARE_RICCATI) is None
        monkeypatch.undo()
        assert blob.exists()  # not quarantined
        assert store.counters()["corrupt"] == 0
        assert store.load(fingerprint, GARE_RICCATI) is not None

    def test_garbage_blob_is_quarantined(self, store):
        shard = store.root / "objects" / FP[:2]
        shard.mkdir(parents=True, exist_ok=True)
        blob = shard / f"{FP}.{GARE_RICCATI}.npz"
        blob.write_bytes(b"this is not a zip archive")
        assert store.load(FP, GARE_RICCATI) is None
        assert not blob.exists()

    def test_corrupt_index_is_rebuilt_from_scan(self, tmp_path, small_rlc_ladder):
        root = tmp_path / "store"
        first = DecompositionStore(root)
        fingerprint = fingerprint_system(small_rlc_ladder)
        first.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        (root / "index.json").write_text("{not json", encoding="utf-8")
        reopened = DecompositionStore(root)
        assert len(reopened) == 1
        assert reopened.load(fingerprint, GARE_RICCATI) is not None

    def test_concurrent_writers_racing_on_one_key(self, store, small_rlc_ladder):
        fingerprint = fingerprint_system(small_rlc_ladder)
        entry = certificate_entry(small_rlc_ladder)
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    store.put(fingerprint, GARE_RICCATI, entry)
                    assert store.load(fingerprint, GARE_RICCATI) is not None
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        tag, certificate = store.load(fingerprint, GARE_RICCATI)
        assert tag == "value" and certificate.x is not None

    def test_two_store_handles_race_on_one_root(self, tmp_path, small_rlc_ladder):
        # Emulates two *processes* publishing the same key: separate handles,
        # separate in-memory indexes, one directory.  Atomic renames keep
        # every observable state a complete blob.
        root = tmp_path / "store"
        left = DecompositionStore(root)
        right = DecompositionStore(root)
        fingerprint = fingerprint_system(small_rlc_ladder)
        entry = certificate_entry(small_rlc_ladder)
        left.put(fingerprint, GARE_RICCATI, entry)
        right.put(fingerprint, GARE_RICCATI, entry)
        # Each handle sees the blob even though the *other* wrote last.
        assert left.load(fingerprint, GARE_RICCATI) is not None
        assert right.load(fingerprint, GARE_RICCATI) is not None


class TestEviction:
    def _distinct_fingerprints(self, count):
        return [f"{i:02x}" + "00" * 31 for i in range(count)]

    def test_tiny_budget_evicts_lru(self, tmp_path, small_rlc_ladder):
        entry = certificate_entry(small_rlc_ladder)
        probe = DecompositionStore(tmp_path / "probe")
        probe.put(FP, GARE_RICCATI, entry)
        blob_size = probe.total_bytes
        # Budget fits ~2 blobs; inserting 4 must evict the least recently
        # used ones (but never the just-written entry).
        store = DecompositionStore(tmp_path / "store", size_budget=2 * blob_size)
        fingerprints = self._distinct_fingerprints(4)
        for fingerprint in fingerprints:
            store.put(fingerprint, GARE_RICCATI, entry)
        assert store.n_evictions >= 2
        assert store.total_bytes <= 2 * blob_size
        assert store.load(fingerprints[0], GARE_RICCATI) is None  # LRU gone
        assert store.load(fingerprints[-1], GARE_RICCATI) is not None

    def test_loads_refresh_recency(self, tmp_path, small_rlc_ladder):
        entry = certificate_entry(small_rlc_ladder)
        probe = DecompositionStore(tmp_path / "probe")
        probe.put(FP, GARE_RICCATI, entry)
        blob_size = probe.total_bytes
        store = DecompositionStore(tmp_path / "store", size_budget=2 * blob_size)
        first, second, third = self._distinct_fingerprints(3)
        store.put(first, GARE_RICCATI, entry)
        store.put(second, GARE_RICCATI, entry)
        store.load(first, GARE_RICCATI)  # touch: second is now the LRU
        store.put(third, GARE_RICCATI, entry)
        assert store.load(second, GARE_RICCATI) is None
        assert store.load(first, GARE_RICCATI) is not None

    def test_budget_never_evicts_below_one_entry(self, tmp_path, small_rlc_ladder):
        store = DecompositionStore(tmp_path / "store", size_budget=1)
        store.put(FP, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        # The single (oversized) entry survives: the budget bounds growth,
        # it does not make the store refuse to be useful.
        assert store.load(FP, GARE_RICCATI) is not None


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

    def test_clear_removes_blobs_and_jobs(self, store, small_rlc_ladder):
        store.put(FP, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        store.save_job_record({"job_id": "job-x"})
        store.clear()
        assert len(store) == 0
        assert store.load(FP, GARE_RICCATI) is None
        assert store.load_job_records() == []

    def test_index_survives_reopen(self, tmp_path, small_rlc_ladder):
        root = tmp_path / "store"
        first = DecompositionStore(root)
        fingerprint = fingerprint_system(small_rlc_ladder)
        first.put(fingerprint, GARE_RICCATI, certificate_entry(small_rlc_ladder))
        index = json.loads((root / "index.json").read_text(encoding="utf-8"))
        assert f"{fingerprint}:{GARE_RICCATI}" in index["entries"]
        reopened = DecompositionStore(root)
        assert len(reopened) == 1
