"""Concurrent-writer index tests of the decomposition store.

Pins the ISSUE satellite: two store instances (processes) sharing one
root must not drop each other's ``index.json`` entries when they flush —
the flush merges with the on-disk index, and deletions are protected by
tombstones so an eviction is not resurrected by the merge.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import check_passivity
from repro.store import DecompositionStore

FP_A = "ab" + "0123456789abcdef" * 4
FP_B = "cd" + "0123456789abcdef" * 4


def _report(system):
    return check_passivity(system, method="gare")


def _index_keys(root):
    document = json.loads((root / "index.json").read_text())
    return set(document["entries"])


class TestIndexMerge:
    def test_concurrent_writers_keep_each_others_entries(
        self, tmp_path, small_rlc_ladder
    ):
        root = tmp_path / "store"
        writer_a = DecompositionStore(root)
        writer_b = DecompositionStore(root)  # opened before A wrote anything
        writer_a.put(FP_A, _report(small_rlc_ladder))
        writer_a.flush()
        # B never saw A's entry in memory; a blind overwrite would drop it.
        writer_b.put(FP_B, _report(small_rlc_ladder))
        writer_b.flush()
        keys = _index_keys(root)
        assert any(FP_A in key for key in keys)
        assert any(FP_B in key for key in keys)
        # A fresh instance loads the merged view and serves both blobs.
        reader = DecompositionStore(root)
        assert reader.contains(FP_A)
        assert reader.contains(FP_B)
        assert reader.load(FP_A) is not None
        assert reader.load(FP_B) is not None

    def test_merge_does_not_resurrect_evicted_entries(
        self, tmp_path, small_rlc_ladder
    ):
        root = tmp_path / "store"
        seed = DecompositionStore(root)
        seed.put(FP_A, _report(small_rlc_ladder))
        seed.flush()  # disk index now lists FP_A
        # A budgeted instance evicts FP_A to make room for FP_B; its flush
        # merges with the disk index, where FP_A still looks live — the
        # tombstone must keep the dead entry dead.
        size = json.loads((root / "index.json").read_text())["entries"]
        one_blob = max(record["size"] for record in size.values())
        evictor = DecompositionStore(root, size_budget=int(one_blob * 1.5))
        evicted = evictor.put(FP_B, _report(small_rlc_ladder))
        assert evicted >= 1
        evictor.flush()
        keys = _index_keys(root)
        assert not any(FP_A in key for key in keys)
        assert any(FP_B in key for key in keys)

    def test_clear_overwrites_instead_of_merging(self, tmp_path, small_rlc_ladder):
        root = tmp_path / "store"
        writer = DecompositionStore(root)
        writer.put(FP_A, _report(small_rlc_ladder))
        writer.flush()
        writer.clear()
        assert _index_keys(root) == set()
        assert len(writer) == 0

    def test_shared_keys_take_the_most_recent_last_used(
        self, tmp_path, small_rlc_ladder
    ):
        root = tmp_path / "store"
        writer_a = DecompositionStore(root)
        writer_a.put(FP_A, _report(small_rlc_ladder))
        writer_a.flush()
        writer_b = DecompositionStore(root)
        # B touches the same key later; after both flush, the on-disk
        # recency must be B's (the newer), whichever order they flushed in.
        writer_b.put(FP_A, _report(small_rlc_ladder))
        writer_b.flush()
        writer_a.flush()
        document = json.loads((root / "index.json").read_text())
        key = next(key for key in document["entries"] if FP_A in key)
        on_disk = document["entries"][key]["last_used"]
        assert on_disk == pytest.approx(
            max(
                writer_a._index[key]["last_used"],
                writer_b._index[key]["last_used"],
            )
        )
