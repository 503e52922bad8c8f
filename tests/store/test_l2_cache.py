"""L2 integration: DecompositionCache backed by the persistent verdict store.

The headline regression here is the cold-start guarantee, pinned with the
shared :class:`~repro.bench.QZCounter`: a *fresh* cache attached to a warm
store answers ``check_passivity(system, "auto")`` with ``l2_hits > 0`` and
**zero** QZ factorizations, from the stored verdict.  Alongside it: the l2
telemetry plumbing through ``CacheStats`` (merge/minus/snapshot), refusal
sharing, corruption fall-through, intermediates staying in L1, and the
``seed()`` unknown-kind fix.
"""

from __future__ import annotations

import pytest

from repro.bench import QZCounter
from repro.circuits import paper_benchmark_model, rlc_grid
from repro.engine import (
    BatchRunner,
    CacheStats,
    DecompositionCache,
    check_passivity,
)
from repro.engine.api import verdict_key
from repro.engine.cache import PENCIL_SPECTRUM, VERDICT
from repro.exceptions import SerializationError
from repro.linalg.pencil import compute_spectral_context
from repro.store import DecompositionStore


@pytest.fixture()
def store(tmp_path):
    return DecompositionStore(tmp_path / "store")


class TestL2Telemetry:
    def test_miss_then_hit_counters(self, store, small_rlc_ladder):
        cold = DecompositionCache(store=store)
        check_passivity(small_rlc_ladder, method="gare", cache=cold)
        # Only the verdict consults L2; every intermediate is L1-only.
        assert cold.stats.l2_misses == 1
        assert cold.stats.l2_hits == 0
        assert cold.stats.factorizations > 0
        assert cold.stats.by_kind[VERDICT]["l2_misses"] == 1
        assert all(
            "l2_misses" not in counters and "l2_hits" not in counters
            for kind, counters in cold.stats.by_kind.items()
            if kind != VERDICT
        )
        # A *different* cache sharing the store answers from it: one L1
        # miss, one L2 hit, zero factorizations.
        warm = DecompositionCache(store=store)
        report = check_passivity(small_rlc_ladder, method="gare", cache=warm)
        assert report.is_passive
        assert warm.stats.l2_hits == 1
        assert warm.stats.misses == 1
        assert warm.stats.factorizations == 0
        assert warm.stats.by_kind[VERDICT]["l2_hits"] == 1

    def test_storeless_cache_reports_zero_l2(self, small_rlc_ladder):
        cache = DecompositionCache()
        cache.spectral(small_rlc_ladder)
        assert cache.stats.l2_hits == 0
        assert cache.stats.l2_misses == 0
        assert cache.stats.l2_evictions == 0

    def test_l2_counters_merge_minus_snapshot(self):
        left = CacheStats()
        left.record_l2("a", hit=True)
        left.record_l2("a", hit=False)
        right = CacheStats()
        right.record_l2("a", hit=True)
        right.add("l2_evictions", n=3)
        left.merge(right)
        assert left.l2_hits == 2
        assert left.l2_misses == 1
        assert left.l2_evictions == 3
        assert left.by_kind["a"]["l2_hits"] == 2
        baseline = left.snapshot()
        left.record_l2("a", hit=True)
        delta = left.minus(baseline)
        assert delta.l2_hits == 1
        assert delta.l2_misses == 0
        assert delta.by_kind["a"]["l2_hits"] == 1

    def test_eviction_telemetry_flows_through_cache(self, tmp_path, small_rlc_ladder):
        probe = DecompositionCache(store=DecompositionStore(tmp_path / "probe"))
        check_passivity(small_rlc_ladder, method="gare", cache=probe)
        budget = probe.store.total_bytes  # fits roughly one verdict blob
        store = DecompositionStore(tmp_path / "store", size_budget=budget)
        cache = DecompositionCache(store=store)
        for rows in (3, 4, 5):
            check_passivity(
                rlc_grid(rows, 3, sparse=False).system, method="gare", cache=cache
            )
        assert store.n_evictions > 0
        assert cache.stats.l2_evictions == store.n_evictions


class TestColdStartRegression:
    """The ISSUE acceptance pin: warm store, fresh cache, zero QZ."""

    def test_fresh_cache_on_warm_store_does_zero_qz(self, store):
        system = rlc_grid(6, 6, sparse=False).system
        check_passivity(system, method="auto", cache=DecompositionCache(store=store))
        fresh = DecompositionCache(store=store)
        with QZCounter() as counter:
            report = check_passivity(system, method="auto", cache=fresh)
        assert report.is_passive, report.failure_reason
        assert fresh.stats.l2_hits > 0
        assert fresh.stats.factorizations == 0
        assert counter.total == 0, (
            f"store-warm cold start performed {counter.total} QZ "
            f"factorizations (qz={counter.qz}, ordqz={counter.ordqz})"
        )
        assert report.diagnostics["engine"]["factorizations"] == 0

    def test_impulsive_shh_path_also_rehydrates(self, store):
        system = paper_benchmark_model(24, n_impulsive_stubs=2).system
        check_passivity(system, method="auto", cache=DecompositionCache(store=store))
        fresh = DecompositionCache(store=store)
        with QZCounter() as counter:
            report = check_passivity(system, method="auto", cache=fresh)
        assert report.is_passive
        assert fresh.stats.l2_hits > 0
        assert counter.ordqz == 0  # the full-pencil ordered QZ came from disk

    def test_gare_refusal_verdict_shared_through_store(
        self, store, small_impulsive_ladder
    ):
        cache = DecompositionCache(store=store)
        refused = check_passivity(small_impulsive_ladder, method="gare", cache=cache)
        assert not refused.is_passive and refused.failure_reason
        fresh = DecompositionCache(store=store)
        again = check_passivity(small_impulsive_ladder, method="gare", cache=fresh)
        assert again.failure_reason == refused.failure_reason
        assert again.diagnostics["engine"]["verdict_cached"] is True
        # The refusal came from the store, not a recomputation.
        assert fresh.stats.l2_hits == 1
        assert fresh.stats.factorizations == 0

    def test_corrupt_blob_falls_back_to_compute(self, store, small_rlc_ladder):
        cache = DecompositionCache(store=store)
        check_passivity(small_rlc_ladder, method="gare", cache=cache)
        key = verdict_key(small_rlc_ladder, "gare")
        blob = store.root / "objects" / key[:2] / f"{key}.{VERDICT}.npz"
        blob.write_bytes(blob.read_bytes()[:40])
        fresh = DecompositionCache(store=store)
        # Recomputes the verdict (no raise).
        report = check_passivity(small_rlc_ladder, method="gare", cache=fresh)
        assert report.is_passive
        assert report.diagnostics["engine"]["verdict_cached"] is False
        assert fresh.stats.l2_misses == 1
        assert fresh.stats.factorizations > 0
        assert store.n_corrupt == 1
        # ...and the recomputation repaired the blob for the next reader.
        repaired = DecompositionCache(store=store)
        check_passivity(small_rlc_ladder, method="gare", cache=repaired)
        assert repaired.stats.l2_hits == 1

    def test_intermediates_bypass_the_store(
        self, store, mixed_passive_system, small_rlc_ladder
    ):
        cache = DecompositionCache(store=store)
        cache.weierstrass(mixed_passive_system)
        cache.gare_certificate(small_rlc_ladder)
        # No intermediate reaches the store: all stay in L1, no blob
        # appears on disk and L2 is never asked.
        assert len(store) == 0
        assert not list(store.root.glob("objects/*/*.npz"))
        assert cache.stats.l2_misses == 0
        cache.weierstrass(mixed_passive_system)
        assert cache.stats.hits_for("weierstrass_form") == 1
        fresh = DecompositionCache(store=store)
        fresh.gare_certificate(small_rlc_ladder)
        assert fresh.stats.l2_hits == fresh.stats.l2_misses == 0
        assert fresh.stats.factorizations > 0


    def test_put_verdict_without_persist_stays_in_l1(self, store, small_rlc_ladder):
        report = check_passivity(small_rlc_ladder, method="gare")
        key = verdict_key(small_rlc_ladder, "gare")
        cache = DecompositionCache(store=store)
        cache.put_verdict(key, report, persist=False)
        assert not store.contains(key)
        assert cache.verdict(key).is_passive
        cache.put_verdict(key, report)
        assert store.contains(key)

    def test_a_failing_store_degrades_to_computing(self, small_rlc_ladder):
        class BrokenStore:
            def load(self, key):
                raise OSError("disk gone")

            def put(self, key, report):
                raise OSError("disk gone")

        cache = DecompositionCache(store=BrokenStore())
        for _ in range(2):  # the repeat is answered from L1
            report = check_passivity(small_rlc_ladder, method="gare", cache=cache)
            assert report.is_passive
        assert cache.stats.l2_misses == 1
        assert cache.stats.hits_for(VERDICT) == 1


class TestSeedValidation:
    def test_seed_unknown_kind_raises(self, small_rlc_ladder):
        cache = DecompositionCache()
        context = compute_spectral_context(small_rlc_ladder.e, small_rlc_ladder.a)
        with pytest.raises(SerializationError) as excinfo:
            cache.seed(small_rlc_ladder, "pencil_sprectum", context)  # typo'd
        assert "pencil_sprectum" in str(excinfo.value)
        assert len(cache) == 0  # nothing was silently stored

    def test_seed_known_kind_still_works(self, small_rlc_ladder):
        cache = DecompositionCache()
        context = compute_spectral_context(small_rlc_ladder.e, small_rlc_ladder.a)
        cache.seed(small_rlc_ladder, PENCIL_SPECTRUM, context)
        assert cache.spectral(small_rlc_ladder) is context


class TestBatchRunnerWithStore:
    def test_serial_sweep_populates_and_reuses_the_store(self, store):
        system = rlc_grid(5, 5, sparse=False).system
        first = BatchRunner(backend="serial", cache=DecompositionCache(store=store))
        outcome = first.run([system], methods=("auto",))
        assert outcome.results[0].is_passive
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1
        # A brand-new runner (fresh cache, same store) re-checks for free.
        second = BatchRunner(backend="serial", cache=DecompositionCache(store=store))
        warm = second.run([system], methods=("auto",))
        assert warm.results[0].is_passive
        assert warm.cache_stats.factorizations == 0
        assert warm.cache_stats.l2_hits > 0
