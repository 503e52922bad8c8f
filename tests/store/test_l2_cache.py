"""L2 integration: DecompositionCache backed by the persistent store.

The headline regression here is the ISSUE's cold-start guarantee, pinned
with the shared :class:`~repro.bench.QZCounter`: a *fresh* cache attached to
a warm store answers ``check_passivity(system, "auto")`` with ``l2_hits >
0`` and **zero** QZ factorizations.  Alongside it: the l2 telemetry
plumbing through ``CacheStats`` (merge/minus/snapshot), negative-entry
sharing, corruption fall-through, and the ``seed()`` unknown-kind fix.
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
    fingerprint_system,
)
from repro.engine.cache import GARE_RICCATI, GARE_STATE_SPACE, PENCIL_SPECTRUM
from repro.exceptions import NotAdmissibleError, SerializationError
from repro.linalg.pencil import compute_spectral_context
from repro.store import DecompositionStore


@pytest.fixture()
def store(tmp_path):
    return DecompositionStore(tmp_path / "store")


class TestL2Telemetry:
    def test_miss_then_hit_counters(self, store, small_rlc_ladder):
        cold = DecompositionCache(store=store)
        cold.gare_state_space(small_rlc_ladder)
        # The reduction consults L2; its spectral dependency is L1-only.
        assert cold.stats.l2_misses == 1
        assert cold.stats.l2_hits == 0
        assert cold.stats.factorizations == 2
        # A *different* cache sharing the store rehydrates: L1 miss, L2 hit,
        # zero factorizations.
        warm = DecompositionCache(store=store)
        reduced = warm.gare_state_space(small_rlc_ladder)
        assert reduced.a.shape[0] > 0
        assert warm.stats.l2_hits == 1
        assert warm.stats.misses == 1
        assert warm.stats.factorizations == 0
        assert warm.stats.by_kind[GARE_STATE_SPACE]["l2_hits"] == 1

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
        right.l2_evictions += 3
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
        probe = DecompositionStore(tmp_path / "probe")
        probe.put(
            fingerprint_system(small_rlc_ladder),
            GARE_STATE_SPACE,
            ("value", DecompositionCache().gare_state_space(small_rlc_ladder)),
        )
        budget = probe.total_bytes  # fits roughly one reduction blob
        store = DecompositionStore(tmp_path / "store", size_budget=budget)
        cache = DecompositionCache(store=store)
        for rows in (3, 4, 5):
            cache.gare_state_space(rlc_grid(rows, 3, sparse=False).system)
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

    def test_negative_gare_entry_shared_through_store(self, store, small_impulsive_ladder):
        cache = DecompositionCache(store=store)
        with pytest.raises(NotAdmissibleError):
            cache.gare_state_space(small_impulsive_ladder)
        fresh = DecompositionCache(store=store)
        with pytest.raises(NotAdmissibleError):
            fresh.gare_state_space(small_impulsive_ladder)
        # The refusal came from the store, not a recomputation.
        assert fresh.stats.l2_hits == 1
        assert fresh.stats.factorizations_for(GARE_STATE_SPACE) == 0

    def test_corrupt_blob_falls_back_to_compute(self, store, small_rlc_ladder):
        cache = DecompositionCache(store=store)
        cache.gare_certificate(small_rlc_ladder)
        fingerprint = fingerprint_system(small_rlc_ladder)
        blob = (
            store.root
            / "objects"
            / fingerprint[:2]
            / f"{fingerprint}.{GARE_RICCATI}.npz"
        )
        blob.write_bytes(blob.read_bytes()[:40])
        fresh = DecompositionCache(store=store)
        # Recomputes the certificate (no raise) on the reduction read from L2.
        certificate = fresh.gare_certificate(small_rlc_ladder)
        assert certificate.x is not None
        assert fresh.stats.l2_misses == 1
        assert fresh.stats.factorizations == 1
        # ...and the recomputation repaired the blob for the next reader.
        repaired = DecompositionCache(store=store)
        repaired.gare_certificate(small_rlc_ladder)
        assert repaired.stats.l2_hits == 1

    def test_unpersistable_kinds_bypass_the_store(self, store, mixed_passive_system):
        cache = DecompositionCache(store=store)
        cache.weierstrass(mixed_passive_system)
        # Neither weierstrass_form nor its spectral dependency has a codec:
        # both stay in L1, no blob appears on disk and L2 is never asked.
        fingerprint = fingerprint_system(mixed_passive_system)
        assert not store.contains(fingerprint, "weierstrass_form")
        assert not store.contains(fingerprint, PENCIL_SPECTRUM)
        assert len(store) == 0
        assert cache.stats.l2_misses == 0
        cache.weierstrass(mixed_passive_system)
        assert cache.stats.hits_for("weierstrass_form") == 1


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
