"""Tests for the perturbation-aware incremental re-certification tier.

Covers the structured delta fingerprint, the nearest-ancestor lookup, the
certified update engine (:func:`attempt_incremental` hit, fallback and
provenance accounting), the update provenance that persists with the
cached verdict, and the headline
QZ regression the ISSUE pins: an N-corner sweep costs one cold QZ
factorization plus at most one per counted fallback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench import QZCounter
from repro.circuits import perturb_system, rlc_grid, rlc_grid_corners
from repro.engine import (
    BatchRunner,
    DEFAULT_INCREMENTAL_CONFIG,
    DecompositionCache,
    DeltaFingerprint,
    IncrementalConfig,
    attempt_incremental,
    check_passivity,
    delta_distance,
    fingerprint_system,
    structured_delta,
)
from repro.engine.cache import (
    GARE_RICCATI,
    GARE_STATE_SPACE,
    PENCIL_SPECTRUM,
    SYSTEM_PROFILE,
)
from repro.engine.incremental import (
    _instance_form,
    _reuse_form,
    _spectral_norm_bound,
)
from repro.store import DecompositionStore


def _damped_grid(rows=4, cols=4):
    """Dense admissible grid model with comfortable passivity margins."""
    return rlc_grid(
        rows, cols, series_resistance=0.8, shunt_conductance=0.1, sparse=False
    ).system


@pytest.fixture(scope="module")
def nominal():
    return _damped_grid()


@pytest.fixture(scope="module")
def corner(nominal):
    return perturb_system(nominal, 2e-4, seed=7, pattern="a")


class TestDeltaFingerprint:
    def test_identical_systems_have_zero_distance(self, nominal):
        delta = structured_delta(nominal, nominal)
        assert isinstance(delta, DeltaFingerprint)
        assert delta.distance == 0.0
        assert all(d.norm == 0.0 and d.nnz == 0 for d in delta.deltas.values())
        assert delta.ancestor_fingerprint == delta.child_fingerprint

    def test_a_only_perturbation_localizes_to_a(self, nominal, corner):
        delta = structured_delta(nominal, corner)
        assert set(delta.deltas) == {"E", "A", "B", "C", "D"}
        assert delta.deltas["A"].norm > 0.0
        assert delta.deltas["A"].nnz > 0
        for name in ("E", "B", "C", "D"):
            assert delta.deltas[name].norm == 0.0
            assert delta.deltas[name].rank == 0
        assert delta.distance == pytest.approx(delta.deltas["A"].rel_norm)
        assert delta.ancestor_fingerprint != delta.child_fingerprint

    def test_pattern_signature_recognizes_sweep_families(self, nominal):
        # Same touched entries, different magnitudes -> same signature.
        small = structured_delta(nominal, perturb_system(nominal, 1e-4, seed=3))
        large = structured_delta(nominal, perturb_system(nominal, 1e-2, seed=3))
        other = structured_delta(nominal, perturb_system(nominal, 1e-4, pattern="b"))
        assert small.pattern_signature == large.pattern_signature
        assert small.pattern_signature != other.pattern_signature

    def test_ranks_false_skips_the_rank_svd(self, nominal, corner):
        delta = structured_delta(nominal, corner, ranks=False)
        assert delta.deltas["A"].rank == -1
        assert delta.deltas["E"].rank == 0  # untouched matrices stay exact

    def test_delta_distance_matches_fingerprint_distance(self, nominal, corner):
        assert delta_distance(nominal, corner) == pytest.approx(
            structured_delta(nominal, corner).distance
        )

    def test_distance_scales_with_perturbation(self, nominal):
        near = perturb_system(nominal, 1e-5, seed=1)
        far = perturb_system(nominal, 1e-2, seed=1)
        assert delta_distance(nominal, near) < delta_distance(nominal, far)


class TestSpectralNormBound:
    def test_upper_bounds_the_exact_two_norm(self, rng):
        for _ in range(20):
            matrix = rng.standard_normal((12, 9))
            assert _spectral_norm_bound(matrix) >= np.linalg.norm(matrix, 2) - 1e-12

    def test_zero_matrix(self):
        assert _spectral_norm_bound(np.zeros((5, 5))) == 0.0

    def test_tight_on_sparse_perturbations(self, rng):
        # The min(Frobenius, Hoelder) bound must stay within a small factor
        # on the sweep workload's delta shape (sparse entrywise noise), or
        # every corner would trip the safety gate and fall back.
        matrix = rng.standard_normal((30, 30))
        matrix[np.abs(matrix) < 1.0] = 0.0
        exact = np.linalg.norm(matrix, 2)
        assert _spectral_norm_bound(matrix) <= 6.0 * exact


class TestReuseForm:
    def test_e_unchanged_reuse_matches_fresh_form(self, nominal, corner):
        from repro.config import DEFAULT_TOLERANCES

        fresh = _instance_form(corner, DEFAULT_TOLERANCES)
        reused = _reuse_form(
            corner, _instance_form(nominal, DEFAULT_TOLERANCES), DEFAULT_TOLERANCES
        )
        assert reused.rank == fresh.rank
        # Both are valid SVD-coordinate forms of the same system: the
        # transformed pencils agree up to the (orthogonal) basis choice, and
        # reconstructing through the reused factors recovers the child.
        left, right = reused.left, reused.right
        assert np.allclose(left.T @ corner.e @ right, reused.system.e)
        assert np.allclose(left.T @ corner.a @ right, reused.system.a)


class TestNearestAncestor:
    def test_nearest_prefers_the_closest_registered_ancestor(self, nominal):
        cache = DecompositionCache()
        near = perturb_system(nominal, 1e-4, seed=11)
        far = perturb_system(nominal, 5e-2, seed=12)
        cache.spectral(nominal)
        cache.spectral(far)
        child = perturb_system(nominal, 2e-4, seed=13)
        found = cache.nearest(child, kinds=(PENCIL_SPECTRUM,))
        assert found is not None
        ancestor, distance = found
        assert delta_distance(ancestor, child) == pytest.approx(distance)
        assert distance == pytest.approx(delta_distance(nominal, child))
        assert near is not ancestor  # near was never cached

    def test_max_distance_filters_every_candidate(self, nominal):
        cache = DecompositionCache()
        cache.spectral(nominal)
        child = perturb_system(nominal, 1e-3, seed=3)
        assert cache.nearest(child, max_distance=1e-12) is None

    def test_empty_cache_has_no_ancestor(self, nominal):
        assert DecompositionCache().nearest(nominal) is None


class TestAttemptIncremental:
    def _warm_cache(self, nominal):
        cache = DecompositionCache()
        cold = check_passivity(nominal, method="gare", cache=cache)
        assert cold.is_passive, cold.failure_reason
        return cache

    def test_hit_matches_cold_verdict_and_counts(self, nominal, corner):
        cache = self._warm_cache(nominal)
        report = attempt_incremental(corner, nominal, cache)
        assert report is not None
        cold = check_passivity(corner, method="gare")
        assert report.is_passive == cold.is_passive
        assert cache.stats.incremental_hits == 1
        assert cache.stats.incremental_fallbacks == 0
        assert cache.stats.update_residual_max >= 0.0
        provenance = report.diagnostics["incremental"]
        assert provenance["mechanism"].startswith("spectral")
        assert provenance["distance"] > 0.0

    def test_hit_seeds_certified_intermediates_and_provenance(self, nominal, corner):
        cache = self._warm_cache(nominal)
        report = attempt_incremental(corner, nominal, cache)
        assert report is not None
        for kind in (GARE_STATE_SPACE, GARE_RICCATI, SYSTEM_PROFILE):
            assert cache.contains(corner, kind)
        provenance = report.diagnostics["incremental"]
        assert provenance["ancestor_fingerprint"] == fingerprint_system(nominal)
        assert provenance["ancestor_fingerprint"] != fingerprint_system(corner)
        assert set(provenance["delta_norms"]) == set("EABCD")
        assert provenance["delta_norms"]["A"] > 0.0
        assert provenance["delta_norms"]["E"] == 0.0

    def test_distance_gate_counts_a_fallback(self, nominal, corner):
        cache = self._warm_cache(nominal)
        tight = dataclasses.replace(DEFAULT_INCREMENTAL_CONFIG, max_distance=1e-12)
        assert attempt_incremental(corner, nominal, cache, config=tight) is None
        assert cache.stats.incremental_fallbacks == 1
        assert cache.stats.incremental_hits == 0

    def test_uncached_ancestor_counts_a_fallback(self, nominal, corner):
        cache = DecompositionCache()  # ancestor never factorized
        assert attempt_incremental(corner, nominal, cache) is None
        assert cache.stats.incremental_fallbacks == 1

    def test_identical_system_is_not_an_update(self, nominal):
        cache = self._warm_cache(nominal)
        assert attempt_incremental(nominal, nominal, cache) is None
        assert cache.stats.incremental_hits == 0
        assert cache.stats.incremental_fallbacks == 0

    def test_auto_with_empty_cache_is_silent(self, nominal, corner):
        cache = DecompositionCache()
        assert attempt_incremental(corner, "auto", cache) is None
        assert cache.stats.incremental_fallbacks == 0

    def test_auto_resolves_the_registered_ancestor(self, nominal, corner):
        cache = self._warm_cache(nominal)
        report = attempt_incremental(corner, "auto", cache)
        assert report is not None
        assert cache.stats.incremental_hits == 1

    def test_bad_ancestor_string_raises(self, nominal, corner):
        with pytest.raises(ValueError, match="auto"):
            attempt_incremental(corner, "nearest", DecompositionCache())


class TestCheckPassivityAncestor:
    def test_ancestor_verdict_agrees_and_reports_incremental(self, nominal, corner):
        cache = DecompositionCache()
        cold_root = check_passivity(nominal, method="gare", cache=cache)
        warm = check_passivity(corner, method="gare", cache=cache, ancestor=nominal)
        cold = check_passivity(corner, method="gare")
        assert warm.is_passive == cold.is_passive == cold_root.is_passive
        assert warm.diagnostics["engine"]["incremental"] is True
        assert warm.diagnostics["engine"]["factorizations"] == 0
        assert "incremental" in warm.diagnostics

    def test_fallback_goes_cold_with_identical_verdict(self, nominal, corner):
        cache = DecompositionCache()
        check_passivity(nominal, method="gare", cache=cache)
        tight = dataclasses.replace(DEFAULT_INCREMENTAL_CONFIG, max_distance=1e-12)
        warm = check_passivity(
            corner,
            method="gare",
            cache=cache,
            ancestor=nominal,
            incremental_config=tight,
        )
        cold = check_passivity(corner, method="gare")
        assert warm.is_passive == cold.is_passive
        assert warm.diagnostics["engine"]["incremental"] is False
        assert cache.stats.incremental_fallbacks == 1


class TestProvenancePersistence:
    def test_provenance_survives_a_store_restart(self, tmp_path, nominal, corner):
        store_path = tmp_path / "store"
        cache = DecompositionCache(store=DecompositionStore(store_path))
        check_passivity(nominal, method="gare", cache=cache)
        warm = check_passivity(corner, method="gare", cache=cache, ancestor=nominal)
        assert warm.diagnostics["engine"]["incremental"] is True
        original = warm.diagnostics["incremental"]

        # A fresh cache on the same store re-checks the corner: the verdict
        # comes back from the store with the update's provenance.
        reopened = DecompositionCache(store=DecompositionStore(store_path))
        again = check_passivity(
            corner, method="gare", cache=reopened, ancestor=nominal
        )
        assert again.diagnostics["engine"]["verdict_cached"] is True
        assert reopened.stats.l2_hits == 1
        assert reopened.stats.factorizations == 0
        provenance = again.diagnostics["incremental"]
        assert provenance["mechanism"] == original["mechanism"]
        assert provenance["distance"] == pytest.approx(original["distance"])
        assert provenance["delta_norms"] == pytest.approx(original["delta_norms"])
        assert provenance["newton_steps"] == original["newton_steps"]

    def test_intermediates_stay_in_l1(self, tmp_path, nominal, corner):
        store_path = tmp_path / "store"
        cache = DecompositionCache(store=DecompositionStore(store_path))
        check_passivity(nominal, method="gare", cache=cache)
        check_passivity(corner, method="gare", cache=cache, ancestor=nominal)
        blobs = sorted(path.name for path in store_path.glob("objects/*/*.npz"))
        assert len(blobs) == 2
        assert all(name.endswith(".verdict.npz") for name in blobs)
        reopened = DecompositionCache(store=DecompositionStore(store_path))
        assert not reopened.contains(corner, GARE_RICCATI)
        assert not reopened.contains(nominal, PENCIL_SPECTRUM)


class TestSweepQZRegression:
    """ISSUE acceptance: N-corner sweep => 1 cold QZ + <= fallback recomputes."""

    def test_serial_sweep_is_one_cold_qz(self):
        family = rlc_grid_corners(4, 4, n_corners=8, scale=2e-4, seed=0, pattern="a")
        runner = BatchRunner(backend="serial", incremental="sweep")
        with QZCounter() as counter:
            outcome = runner.run(family, methods=("gare",))
        assert all(r.ok for r in outcome.results)
        assert all(r.is_passive for r in outcome.results)
        assert outcome.n_chains == 1
        assert outcome.n_chained_jobs == len(family)
        fallbacks = outcome.cache_stats.incremental_fallbacks
        assert outcome.cache_stats.incremental_hits == len(family) - 1 - fallbacks
        assert counter.total <= 1 + fallbacks, (
            f"sweep performed {counter.total} QZ factorizations "
            f"(expected 1 cold + <= {fallbacks} fallback recomputes)"
        )

    def test_sweep_verdicts_match_cold_mode(self):
        family = rlc_grid_corners(4, 4, n_corners=6, scale=2e-4, seed=5, pattern="a")
        warm = BatchRunner(backend="serial", incremental="sweep").run(
            family, methods=("gare",)
        )
        cold = BatchRunner(backend="serial").run(family, methods=("gare",))
        assert warm.verdicts() == cold.verdicts()
        assert cold.cache_stats.incremental_hits == 0

    def test_off_mode_plans_no_chains(self):
        family = rlc_grid_corners(4, 4, n_corners=3, scale=2e-4, seed=0)
        outcome = BatchRunner(backend="serial").run(family, methods=("gare",))
        assert outcome.n_chains == 0
        assert outcome.n_chained_jobs == 0

    def test_thread_sweep_matches_serial(self):
        family = rlc_grid_corners(4, 4, n_corners=6, scale=2e-4, seed=9)
        fired = []
        threaded = BatchRunner(
            backend="thread", max_workers=4, incremental="sweep"
        ).run(family, methods=("gare",), progress=fired.append)
        serial = BatchRunner(backend="serial", incremental="sweep").run(
            family, methods=("gare",)
        )
        assert threaded.verdicts() == serial.verdicts()
        assert sorted(r.system_index for r in fired) == list(range(len(family)))
        assert threaded.n_chains == 1
