"""Compute-once SpectralContext: correctness, cache plumbing, QZ counting.

The headline guarantee of the spectral-context refactor is pinned here with a
monkeypatch counter around ``scipy.linalg.qz``/``ordqz``/``eigvals``: with a
persistent cache, ``check_passivity(system, method="auto")`` performs at most
**one** pencil factorization per (system, tolerances) across profile, method
and reduction, and a second call performs **zero**.  A cold explicit SHH test
computes no ordered QZ at all: its step 0 needs only the eigenvalues.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import QZCounter
from repro.circuits import paper_benchmark_model, rlc_grid
from repro.config import DEFAULT_TOLERANCES
from repro.descriptor import DescriptorSystem
from repro.descriptor.weierstrass import separate_finite_infinite, weierstrass_form
from repro.engine import (
    PENCIL_SPECTRUM,
    BatchRunner,
    CacheStats,
    DecompositionCache,
    SpectralContext,
    check_passivity,
    compute_spectral_context,
    profile_system,
)
from repro.exceptions import SingularPencilError
from repro.linalg.pencil import classify_generalized_eigenvalues


def singular_pencil_system() -> DescriptorSystem:
    """``E`` and ``A`` share a common kernel: det(s E - A) == 0 identically."""
    e = np.diag([1.0, 0.0])
    a = np.diag([-1.0, 0.0])
    b = np.ones((2, 1))
    return DescriptorSystem(e, a, b, b.T)


class TestSpectralContext:
    def test_context_of_regular_system(self, small_rlc_ladder):
        context = compute_spectral_context(
            small_rlc_ladder.e, small_rlc_ladder.a
        )
        assert context.is_regular
        assert context.spectrum is not None
        reference = classify_generalized_eigenvalues(
            small_rlc_ladder.e, small_rlc_ladder.a
        )
        assert context.n_finite == reference.finite.size
        assert context.spectrum.n_infinite == reference.n_infinite
        assert context.spectrum.n_stable == reference.n_stable
        assert context.spectrum.n_unstable == reference.n_unstable
        assert context.is_stable == reference.is_stable

    def test_ordered_qz_reconstructs_the_pencil(self, small_impulsive_ladder):
        system = small_impulsive_ladder
        context = compute_spectral_context(system.e, system.a)
        aa, ee, q, z, n_finite = context.ordered_qz()
        assert np.allclose(q @ aa @ z.T, system.a, atol=1e-10)
        assert np.allclose(q @ ee @ z.T, system.e, atol=1e-10)
        assert 0 < n_finite < system.order

    def test_singular_pencil_context(self):
        system = singular_pencil_system()
        context = compute_spectral_context(system.e, system.a)
        assert not context.is_regular
        assert context.aa is None
        with pytest.raises(SingularPencilError):
            context.ordered_qz()
        with pytest.raises(SingularPencilError):
            context.classified_spectrum()
        assert not context.is_stable

    def test_injectable_into_system_queries(self, small_rc_line):
        context = compute_spectral_context(small_rc_line.e, small_rc_line.a)
        assert small_rc_line.is_regular(context=context)
        assert small_rc_line.is_stable(context=context)
        spectrum = small_rc_line.spectrum(context=context)
        reference = small_rc_line.spectrum()
        assert np.allclose(
            np.sort_complex(spectrum.finite), np.sort_complex(reference.finite)
        )

    def test_separation_with_context_matches_without(self, mixed_passive_system):
        system = mixed_passive_system
        context = compute_spectral_context(system.e, system.a)
        with_ctx = separate_finite_infinite(system, context=context)
        without = separate_finite_infinite(system)
        assert with_ctx.n_finite == without.n_finite
        for s in (0.3 + 0.7j, 2.0 - 1.0j):
            a = with_ctx.finite_system.evaluate(s) + with_ctx.infinite_system.evaluate(s)
            b = without.finite_system.evaluate(s) + without.infinite_system.evaluate(s)
            assert np.allclose(a, b, atol=1e-9)

    def test_weierstrass_form_accepts_context(self, mixed_passive_system):
        system = mixed_passive_system
        context = compute_spectral_context(system.e, system.a)
        form = weierstrass_form(system, context=context)
        assert form.a_p.shape[0] == context.n_finite

    def test_separation_with_singular_context_raises(self):
        system = singular_pencil_system()
        context = compute_spectral_context(system.e, system.a)
        with pytest.raises(SingularPencilError):
            separate_finite_infinite(system, context=context)


class TestCachePlumbing:
    def test_spectral_is_a_cache_kind(self, small_rlc_ladder):
        cache = DecompositionCache()
        first = cache.spectral(small_rlc_ladder)
        second = cache.spectral(small_rlc_ladder)
        assert first is second
        assert cache.stats.misses_for(PENCIL_SPECTRUM) == 1
        assert cache.stats.hits_for(PENCIL_SPECTRUM) == 1
        assert cache.stats.factorizations_for(PENCIL_SPECTRUM) == 1

    def test_profile_shares_the_spectral_context(self, small_rc_line):
        cache = DecompositionCache()
        profile = profile_system(small_rc_line, cache=cache)
        assert profile.is_admissible
        # The profile's spectral analysis is itself a cache entry: fetching
        # the context afterwards is a hit, not a second factorization.
        cache.spectral(small_rc_line)
        assert cache.stats.factorizations_for(PENCIL_SPECTRUM) == 1
        assert cache.stats.hits_for(PENCIL_SPECTRUM) >= 1

    def test_weierstrass_accessor_reuses_the_context(self, small_impulsive_ladder):
        cache = DecompositionCache()
        cache.spectral(small_impulsive_ladder)
        cache.weierstrass(small_impulsive_ladder)
        assert cache.stats.factorizations_for(PENCIL_SPECTRUM) == 1
        assert cache.stats.hits_for(PENCIL_SPECTRUM) == 1

    def test_seed_makes_lookups_hit_without_factorizations(self, small_rlc_ladder):
        context = compute_spectral_context(
            small_rlc_ladder.e, small_rlc_ladder.a, DEFAULT_TOLERANCES
        )
        cache = DecompositionCache()
        cache.seed(small_rlc_ladder, PENCIL_SPECTRUM, context)
        assert cache.spectral(small_rlc_ladder) is context
        assert cache.stats.factorizations == 0
        assert cache.stats.misses_for(PENCIL_SPECTRUM) == 0
        assert cache.stats.hits_for(PENCIL_SPECTRUM) == 1

    def test_factorization_counter_in_merge_and_minus(self):
        left = CacheStats()
        left.record("a", hit=False)
        left.record_factorization("a")
        right = CacheStats()
        right.record_factorization("a")
        right.record_factorization("b")
        left.merge(right)
        assert left.factorizations == 3
        assert left.factorizations_for("a") == 2
        assert left.factorizations_for("b") == 1
        baseline = left.snapshot()
        left.record_factorization("a")
        delta = left.minus(baseline)
        assert delta.factorizations == 1
        assert delta.factorizations_for("a") == 1
        assert delta.factorizations_for("b") == 0


class TestEngineDiagnosticsSchema:
    """All three check_passivity exits emit the same engine payload."""

    SCHEMA = {
        "method", "auto", "cached", "skipped", "factorizations", "incremental",
        "verdict_cached",
    }

    def test_success_exit(self, small_rc_line):
        report = check_passivity(small_rc_line, method="auto")
        engine = report.diagnostics["engine"]
        assert set(engine) == self.SCHEMA
        assert engine["skipped"] is False
        assert engine["cached"] is False
        assert engine["factorizations"] > 0

    def test_order_limit_exit(self, small_rlc_ladder):
        cache = DecompositionCache()
        report = check_passivity(
            small_rlc_ladder, method="lmi", cache=cache, order_limit=2
        )
        engine = report.diagnostics["engine"]
        assert set(engine) == self.SCHEMA
        assert engine["skipped"] is True
        assert engine["cached"] is True

    def test_admissibility_refusal_exit(self, small_impulsive_ladder):
        report = check_passivity(small_impulsive_ladder, method="gare")
        engine = report.diagnostics["engine"]
        assert set(engine) == self.SCHEMA
        assert engine["skipped"] is False
        assert report.is_passive is False

    def test_verdict_hit_exit(self, small_rc_line):
        cache = DecompositionCache()
        cold = check_passivity(small_rc_line, method="auto", cache=cache)
        hit = check_passivity(small_rc_line, method="auto", cache=cache)
        for report in (cold, hit):
            assert set(report.diagnostics["engine"]) == self.SCHEMA
        assert cold.diagnostics["engine"]["verdict_cached"] is False
        assert hit.diagnostics["engine"]["verdict_cached"] is True
        assert hit.diagnostics["engine"]["method"] == cold.diagnostics["engine"]["method"]

    def test_warm_cache_reports_zero_factorizations(self, small_rc_line):
        cache = DecompositionCache()
        check_passivity(small_rc_line, method="auto", cache=cache)
        warm = check_passivity(small_rc_line, method="auto", cache=cache)
        assert warm.diagnostics["engine"]["factorizations"] == 0


class TestSingleFactorizationGuarantee:
    """QZ calls on the auto path, counted by the shared repro.bench.QZCounter."""

    @pytest.fixture()
    def counter(self):
        with QZCounter() as active:
            yield active

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: rlc_grid(6, 6, sparse=False).system,  # admissible -> gare
            lambda: paper_benchmark_model(24, n_impulsive_stubs=2).system,  # shh
        ],
        ids=["admissible-gare", "impulsive-shh"],
    )
    def test_auto_path_is_one_qz_then_zero(self, counter, make_system):
        system = make_system()
        cache = DecompositionCache()
        counter.reset()
        report = check_passivity(system, method="auto", cache=cache)
        assert report.is_passive, report.failure_reason
        assert counter.ordqz <= 1
        assert counter.total <= 1, (
            f"first call performed {counter.total} QZ factorizations "
            f"(qz={counter.qz}, ordqz={counter.ordqz})"
        )
        counter.reset()
        second = check_passivity(system, method="auto", cache=cache)
        assert second.is_passive
        assert counter.total == 0, (
            f"warm-cache call performed {counter.total} QZ factorizations"
        )

    def test_tolerance_bundle_is_part_of_the_key(self, counter):
        from repro.config import Tolerances

        system = rlc_grid(5, 5, sparse=False).system
        cache = DecompositionCache()
        check_passivity(system, method="auto", cache=cache)
        counter.reset()
        loose = Tolerances(rank_rtol=1e-8)
        check_passivity(system, method="auto", tol=loose, cache=cache)
        # A different tolerance bundle is a different cache entry: exactly
        # one new factorization, not zero and not several.
        assert counter.total == 1

    def test_explicit_methods_share_the_single_context(self, counter):
        system = paper_benchmark_model(24, n_impulsive_stubs=2).system
        cache = DecompositionCache()
        counter.reset()
        check_passivity(system, method="shh", cache=cache)
        # Cold SHH reads only regularity and stability: one eigenvalue-only
        # QZ, no Schur vectors and nothing cached for the next method.
        assert (counter.qz, counter.ordqz, counter.eig) == (0, 0, 1)
        counter.reset()
        check_passivity(system, method="weierstrass", cache=cache)
        # The Weierstrass route computes the one full-pencil ordered QZ; its
        # only other QZ work is the Sylvester solver's small sub-blocks.
        assert counter.ordqz == 1


class TestColdShhFactorizesAtOrderN:
    """The cold SHH flow factors E at order n, never Phi's pencil at order 2n."""

    ORDER = 60

    @pytest.fixture()
    def system(self):
        return paper_benchmark_model(self.ORDER, n_impulsive_stubs=2, seed=2).system

    def test_explicit_shh_skips_the_ordered_qz_and_order_2n_svds(
        self, system, monkeypatch
    ):
        shapes = []
        original_svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        with QZCounter() as counter:
            report = check_passivity(system, "shh")
        assert report.is_passive, report.failure_reason
        assert (counter.qz, counter.ordqz, counter.eig) == (0, 0, 1)
        assert shapes, "the recording wrapper saw no SVD"
        phi_order = 2 * self.ORDER
        assert (phi_order, phi_order) not in shapes

    def test_auto_reads_the_profile_context(self, system):
        with QZCounter() as counter:
            report = check_passivity(system, "auto")
        assert report.method == "shh"
        assert (counter.ordqz, counter.eig) == (1, 0)


class TestBatchRunnerContextSharing:
    def test_duplicate_systems_share_one_factorization(self):
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="serial")
        outcome = runner.run([system, system], methods=("auto",))
        assert all(r.is_passive for r in outcome.results)
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1

    def test_thread_backend_shares_the_precomputed_context(self):
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="thread", max_workers=2)
        outcome = runner.run([system, system], methods=("auto", "weierstrass"))
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1

    def test_process_workers_are_seeded(self):
        pytest.importorskip("multiprocessing")
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="process", max_workers=2)
        try:
            outcome = runner.run([system, system], methods=("auto",))
        except (OSError, PermissionError):
            pytest.skip("process pool unavailable in this environment")
        if outcome.backend != "process":
            pytest.skip("process pool unavailable in this environment")
        assert all(r.is_passive for r in outcome.results if r.ok)
        # One parent-side factorization; the seeded workers only record hits.
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1

    def test_precompute_can_be_disabled(self):
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="serial", precompute_spectral=False)
        outcome = runner.run([system], methods=("auto",))
        assert outcome.results[0].is_passive
        # The cell still computes (and caches) its own context.
        assert outcome.cache_stats.factorizations_for(PENCIL_SPECTRUM) == 1

    def test_sparse_systems_are_not_densified_by_precompute(self):
        from repro.circuits import rc_grid

        system = rc_grid(18, 18, sparse=True).system
        runner = BatchRunner(backend="serial")
        contexts = runner._spectral_contexts([system, system], ("auto",), {})
        assert contexts == {}
        assert "e" not in system.__dict__
        assert "a" not in system.__dict__

    def test_unique_cold_system_is_left_to_its_worker(self):
        # A single cold system gains nothing from a parent-side QZ (it would
        # serialize work the worker could do in parallel): no precompute.
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="serial")
        assert runner._spectral_contexts([system], ("auto",), {}) == {}
        # ...but once a sweep has cached it, shipping is free and happens.
        runner.run([system], methods=("auto",))
        contexts = runner._spectral_contexts([system], ("auto",), {})
        assert 0 in contexts and contexts[0].is_regular

    def test_no_precompute_when_no_method_reads_the_context(self):
        # A pure-LMI sweep never consults the spectral cache, and neither
        # does a spectral method that the engine will refuse on its order
        # limit — both must not trigger a parent-side factorization.
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(backend="serial")
        assert runner._spectral_contexts([system, system], ("lmi",), {}) == {}
        assert (
            runner._spectral_contexts(
                [system, system], ("shh",), {"shh": {"order_limit": 2}}
            )
            == {}
        )
        assert runner.cache.stats.factorizations == 0

    def test_pickled_context_roundtrip(self):
        import pickle

        system = rlc_grid(5, 5, sparse=False).system
        context = compute_spectral_context(system.e, system.a)
        clone = pickle.loads(pickle.dumps(context))
        assert isinstance(clone, SpectralContext)
        assert clone.is_regular and clone.n_finite == context.n_finite
        assert np.allclose(clone.aa, context.aa)
