"""Tests for the engine's top-level ``check_passivity`` API.

Includes the PR's acceptance checks: every registered method runs end-to-end
through the engine, cached and uncached SHH verdicts agree on the seed RLC
workloads, and a batch sweep over a Table-1-style order grid performs strictly
fewer Weierstrass/chain-data computations than ``methods x systems``.
"""

import pytest

from repro.circuits import (
    impulsive_rlc_ladder,
    paper_benchmark_model,
    rc_line,
    rlc_ladder,
)
from repro.engine import (
    BatchRunner,
    DecompositionCache,
    MethodRegistry,
    MethodSpec,
    UnknownMethodError,
    check_passivity,
    select_method,
)
from repro.passivity import shh_passivity_test
from repro.passivity.result import PassivityReport


class TestExplicitDispatch:
    @pytest.mark.parametrize("method", ["shh", "proposed", "lmi", "weierstrass", "gare"])
    def test_all_registered_methods_run_end_to_end(self, method):
        # rlc_ladder(3) is admissible and passive, so even the restricted
        # GARE test and the marginally-feasible LMI test reach a verdict.
        system = rlc_ladder(3).system
        report = check_passivity(system, method=method, cache=DecompositionCache())
        assert isinstance(report, PassivityReport)
        assert report.is_passive, (method, report.failure_reason)

    def test_proposed_alias_reports_shh(self, small_impulsive_ladder):
        report = check_passivity(small_impulsive_ladder, method="proposed")
        assert report.method == "shh"
        assert report.is_passive

    def test_unknown_method_raises(self, small_rc_line):
        with pytest.raises(UnknownMethodError):
            check_passivity(small_rc_line, method="nonsense")

    def test_nonpassive_system_rejected(self, nonpassive_proper_system):
        report = check_passivity(nonpassive_proper_system, method="shh")
        assert not report.is_passive

    def test_engine_diagnostics_recorded(self, small_rc_line):
        report = check_passivity(small_rc_line, method="weierstrass")
        assert report.diagnostics["engine"]["method"] == "weierstrass"
        assert report.diagnostics["engine"]["auto"] is False


class TestSparseAutoSelection:
    def test_auto_selects_shh_sparse_for_large_sparse_mna_systems(self):
        from repro.circuits import rc_grid
        from repro.engine import SPARSE_AUTO_MIN_ORDER, select_method

        system = rc_grid(16, 16, sparse=True).system
        assert system.order >= SPARSE_AUTO_MIN_ORDER
        assert select_method(system).name == "shh-sparse"
        report = check_passivity(system, method="auto")
        assert report.method == "shh-sparse"
        assert report.is_passive, report.failure_reason
        assert report.diagnostics["engine"]["auto"] is True

    def test_auto_does_not_densify_large_sparse_systems(self):
        from repro.circuits import rc_grid

        system = rc_grid(16, 16, sparse=True).system
        check_passivity(system, method="auto")
        # The dense views were never materialized by profiling or dispatch.
        assert "e" not in system.__dict__
        assert "a" not in system.__dict__

    def test_small_sparse_systems_keep_the_dense_dispatch(self):
        from repro.circuits import rc_grid
        from repro.engine import SPARSE_AUTO_MIN_ORDER, select_method

        system = rc_grid(4, 4, sparse=True).system
        assert system.order < SPARSE_AUTO_MIN_ORDER
        assert select_method(system).name in ("shh", "gare")

    def test_dense_systems_keep_the_dense_dispatch_at_any_order(self):
        from repro.circuits import rc_line

        system = rc_line(12).system
        assert not system.is_sparse
        from repro.engine import select_method

        assert select_method(system).name in ("shh", "gare")

    def test_auto_falls_back_when_sparse_method_unregistered(self):
        from repro.circuits import rc_grid
        from repro.engine import DEFAULT_REGISTRY, select_method

        registry = MethodRegistry()
        for name in DEFAULT_REGISTRY.names():
            if name != "shh-sparse":
                registry.register(DEFAULT_REGISTRY.resolve(name))
        system = rc_grid(16, 16, sparse=True).system
        assert select_method(system, registry=registry).name in ("shh", "gare")


class TestBatchRunnerSparseWiring:
    def test_sparse_method_in_a_batch_sweep(self):
        from repro.circuits import random_coupled_bus, rc_grid

        systems = [
            rc_grid(4, 4, sparse=True).system,
            random_coupled_bus(10, seed=3, sparse=True).system,
        ]
        runner = BatchRunner(backend="serial", cache=DecompositionCache())
        outcome = runner.run(systems, methods=("shh-sparse", "shh"))
        verdicts = outcome.verdicts()
        for index in range(len(systems)):
            assert verdicts[(index, "shh-sparse")] is True
            assert verdicts[(index, "shh-sparse")] == verdicts[(index, "shh")]

    def test_sparse_systems_survive_the_process_backend(self):
        # Sparse-backed DescriptorSystems must pickle across the pool.
        from repro.circuits import rc_grid

        systems = [rc_grid(4, 4, sparse=True).system]
        runner = BatchRunner(backend="process", max_workers=2)
        outcome = runner.run(systems, methods=("shh-sparse",))
        assert outcome.results[0].is_passive is True


class TestIrregularSystems:
    @pytest.fixture
    def singular_pencil_system(self):
        import numpy as np
        from repro.descriptor import DescriptorSystem

        return DescriptorSystem(
            np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))
        )

    @pytest.mark.parametrize("method", ["shh", "weierstrass"])
    def test_cache_does_not_change_failure_mode(self, singular_pencil_system, method):
        # A singular pencil must yield the test's graceful validation report,
        # with and without a cache — the cached decomposition must not leak
        # SingularPencilError through check_passivity.
        bare = check_passivity(singular_pencil_system, method=method)
        cached = check_passivity(
            singular_pencil_system, method=method, cache=DecompositionCache()
        )
        assert bare.is_passive is cached.is_passive is False
        assert bare.failure_reason == cached.failure_reason


class TestAutoSelection:
    def test_impulsive_system_uses_shh(self, small_impulsive_ladder):
        cache = DecompositionCache()
        assert select_method(small_impulsive_ladder, cache=cache).name == "shh"
        report = check_passivity(small_impulsive_ladder, method="auto", cache=cache)
        assert report.method == "shh"
        assert report.is_passive

    def test_admissible_system_uses_gare(self, small_rc_line):
        cache = DecompositionCache()
        assert select_method(small_rc_line, cache=cache).name == "gare"
        report = check_passivity(small_rc_line, method="auto", cache=cache)
        assert report.method == "gare"
        assert report.is_passive

    def test_auto_without_gare_falls_back_to_shh(self, small_rc_line):
        from repro.engine.registry import DEFAULT_REGISTRY

        registry = MethodRegistry()
        registry.register(DEFAULT_REGISTRY.resolve("shh"))
        report = check_passivity(small_rc_line, method="auto", registry=registry)
        assert report.method == "shh"
        assert report.is_passive


class TestOrderLimits:
    def test_lmi_refused_above_order_limit(self):
        system = rc_line(70).system  # order > 60, far beyond the LMI limit
        report = check_passivity(system, method="lmi")
        assert not report.is_passive
        assert "order limit" in report.failure_reason
        assert report.diagnostics["engine"]["skipped"] is True
        # The refusal is instantaneous — the SDP never started.
        assert report.elapsed_seconds < 0.5

    def test_explicit_order_limit_overrides_spec(self, small_rc_line):
        def instant(system, tol, cache, **options):
            return PassivityReport(is_passive=True, method="instant")

        registry = MethodRegistry()
        registry.register(
            MethodSpec(
                name="instant", runner=instant, description="", order_limit=1
            )
        )
        refused = check_passivity(small_rc_line, method="instant", registry=registry)
        assert not refused.is_passive
        forced = check_passivity(
            small_rc_line, method="instant", registry=registry, order_limit=None
        )
        assert forced.is_passive

    def test_order_limit_is_engine_level_for_every_method(self, small_rc_line):
        # The documented override must work on methods whose runner has no
        # order_limit parameter (it is consumed by the engine, not forwarded).
        report = check_passivity(small_rc_line, method="shh", order_limit=None)
        assert report.is_passive
        tightened = check_passivity(small_rc_line, method="shh", order_limit=1)
        assert not tightened.is_passive
        assert tightened.diagnostics["engine"]["skipped"] is True


class TestAdmissibilityPrescreen:
    def test_gare_prescreen_reuses_profile(self, small_impulsive_ladder):
        cache = DecompositionCache()
        report = check_passivity(small_impulsive_ladder, method="gare", cache=cache)
        assert not report.is_passive
        assert "admissible" in report.failure_reason
        # The refusal came from the cached chain analysis, not a fresh
        # spectral admissibility check.
        assert cache.stats.misses_for("chain_data") == 1
        assert cache.stats.misses_for("gare_state_space") == 0

    def test_gare_without_cache_matches_direct_test(self, small_impulsive_ladder):
        from repro.passivity import gare_passivity_test

        direct = gare_passivity_test(small_impulsive_ladder)
        engine = check_passivity(small_impulsive_ladder, method="gare")
        assert engine.is_passive == direct.is_passive is False


class TestCachedUncachedAgreement:
    """Acceptance: cached and uncached SHH verdicts agree on seed workloads."""

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: rc_line(5).system,
            lambda: rlc_ladder(4).system,
            lambda: impulsive_rlc_ladder(4, 1).system,
            lambda: impulsive_rlc_ladder(
                3, 1, series_port_inductor=0.5
            ).system,
            lambda: paper_benchmark_model(12, n_impulsive_stubs=1).system,
        ],
    )
    def test_shh_verdict_unchanged_by_caching(self, make_system):
        system = make_system()
        uncached = shh_passivity_test(system)
        cache = DecompositionCache()
        warm = check_passivity(system, method="shh", cache=cache)
        # A different method on the same system: it runs, and its profile
        # reads the chain analysis the SHH run cached.
        hot = check_passivity(system, method="auto", cache=cache)
        assert warm.is_passive == uncached.is_passive
        assert hot.is_passive == uncached.is_passive
        assert warm.failure_reason == uncached.failure_reason
        # The second run reused the chain analysis.
        assert cache.stats.hits_for("chain_data") >= 1
        assert cache.stats.misses_for("chain_data") == 1
        # A repeat of the SHH call is answered by its cached verdict.
        again = check_passivity(system, method="shh", cache=cache)
        assert again.diagnostics["engine"]["verdict_cached"] is True
        assert again.diagnostics["engine"]["factorizations"] == 0
        assert again.is_passive == uncached.is_passive
        assert again.failure_reason == uncached.failure_reason


class TestBatchCacheAcceptance:
    """Acceptance: a cached sweep over the Table-1 order grid performs strictly
    fewer Weierstrass/chain-data computations than methods x systems."""

    def test_sweep_shares_decompositions(self):
        orders = (12, 16, 20)
        systems = [
            paper_benchmark_model(order, n_impulsive_stubs=1).system
            for order in orders
        ]
        methods = ("auto", "proposed", "weierstrass")
        runner = BatchRunner(backend="serial", cache=DecompositionCache())
        outcome = runner.run(systems, methods=methods)
        assert all(r.is_passive for r in outcome.results)

        stats = outcome.cache_stats
        n_expensive = stats.misses_for("chain_data") + stats.misses_for(
            "weierstrass_form"
        )
        assert n_expensive < len(methods) * len(systems)
        assert stats.hits_for("chain_data") > 0
