"""Tests for the parametric circuit generators."""

import numpy as np
import pytest

from repro.circuits import (
    coupled_line_bus,
    feedthrough_perturbation,
    impulsive_rlc_ladder,
    negative_resistor_perturbation,
    paper_benchmark_model,
    perturb_system,
    random_coupled_bus,
    random_passive_descriptor,
    rc_grid,
    rc_line,
    rlc_grid,
    rlc_grid_corners,
    rlc_ladder,
)
from repro.descriptor import count_modes, first_markov_parameter
from repro.exceptions import DimensionError


class TestLadders:
    def test_rlc_ladder_order_formula(self):
        for n in (1, 3, 6):
            assert rlc_ladder(n).system.order == 3 * n + 1

    def test_rlc_ladder_is_stable_regular_descriptor(self):
        sys = rlc_ladder(5).system
        modes = count_modes(sys)
        assert modes.is_stable
        assert modes.n_nondynamic > 0  # singular E: true descriptor system
        assert modes.n_impulsive == 0

    def test_rc_line_is_impulse_free(self):
        modes = count_modes(rc_line(7).system)
        assert modes.n_impulsive == 0
        assert modes.is_stable

    def test_impulsive_ladder_has_impulsive_modes(self):
        modes = count_modes(impulsive_rlc_ladder(4, 2).system)
        assert modes.n_impulsive >= 2

    def test_port_inductor_controls_m1(self):
        with_l = impulsive_rlc_ladder(3, 0, series_port_inductor=0.7).system
        np.testing.assert_allclose(first_markov_parameter(with_l), [[0.7]], atol=1e-8)
        without_l = impulsive_rlc_ladder(3, 1, series_port_inductor=None).system
        np.testing.assert_allclose(first_markov_parameter(without_l), [[0.0]], atol=1e-8)

    def test_stub_count_validation(self):
        with pytest.raises(DimensionError):
            impulsive_rlc_ladder(2, 5)

    def test_invalid_section_count(self):
        with pytest.raises(DimensionError):
            rlc_ladder(0)


class TestPaperBenchmarkModel:
    @pytest.mark.parametrize("order", [12, 20, 35, 40, 61, 100])
    def test_exact_order(self, order):
        model = paper_benchmark_model(order)
        assert model.system.order == order

    def test_model_is_passive_workload(self):
        sys = paper_benchmark_model(30).system
        modes = count_modes(sys)
        assert modes.is_stable
        assert modes.n_impulsive >= 1

    def test_minimum_order_enforced(self):
        with pytest.raises(DimensionError):
            paper_benchmark_model(8)

    def test_seed_changes_padding_values_not_structure(self):
        a = paper_benchmark_model(25, seed=0).system
        b = paper_benchmark_model(25, seed=1).system
        assert a.order == b.order
        assert not np.allclose(a.a, b.a)


class TestRandomPassiveDescriptor:
    def test_structural_properties(self):
        sys = random_passive_descriptor(12, n_ports=3, rank_deficiency=4, seed=2)
        assert sys.order == 12
        assert sys.n_inputs == 3
        assert sys.rank_e() == 8
        np.testing.assert_allclose(sys.c, sys.b.T)
        assert count_modes(sys).is_stable

    def test_rank_deficiency_validation(self):
        with pytest.raises(DimensionError):
            random_passive_descriptor(5, rank_deficiency=5)

    def test_reproducible_with_seed(self):
        a = random_passive_descriptor(8, seed=11)
        b = random_passive_descriptor(8, seed=11)
        np.testing.assert_allclose(a.a, b.a)


class TestPerturbations:
    def test_negative_resistor_changes_only_a(self):
        model = rlc_ladder(3)
        bad = negative_resistor_perturbation(model, 0.3, node="n1")
        np.testing.assert_allclose(bad.e, model.system.e)
        assert not np.allclose(bad.a, model.system.a)

    def test_negative_resistor_unknown_node_rejected(self):
        with pytest.raises(DimensionError):
            negative_resistor_perturbation(rlc_ladder(2), 0.1, node="does_not_exist")

    def test_feedthrough_perturbation_shifts_response(self, small_rlc_ladder):
        bad = feedthrough_perturbation(small_rlc_ladder, 0.25)
        omega = 1.0
        np.testing.assert_allclose(
            bad.evaluate(1j * omega),
            small_rlc_ladder.evaluate(1j * omega) - 0.25 * np.eye(1),
            atol=1e-12,
        )


class TestGridGenerators:
    def test_rc_grid_shape_and_structure(self):
        model = rc_grid(4, 5, n_ports=2, sparse=True)
        system = model.system
        assert system.order == 20
        assert system.n_inputs == 2
        assert system.is_sparse
        # Port corners carry no capacitor: E stays singular (descriptor form).
        assert system.rank_e() < system.order

    def test_rc_grid_validation(self):
        with pytest.raises(DimensionError):
            rc_grid(1, 5)
        with pytest.raises(DimensionError):
            rc_grid(3, 3, n_ports=5)

    def test_rlc_grid_counts_inductor_states(self):
        rows, cols = 3, 4
        model = rlc_grid(rows, cols, sparse=True)
        assert model.system.order == rows * cols + (rows - 1) * cols
        assert len(model.inductor_index) == (rows - 1) * cols

    def test_grids_are_passive(self):
        from repro.passivity import shh_passivity_test

        for system in (
            rc_grid(3, 4, sparse=False).system,
            rlc_grid(3, 3, sparse=False).system,
        ):
            assert shh_passivity_test(system).is_passive


class TestCoupledLineBus:
    def test_shape_and_ports(self):
        model = coupled_line_bus(3, 2, sparse=True)
        assert model.system.n_inputs == 3
        assert model.system.order == 3 * (3 * 2 + 1)

    def test_coupling_makes_e_nondiagonal(self):
        system = coupled_line_bus(2, 2, sparse=True).system
        nodal = system.sparse_e.toarray()
        off_diagonal = nodal - np.diag(np.diag(nodal))
        assert np.any(off_diagonal != 0.0)

    def test_validation(self):
        with pytest.raises(DimensionError):
            coupled_line_bus(1, 3)
        with pytest.raises(DimensionError):
            coupled_line_bus(2, 0)


class TestRandomCoupledBus:
    def test_reproducible_and_passive(self):
        from repro.passivity import shh_passivity_test

        first = random_coupled_bus(15, seed=42, sparse=True)
        second = random_coupled_bus(15, seed=42, sparse=True)
        assert np.array_equal(
            first.system.sparse_a.toarray(), second.system.sparse_a.toarray()
        )
        assert shh_passivity_test(first.system).is_passive

    def test_inductive_chords_close_no_inductor_loop(self):
        # Seed 3257 draws the same node pair for both inductive chords; two
        # parallel inductors would form a lossless loop with a pole at s = 0.
        from repro.passivity import shh_passivity_test

        model = random_coupled_bus(
            13, n_ports=2, inductor_fraction=0.375, seed=3257, sparse=False
        )
        assert len(model.inductor_index) == 1
        assert model.system.is_stable()
        assert shh_passivity_test(model.system).is_passive

    def test_validation(self):
        with pytest.raises(DimensionError):
            random_coupled_bus(1)
        with pytest.raises(DimensionError):
            random_coupled_bus(5, n_ports=9)


class TestPerturbedFamilies:
    def test_pattern_selects_which_matrices_move(self):
        base = rlc_grid(3, 3, sparse=False).system
        p = perturb_system(base, 1e-3, seed=4, pattern="a")
        assert not np.array_equal(p.a, base.a)
        for name in ("e", "b", "c", "d"):
            np.testing.assert_array_equal(getattr(p, name), getattr(base, name))
        everything = perturb_system(base, 1e-3, seed=4, pattern="all")
        assert not np.array_equal(everything.e, base.e)
        assert not np.array_equal(everything.b, base.b)

    def test_perturbation_preserves_the_sparsity_pattern(self):
        base = rlc_grid(3, 3, sparse=False).system
        p = perturb_system(base, 1e-2, seed=1, pattern="ea")
        np.testing.assert_array_equal(p.e != 0, base.e != 0)
        np.testing.assert_array_equal(p.a != 0, base.a != 0)

    def test_sparse_systems_stay_sparse(self):
        base = rlc_grid(3, 3, sparse=True).system
        assert base.is_sparse
        p = perturb_system(base, 1e-3, seed=2, pattern="ea")
        assert p.is_sparse
        # CSR structure untouched: only the stored values move.
        np.testing.assert_array_equal(p.sparse_a.indices, base.sparse_a.indices)
        np.testing.assert_array_equal(p.sparse_a.indptr, base.sparse_a.indptr)
        assert not np.array_equal(p.sparse_a.data, base.sparse_a.data)

    def test_distinct_seeds_give_distinct_corners(self):
        base = rlc_grid(3, 3, sparse=False).system
        one = perturb_system(base, 1e-3, seed=1)
        two = perturb_system(base, 1e-3, seed=2)
        assert not np.array_equal(one.a, two.a)

    def test_bad_pattern_rejected(self):
        base = rlc_grid(3, 3, sparse=False).system
        with pytest.raises(DimensionError):
            perturb_system(base, 1e-3, pattern="xyz")
        with pytest.raises(DimensionError):
            perturb_system(base, 1e-3, pattern="")

    def test_corner_family_shape_and_nominal(self):
        family = rlc_grid_corners(3, 4, n_corners=5, scale=2e-4, seed=0)
        assert len(family) == 5
        nominal = family[0]
        # The damped sweep defaults give the family its passivity headroom.
        reference = rlc_grid(
            3, 4, series_resistance=0.8, shunt_conductance=0.1, sparse=False
        ).system
        np.testing.assert_array_equal(nominal.a, reference.a)
        for corner in family[1:]:
            assert corner.order == nominal.order
            assert not np.array_equal(corner.a, nominal.a)

    def test_corner_family_is_reproducible(self):
        one = rlc_grid_corners(3, 3, n_corners=4, scale=1e-3, seed=42)
        two = rlc_grid_corners(3, 3, n_corners=4, scale=1e-3, seed=42)
        for left, right in zip(one, two):
            np.testing.assert_array_equal(left.a, right.a)
