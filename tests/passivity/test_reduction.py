"""Tests for the structure-preserving Phi reductions (Sections 3.1-3.2)."""

import numpy as np
import pytest

from repro.config import DEFAULT_TOLERANCES
from repro.descriptor import DescriptorSystem, build_phi_realization, count_modes
from repro.exceptions import ReductionError, SingularPencilError
from repro.linalg.basics import is_skew_symmetric, is_symmetric
from repro.linalg.hamiltonian import is_hamiltonian, is_skew_hamiltonian
from repro.passivity import (
    remove_impulsive_modes,
    remove_nondynamic_modes,
    restore_shh_structure,
)
from repro.passivity.reduction import _safe_transfer_defect


class TestImpulsiveRemoval:
    def test_sm1_removal(self, sm1_system):
        phi = build_phi_realization(sm1_system)
        reduction = remove_impulsive_modes(phi)
        assert reduction.n_removed == 2
        assert reduction.unobservable_basis.shape[1] == 1
        # The reduced pencil is skew-symmetric / symmetric with B = C^T.
        assert is_skew_symmetric(reduction.system.e)
        assert is_symmetric(reduction.system.a)
        np.testing.assert_allclose(
            reduction.system.b, reduction.system.c.T, atol=1e-10
        )

    def test_transfer_preserved(self, mixed_passive_system):
        phi = build_phi_realization(mixed_passive_system)
        reduction = remove_impulsive_modes(phi)
        s0 = 0.7 + 1.3j
        np.testing.assert_allclose(
            reduction.system.evaluate(s0), phi.evaluate(s0), atol=1e-8
        )
        assert reduction.transfer_defect < 1e-8

    def test_probe_at_a_pole_gives_nan(self, mixed_passive_system):
        # Phi = G + G~ has poles at s = -1 and s = 1; the LU/gecon screen of
        # the probe refuses the same point DescriptorSystem.evaluate refuses.
        phi = build_phi_realization(mixed_passive_system)
        with pytest.raises(SingularPencilError):
            phi.to_descriptor().evaluate(1.0)
        reduction = remove_impulsive_modes(phi, probe_point=1.0)
        assert np.isnan(reduction.transfer_defect)

    def test_probe_errors_other_than_singularity_propagate(self, rng):
        # A port-count mismatch is a programming error, not an unevaluable probe.
        two_port, three_port = (
            DescriptorSystem(
                np.eye(3), -np.eye(3), rng.standard_normal((3, m)), rng.standard_normal((m, 3))
            )
            for m in (2, 3)
        )
        with pytest.raises(ValueError):
            _safe_transfer_defect(two_port, three_port, 0.5j, DEFAULT_TOLERANCES)

    def test_impulse_free_input_removes_nothing_but_rotates(self, small_rlc_ladder):
        phi = build_phi_realization(small_rlc_ladder)
        reduction = remove_impulsive_modes(phi)
        assert reduction.n_removed == 0
        assert reduction.system.order == phi.order
        assert is_skew_symmetric(reduction.system.e)
        assert is_symmetric(reduction.system.a)

    def test_reduced_system_is_impulse_free_for_passive_inputs(
        self, small_impulsive_ladder
    ):
        phi = build_phi_realization(small_impulsive_ladder)
        reduction = remove_impulsive_modes(phi)
        assert reduction.n_removed > 0
        assert count_modes(reduction.system).n_impulsive == 0

    def test_unobservable_directions_satisfy_definition(self, small_impulsive_ladder):
        phi = build_phi_realization(small_impulsive_ladder)
        reduction = remove_impulsive_modes(phi)
        z_ob = reduction.unobservable_basis
        assert z_ob.shape[1] >= 1
        np.testing.assert_allclose(phi.e_phi @ z_ob, 0.0, atol=1e-9)
        np.testing.assert_allclose(phi.c_phi @ z_ob, 0.0, atol=1e-9)

    def test_projectors_are_j_related(self, sm1_system):
        phi = build_phi_realization(sm1_system)
        reduction = remove_impulsive_modes(phi)
        np.testing.assert_allclose(
            reduction.left_projector, phi.j @ reduction.right_projector, atol=1e-12
        )


class TestNondynamicRemoval:
    def _reduced_phi(self, system):
        phi = build_phi_realization(system)
        return remove_impulsive_modes(phi).system

    def test_removes_all_kernel_directions(self, small_rlc_ladder):
        reduced = self._reduced_phi(small_rlc_ladder)
        result = remove_nondynamic_modes(reduced)
        expected_removed = reduced.order - np.linalg.matrix_rank(reduced.e)
        assert result.n_removed == expected_removed
        assert np.linalg.matrix_rank(result.system.e) == result.system.order

    def test_shared_svd_gives_the_same_reduction(self, small_impulsive_ladder):
        reduced = self._reduced_phi(small_impulsive_ladder)
        own = remove_nondynamic_modes(reduced)
        shared = remove_nondynamic_modes(reduced, e_svd=np.linalg.svd(reduced.e))
        assert shared.n_removed == own.n_removed > 0
        np.testing.assert_array_equal(shared.system.a, own.system.a)

    def test_transfer_preserved(self, index1_passive_system):
        reduced = self._reduced_phi(index1_passive_system)
        result = remove_nondynamic_modes(reduced)
        s0 = 0.4 + 0.8j
        np.testing.assert_allclose(
            result.system.evaluate(s0), reduced.evaluate(s0), atol=1e-9
        )

    def test_structure_preserved(self, small_impulsive_ladder):
        reduced = self._reduced_phi(small_impulsive_ladder)
        result = remove_nondynamic_modes(reduced)
        assert is_skew_symmetric(result.system.e)
        assert is_symmetric(result.system.a)
        np.testing.assert_allclose(result.system.b, result.system.c.T, atol=1e-9)

    def test_nonsingular_e_passthrough(self, rng):
        from repro.descriptor import DescriptorSystem

        e = np.array([[0.0, 2.0], [-2.0, 0.0]])
        a = np.eye(2)
        sys = DescriptorSystem(e, a, np.ones((2, 1)), np.ones((1, 2)))
        result = remove_nondynamic_modes(sys)
        assert result.n_removed == 0
        assert result.system is sys

    def test_impulsive_input_raises(self, s_squared_system):
        phi = build_phi_realization(s_squared_system)
        reduced = remove_impulsive_modes(phi).system
        # Phi of s^2 retains impulsive modes: the Schur-complement step must
        # refuse because A22 is singular.
        if count_modes(reduced).n_impulsive > 0:
            with pytest.raises(ReductionError):
                remove_nondynamic_modes(reduced)


class TestShhRestoration:
    def test_restored_pencil_is_shh(self, small_impulsive_ladder):
        phi = build_phi_realization(small_impulsive_ladder)
        reduced = remove_impulsive_modes(phi).system
        proper = remove_nondynamic_modes(reduced).system
        restoration = restore_shh_structure(proper)
        assert is_skew_hamiltonian(restoration.e_shh)
        assert is_hamiltonian(restoration.a_shh)
        # E is nonsingular after the nondynamic removal.
        assert np.linalg.matrix_rank(restoration.e_shh) == restoration.e_shh.shape[0]

    def test_transfer_preserved(self, small_rlc_ladder):
        phi = build_phi_realization(small_rlc_ladder)
        reduced = remove_impulsive_modes(phi).system
        proper = remove_nondynamic_modes(reduced).system
        restoration = restore_shh_structure(proper)
        s0 = 1.5j + 0.2
        np.testing.assert_allclose(
            restoration.to_descriptor().evaluate(s0), phi.evaluate(s0), atol=1e-8
        )

    def test_rejects_unstructured_input(self, rng):
        from repro.descriptor import DescriptorSystem

        sys = DescriptorSystem(
            rng.standard_normal((4, 4)),
            rng.standard_normal((4, 4)),
            rng.standard_normal((4, 1)),
            rng.standard_normal((1, 4)),
        )
        with pytest.raises(ReductionError):
            restore_shh_structure(sys)
