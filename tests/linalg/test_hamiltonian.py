"""Tests for repro.linalg.hamiltonian."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, StructureError
from repro.linalg.hamiltonian import (
    eigenvalue_pairing_defect,
    hamiltonian_blocks,
    hamiltonian_part,
    is_hamiltonian,
    is_shh_pencil,
    is_skew_hamiltonian,
    j_times,
    make_hamiltonian,
    make_skew_hamiltonian,
    random_hamiltonian,
    random_skew_hamiltonian,
    skew_hamiltonian_blocks,
    skew_hamiltonian_part,
    symplectic_identity,
)


class TestSymplecticIdentity:
    def test_structure(self):
        j = symplectic_identity(2)
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [-1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(j, expected)

    def test_j_squared_is_minus_identity(self):
        j = symplectic_identity(3)
        np.testing.assert_allclose(j @ j, -np.eye(6))

    def test_negative_dimension_rejected(self):
        with pytest.raises(DimensionError):
            symplectic_identity(-1)

    def test_j_times_equals_the_dense_products(self, rng):
        j = symplectic_identity(3)
        m = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(j_times(m), j @ m)
        square = rng.standard_normal((6, 6))
        np.testing.assert_array_equal(j_times(square.T).T, -(square @ j))


class TestStructurePredicates:
    def test_random_hamiltonian_satisfies_definition(self, rng):
        h = random_hamiltonian(4, rng)
        j = symplectic_identity(4)
        np.testing.assert_allclose(j @ h, (j @ h).T, atol=1e-12)
        assert is_hamiltonian(h)
        assert not is_skew_hamiltonian(h + np.eye(8))

    def test_random_skew_hamiltonian_satisfies_definition(self, rng):
        w = random_skew_hamiltonian(4, rng)
        j = symplectic_identity(4)
        np.testing.assert_allclose(j @ w, -(j @ w).T, atol=1e-12)
        assert is_skew_hamiltonian(w)

    def test_identity_is_skew_hamiltonian_not_hamiltonian(self):
        assert is_skew_hamiltonian(np.eye(6))
        assert not is_hamiltonian(np.eye(6))

    def test_odd_dimension_is_never_structured(self):
        assert not is_hamiltonian(np.eye(3))
        assert not is_skew_hamiltonian(np.eye(3))

    def test_shh_pencil_predicate(self, rng):
        w = random_skew_hamiltonian(3, rng)
        h = random_hamiltonian(3, rng)
        assert is_shh_pencil(w, h)
        assert not is_shh_pencil(h, w)


class TestBlockAccessors:
    def test_round_trip_hamiltonian(self, rng):
        a = rng.standard_normal((3, 3))
        r = rng.standard_normal((3, 3))
        r = r + r.T
        q = rng.standard_normal((3, 3))
        q = q + q.T
        h = make_hamiltonian(a, r, q)
        a2, r2, q2 = hamiltonian_blocks(h)
        np.testing.assert_allclose(a2, a)
        np.testing.assert_allclose(r2, r)
        np.testing.assert_allclose(q2, q)
        np.testing.assert_allclose(h[3:, 3:], -a.T)

    def test_round_trip_skew_hamiltonian(self, rng):
        a = rng.standard_normal((2, 2))
        r = rng.standard_normal((2, 2))
        r = r - r.T
        q = rng.standard_normal((2, 2))
        q = q - q.T
        w = make_skew_hamiltonian(a, r, q)
        a2, r2, q2 = skew_hamiltonian_blocks(w)
        np.testing.assert_allclose(a2, a)
        np.testing.assert_allclose(w[2:, 2:], a.T)

    def test_make_hamiltonian_rejects_nonsymmetric_blocks(self, rng):
        a = rng.standard_normal((3, 3))
        bad = rng.standard_normal((3, 3))
        with pytest.raises(StructureError):
            make_hamiltonian(a, bad, np.eye(3))

    def test_make_skew_hamiltonian_rejects_symmetric_blocks(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(StructureError):
            make_skew_hamiltonian(a, np.eye(3), np.zeros((3, 3)))

    def test_mismatched_block_shapes_rejected(self):
        with pytest.raises(DimensionError):
            make_hamiltonian(np.eye(2), np.eye(3), np.eye(2))


class TestDecompositionAndSpectrum:
    def test_every_matrix_splits_into_h_plus_w(self, rng):
        m = rng.standard_normal((6, 6))
        h = hamiltonian_part(m)
        w = skew_hamiltonian_part(m)
        np.testing.assert_allclose(h + w, m, atol=1e-12)
        assert is_hamiltonian(h)
        assert is_skew_hamiltonian(w)

    def test_hamiltonian_part_of_hamiltonian_is_itself(self, rng):
        h = random_hamiltonian(3, rng)
        np.testing.assert_allclose(hamiltonian_part(h), h, atol=1e-12)

    def test_hamiltonian_spectrum_is_plus_minus_symmetric(self, rng):
        h = random_hamiltonian(5, rng)
        assert eigenvalue_pairing_defect(h) < 1e-8

    def test_generic_matrix_breaks_pairing(self, rng):
        m = rng.standard_normal((6, 6)) + 3 * np.diag(np.arange(6, dtype=float))
        assert eigenvalue_pairing_defect(m) > 1e-3
