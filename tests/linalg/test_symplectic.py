"""Tests for repro.linalg.symplectic and repro.linalg.elementary."""

import numpy as np
import pytest

from repro.linalg.elementary import (
    apply_givens_left,
    apply_givens_right,
    apply_householder_left,
    apply_householder_right,
    givens_rotation,
    householder_vector,
)
from repro.linalg.hamiltonian import (
    is_hamiltonian,
    is_skew_hamiltonian,
    random_hamiltonian,
    random_skew_hamiltonian,
    symplectic_identity,
)
from repro.linalg.symplectic import (
    apply_double_householder_similarity,
    apply_symplectic_givens_similarity,
    is_orthogonal,
    is_orthogonal_symplectic,
    is_symplectic,
    random_orthogonal_symplectic,
    symplectic_from_givens,
    symplectic_from_householder,
)


class TestElementaryTransformations:
    def test_householder_zeroes_tail(self, rng):
        x = rng.standard_normal(6)
        v, beta = householder_vector(x)
        h = np.eye(6) - beta * np.outer(v, v)
        y = h @ x
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-12)
        assert abs(abs(y[0]) - np.linalg.norm(x)) < 1e-12

    def test_householder_on_aligned_vector_is_identity(self):
        x = np.array([3.0, 0.0, 0.0])
        _, beta = householder_vector(x)
        assert beta == 0.0

    def test_householder_application_matches_dense(self, rng):
        m = rng.standard_normal((5, 5))
        x = rng.standard_normal(3)
        v, beta = householder_vector(x)
        h = np.eye(3) - beta * np.outer(v, v)
        rows = slice(1, 4)
        expected = m.copy()
        expected[rows, :] = h @ expected[rows, :]
        actual = m.copy()
        apply_householder_left(actual, v, beta, rows)
        np.testing.assert_allclose(actual, expected, atol=1e-12)
        expected_cols = m.copy()
        expected_cols[:, rows] = expected_cols[:, rows] @ h
        actual_cols = m.copy()
        apply_householder_right(actual_cols, v, beta, rows)
        np.testing.assert_allclose(actual_cols, expected_cols, atol=1e-12)

    def test_householder_application_refuses_index_arrays(self, rng):
        # Fancy indexing copies, so an in-place update through it would be lost.
        m = rng.standard_normal((5, 5))
        v, beta = householder_vector(rng.standard_normal(3))
        for apply in (apply_householder_left, apply_householder_right):
            with pytest.raises(TypeError):
                apply(m, v, beta, np.arange(1, 4))

    def test_givens_zeroes_second_component(self):
        c, s = givens_rotation(3.0, 4.0)
        rotation = np.array([[c, s], [-s, c]])
        y = rotation @ np.array([3.0, 4.0])
        assert abs(y[1]) < 1e-12
        assert abs(y[0] - 5.0) < 1e-12

    def test_givens_similarity_is_orthogonal(self, rng):
        m = rng.standard_normal((4, 4))
        original_eigs = np.sort_complex(np.linalg.eigvals(m))
        c, s = givens_rotation(1.0, 2.0)
        work = m.copy()
        apply_givens_left(work, c, s, 0, 2)
        apply_givens_right(work, c, s, 0, 2)
        np.testing.assert_allclose(
            np.sort_complex(np.linalg.eigvals(work)), original_eigs, atol=1e-10
        )


class TestSymplecticPredicates:
    def test_symplectic_identity_matrix_is_symplectic(self):
        j = symplectic_identity(3)
        assert is_symplectic(j)
        assert is_orthogonal(j)

    def test_random_orthogonal_symplectic(self, rng):
        q = random_orthogonal_symplectic(4, rng)
        assert is_orthogonal_symplectic(q)

    def test_plain_orthogonal_is_not_necessarily_symplectic(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        # A generic orthogonal matrix of even size is not symplectic.
        assert not is_symplectic(q) or is_orthogonal_symplectic(q)

    def test_symplectic_from_givens_is_orthogonal_symplectic(self):
        c, s = givens_rotation(1.0, 1.0)
        g = symplectic_from_givens(3, c, s, 1)
        assert is_orthogonal_symplectic(g)


class TestStructurePreservation:
    def test_double_householder_preserves_structure(self, rng):
        w = random_skew_hamiltonian(4, rng)
        h = random_hamiltonian(4, rng)
        v, beta = householder_vector(rng.standard_normal(3))
        acc = np.eye(8)
        for matrix, checker in ((w.copy(), is_skew_hamiltonian), (h.copy(), is_hamiltonian)):
            work = matrix.copy()
            apply_double_householder_similarity(work, acc, v, beta, 1)
            assert checker(work)

    def test_symplectic_givens_preserves_structure_and_accumulates(self, rng):
        w = random_skew_hamiltonian(3, rng)
        work = w.copy()
        acc = np.eye(6)
        c, s = givens_rotation(0.3, -1.2)
        apply_symplectic_givens_similarity(work, acc, c, s, 1)
        assert is_skew_hamiltonian(work)
        assert is_orthogonal_symplectic(acc)
        np.testing.assert_allclose(acc.T @ w @ acc, work, atol=1e-12)

    def test_accumulator_consistency_for_householder(self, rng):
        w = random_skew_hamiltonian(4, rng)
        work = w.copy()
        acc = np.eye(8)
        v, beta = householder_vector(rng.standard_normal(3))
        apply_double_householder_similarity(work, acc, v, beta, 1)
        np.testing.assert_allclose(acc.T @ w @ acc, work, atol=1e-12)


class TestSimilaritiesMatchDenseReferences:
    """The in-place slice updates equal products with the dense matrices."""

    HALF = 7

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("start,size", [(0, 7), (1, 4), (3, 4), (5, 2)])
    def test_double_householder(self, rng, order, start, size):
        # (3, 4) and (5, 2) end at the last index of each half.
        w = np.array(random_skew_hamiltonian(self.HALF, rng), order=order)
        acc0 = np.array(random_orthogonal_symplectic(self.HALF, rng), order=order)
        v, beta = householder_vector(rng.standard_normal(size))
        assert beta != 0.0
        p = symplectic_from_householder(self.HALF, v, beta, start)
        work, acc = w.copy(order="K"), acc0.copy(order="K")
        apply_double_householder_similarity(work, acc, v, beta, start)
        np.testing.assert_allclose(work, p @ w @ p, rtol=0, atol=1e-13)
        np.testing.assert_allclose(acc, acc0 @ p, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_symplectic_givens(self, rng, k):
        w = random_skew_hamiltonian(self.HALF, rng)
        acc0 = np.asfortranarray(random_orthogonal_symplectic(self.HALF, rng))
        c, s = givens_rotation(*rng.standard_normal(2))
        g = symplectic_from_givens(self.HALF, c, s, k)
        work, acc = w.copy(), acc0.copy(order="K")
        apply_symplectic_givens_similarity(work, acc, c, s, k)
        np.testing.assert_allclose(work, g @ w @ g.T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(acc, acc0 @ g.T, rtol=0, atol=1e-13)
