"""Tests for the Lyapunov / Sylvester / coupled generalized Sylvester solvers."""

import numpy as np
import pytest
import scipy.linalg

from repro.exceptions import DimensionError, ReductionError
from repro.linalg.basics import schur_eigenvalues
from repro.linalg.lyapunov import solve_continuous_lyapunov, solve_sylvester
from repro.linalg.sylvester import (
    block_diagonalize_pencil,
    solve_generalized_coupled_sylvester,
)


def _stable(rng, n):
    m = rng.standard_normal((n, n))
    return m - (np.abs(np.linalg.eigvals(m).real).max() + 0.5) * np.eye(n)


class TestSylvester:
    def test_residual_small(self, rng):
        a = _stable(rng, 6)
        b = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        c = rng.standard_normal((6, 4))
        x = solve_sylvester(a, b, c)
        np.testing.assert_allclose(a @ x + x @ b, c, atol=1e-9)

    def test_known_diagonal_solution(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        c = np.array([[4.0, 5.0], [5.0, 6.0]])
        x = solve_sylvester(a, b, c)
        expected = c / (np.array([[1.0], [2.0]]) + np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_real_inputs_give_real_solution(self, rng):
        x = solve_sylvester(_stable(rng, 5), _stable(rng, 3).T + 6 * np.eye(3),
                            rng.standard_normal((5, 3)))
        assert np.isrealobj(x)

    def test_singular_equation_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([-1.0, -5.0])  # shares eigenvalue with -A
        with pytest.raises(ReductionError):
            solve_sylvester(a, b, np.ones((2, 2)))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            solve_sylvester(np.eye(3), np.eye(2), np.ones((2, 3)))


class TestLyapunov:
    def test_residual_small(self, rng):
        a = _stable(rng, 7)
        q = rng.standard_normal((7, 7))
        q = q + q.T
        y = solve_continuous_lyapunov(a, q)
        np.testing.assert_allclose(a @ y + y @ a.T + q, 0.0, atol=1e-9)

    def test_symmetric_rhs_gives_symmetric_solution(self, rng):
        a = _stable(rng, 5)
        q = rng.standard_normal((5, 5))
        q = q @ q.T
        y = solve_continuous_lyapunov(a, q)
        np.testing.assert_allclose(y, y.T, atol=1e-9)

    def test_large_norm_rhs_exercises_trsyl_scale(self, rng):
        # Eigenvalue sums near -1e-3 and |Q| ~ 1e290: LAPACK rescales the
        # triangular solve (scale < 1) to avoid overflow; the solution
        # (|Y| ~ 1e293) is still representable and must be returned unscaled.
        a = _stable(rng, 6)
        a = 5e-4 * a / np.max(np.abs(np.linalg.eigvals(a).real))
        q = rng.standard_normal((6, 6))
        q = 1e290 * (q @ q.T)
        assert _trsyl_scale(a, q) < 1.0
        y = solve_continuous_lyapunov(a, q)
        assert np.all(np.isfinite(y))
        residual = a @ y + y @ a.T + q
        assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(q))
        assert np.max(np.abs(y - y.T)) <= 1e-9 * np.max(np.abs(y))

    def test_gramian_of_stable_system_is_psd(self, rng):
        a = _stable(rng, 5)
        b = rng.standard_normal((5, 2))
        gram = solve_continuous_lyapunov(a, b @ b.T)
        assert np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))) >= -1e-10

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            solve_continuous_lyapunov(np.eye(3), np.eye(2))


def _rotation_blocks(rng, n_pairs, decay=0.5):
    """Real stable matrix whose real Schur form has ``n_pairs`` 2x2 blocks."""
    blocks = [
        np.array([[-decay * (k + 1), 1.0 + k], [-(1.0 + k), -decay * (k + 1)]])
        for k in range(n_pairs)
    ]
    q, _ = np.linalg.qr(rng.standard_normal((2 * n_pairs, 2 * n_pairs)))
    return q @ scipy.linalg.block_diag(*blocks) @ q.T


def _trsyl_scale(a, q):
    """The ``scale`` LAPACK returns for the Lyapunov equation of ``(a, q)``."""
    t, u = scipy.linalg.schur(a, output="real")
    _, scale, _ = scipy.linalg.lapack.dtrsyl(t, t, -(u.T @ q @ u), tranb="T")
    return scale


class TestTrsylKernel:
    def test_schur_eigenvalues_reads_two_by_two_blocks(self, rng):
        a = _rotation_blocks(rng, 3)
        t, _ = scipy.linalg.schur(a, output="real")
        assert np.count_nonzero(np.diag(t, -1)) == 3
        np.testing.assert_allclose(
            np.sort_complex(schur_eigenvalues(t)),
            np.sort_complex(np.linalg.eigvals(a)),
            atol=1e-12,
        )

    def test_lyapunov_with_two_by_two_blocks(self, rng):
        a = _rotation_blocks(rng, 4) + 0.1 * np.diag(rng.standard_normal(8))
        q = rng.standard_normal((8, 8))
        y = solve_continuous_lyapunov(a, q)
        assert np.isrealobj(y)
        np.testing.assert_allclose(a @ y + y @ a.T + q, 0.0, atol=1e-12)
        reference = scipy.linalg.solve_continuous_lyapunov(a, -q)
        np.testing.assert_allclose(y, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_sylvester_with_two_by_two_blocks(self, rng):
        a = _rotation_blocks(rng, 2)
        b = -_rotation_blocks(rng, 3, decay=0.3)
        c = rng.standard_normal((4, 6))
        x = solve_sylvester(a, b, c)
        assert np.isrealobj(x)
        np.testing.assert_allclose(a @ x + x @ b, c, atol=1e-12)

    def test_complex_input(self, rng):
        a = _stable(rng, 5) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((3, 3)) + 4 * np.eye(3) + 1j * np.eye(3)
        c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        x = solve_sylvester(a, b, c)
        assert np.iscomplexobj(x)
        np.testing.assert_allclose(a @ x + x @ b, c, atol=1e-10)
        q = c[:3, :3] + c[:3, :3].conj().T
        y = solve_continuous_lyapunov(a[:3, :3] - 5 * np.eye(3), q)
        np.testing.assert_allclose(
            (a[:3, :3] - 5 * np.eye(3)) @ y + y @ (a[:3, :3] - 5 * np.eye(3)).T + q,
            0.0,
            atol=1e-10,
        )

    def test_shared_eigenvalue_of_two_by_two_blocks_rejected(self):
        # A has eigenvalues +-i, so -A^T shares them: singular in both forms.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ReductionError):
            solve_sylvester(a, a, np.ones((2, 2)))
        with pytest.raises(ReductionError):
            solve_continuous_lyapunov(a, np.eye(2))


class TestCoupledGeneralizedSylvester:
    def test_residuals(self, rng):
        n1, n2 = 6, 3
        a11 = rng.standard_normal((n1, n1))
        a22 = rng.standard_normal((n2, n2)) + 6 * np.eye(n2)
        b11 = rng.standard_normal((n1, n1))
        b22 = rng.standard_normal((n2, n2))
        a12 = rng.standard_normal((n1, n2))
        b12 = rng.standard_normal((n1, n2))
        r, l = solve_generalized_coupled_sylvester(a11, a22, a12, b11, b22, b12)
        np.testing.assert_allclose(a11 @ r - l @ a22, -a12, atol=1e-8)
        np.testing.assert_allclose(b11 @ r - l @ b22, -b12, atol=1e-8)

    def test_empty_blocks(self):
        r, l = solve_generalized_coupled_sylvester(
            np.zeros((0, 0)), np.eye(2), np.zeros((0, 2)),
            np.zeros((0, 0)), np.eye(2), np.zeros((0, 2)),
        )
        assert r.shape == (0, 2)
        assert l.shape == (0, 2)

    def test_block_diagonalize_pencil(self, rng):
        # Build an upper block-triangular pencil with disjoint spectra:
        # leading block has finite eigenvalues, trailing block infinite ones.
        a = np.triu(rng.standard_normal((6, 6))) + 4 * np.eye(6)
        e = np.triu(rng.standard_normal((6, 6)))
        e[:3, :3] += 5 * np.eye(3)
        e[3:, 3:] = np.triu(rng.standard_normal((3, 3)), k=1)  # nilpotent block
        left, right = block_diagonalize_pencil(a, e, split=3)
        a_new = left @ a @ right
        e_new = left @ e @ right
        np.testing.assert_allclose(a_new[:3, 3:], 0.0, atol=1e-8)
        np.testing.assert_allclose(e_new[:3, 3:], 0.0, atol=1e-8)
        # The transformations are unit upper triangular (perfectly conditioned
        # to apply) and leave the diagonal blocks untouched.
        np.testing.assert_allclose(a_new[:3, :3], a[:3, :3], atol=1e-10)
        np.testing.assert_allclose(e_new[3:, 3:], e[3:, 3:], atol=1e-10)
