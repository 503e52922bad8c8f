"""Property-based tests (hypothesis) for the structured linear-algebra kernel."""

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.hamiltonian import (
    hamiltonian_part,
    is_hamiltonian,
    is_skew_hamiltonian,
    random_skew_hamiltonian,
    skew_hamiltonian_part,
    symplectic_identity,
)
from repro.linalg.lyapunov import solve_continuous_lyapunov
from repro.linalg.skew_hamiltonian_schur import pvl_decomposition
from repro.linalg.subspaces import (
    column_space,
    null_space,
    numerical_rank,
    orth_complement,
)
from repro.linalg.symplectic import is_orthogonal_symplectic

pytestmark = pytest.mark.property

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def square_matrices(max_dim=6):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=finite_floats)
    )


def rectangular_matrices(max_dim=7):
    return st.tuples(
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=1, max_value=max_dim),
    ).flatmap(lambda shape: arrays(np.float64, shape, elements=finite_floats))


@settings(max_examples=50, deadline=None)
@given(rectangular_matrices())
def test_rank_nullity_theorem(matrix):
    """rank + dim(kernel) == number of columns, for any matrix."""
    rank = numerical_rank(matrix)
    kernel = null_space(matrix)
    assert rank + kernel.shape[1] == matrix.shape[1]
    if kernel.shape[1]:
        assert np.max(np.abs(matrix @ kernel)) <= 1e-8 * max(1.0, np.max(np.abs(matrix)))


@settings(max_examples=50, deadline=None)
@given(rectangular_matrices())
def test_range_and_complement_decompose_ambient_space(matrix):
    rng_basis = column_space(matrix)
    complement = orth_complement(rng_basis, ambient_dim=matrix.shape[0])
    assert rng_basis.shape[1] + complement.shape[1] == matrix.shape[0]
    if rng_basis.shape[1] and complement.shape[1]:
        assert np.max(np.abs(rng_basis.T @ complement)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(square_matrices(max_dim=4), st.integers(min_value=1, max_value=4))
def test_hamiltonian_skew_hamiltonian_split_is_exact(block, half):
    """Every even-dimensional matrix splits uniquely into H + W parts."""
    n = 2 * half
    rng = np.random.default_rng(abs(hash(block.tobytes())) % (2**32))
    matrix = rng.standard_normal((n, n)) + (np.pad(block, ((0, n - block.shape[0]),
                                                           (0, n - block.shape[1])))
                                            if block.shape[0] <= n else np.zeros((n, n)))
    h_part = hamiltonian_part(matrix)
    w_part = skew_hamiltonian_part(matrix)
    np.testing.assert_allclose(h_part + w_part, matrix, atol=1e-9)
    assert is_hamiltonian(h_part)
    assert is_skew_hamiltonian(w_part)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_pvl_reduction_invariants(half, seed):
    """PVL: orthogonal symplectic U, block triangular form, spectrum preserved."""
    rng = np.random.default_rng(seed)
    a_block = rng.standard_normal((half, half))
    r_block = rng.standard_normal((half, half))
    q_block = rng.standard_normal((half, half))
    w = np.block(
        [
            [a_block, 0.5 * (r_block - r_block.T)],
            [0.5 * (q_block - q_block.T), a_block.T],
        ]
    )
    u, t = pvl_decomposition(w)
    assert is_orthogonal_symplectic(u)
    assert np.max(np.abs(t[half:, :half])) < 1e-9 * max(1.0, np.max(np.abs(w)))
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(w).real), np.sort(np.linalg.eigvals(t).real), atol=1e-6
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=70), st.integers(min_value=0, max_value=2**31 - 1))
def test_blocked_pvl_form_is_exact(half, seed):
    """Blocked PVL up to and across panel boundaries: exact zero pattern,
    orthogonal symplectic U and U^T W U = T to round-off."""
    rng = np.random.default_rng(seed)
    w = random_skew_hamiltonian(half, rng) * 10.0 ** rng.uniform(-3, 3)
    u, t = pvl_decomposition(w)
    eye, j = np.eye(2 * half), symplectic_identity(half)
    assert np.max(np.abs(u.T @ u - eye)) <= 1e-13
    assert np.max(np.abs(u.T @ j @ u - j)) <= 1e-13
    assert np.max(np.abs(u.T @ w @ u - t)) <= 1e-12 * np.max(np.abs(w)) * np.sqrt(half)
    assert not np.any(t[half:, :half])
    assert not np.any(np.tril(t[:half, :half], k=-2))
    assert np.array_equal(t[:half, half:], -t[:half, half:].T)
    assert np.array_equal(t[half:, half:], t[:half, :half].T)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_lyapunov_solution_properties(dim, seed):
    """For stable A and PSD Q the Lyapunov solution is symmetric PSD."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    a = a - (np.max(np.abs(np.linalg.eigvals(a).real)) + 0.5) * np.eye(dim)
    b = rng.standard_normal((dim, max(1, dim // 2)))
    q = b @ b.T
    y = solve_continuous_lyapunov(a, q)
    np.testing.assert_allclose(a @ y + y @ a.T + q, 0.0, atol=1e-7 * max(1.0, np.abs(q).max()))
    np.testing.assert_allclose(y, y.T, atol=1e-8)
    assert np.min(np.linalg.eigvalsh(0.5 * (y + y.T))) >= -1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_symplectic_identity_properties(half):
    j = symplectic_identity(half)
    np.testing.assert_allclose(j.T, -j)
    np.testing.assert_allclose(j @ j, -np.eye(2 * half))
    assert is_skew_hamiltonian(np.eye(2 * half))
