"""Symplectic and orthogonal-symplectic matrices.

Orthogonal symplectic similarity transformations are the work-horse of the
structure-preserving reductions in the paper: they keep Hamiltonian matrices
Hamiltonian and skew-Hamiltonian matrices skew-Hamiltonian (Section 3, quick
fact 3).  This module provides predicates, random generators (for tests) and
the two elementary orthogonal symplectic transformation families that the
PVL reduction is built from:

* ``diag(P, P)`` with ``P`` a Householder reflector ("double" reflectors),
* symplectic Givens rotations acting in the ``(k, n + k)`` plane.

The appliers below act on a full ``2n x 2n`` matrix, one transformation at a
time.  :func:`repro.linalg.pvl_decomposition` applies the same
transformations blocked, to the stored blocks of a skew-Hamiltonian matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError
from repro.linalg.basics import as_square_array, matrix_scale
from repro.linalg.elementary import (
    apply_givens_left,
    apply_givens_right,
    apply_householder_left,
    apply_householder_right,
    givens_rotation,
    householder_vector,
)
from repro.linalg.hamiltonian import check_even_dimension, symplectic_identity

__all__ = [
    "is_symplectic",
    "is_orthogonal",
    "is_orthogonal_symplectic",
    "random_orthogonal_symplectic",
    "apply_double_householder_similarity",
    "apply_symplectic_givens_similarity",
    "symplectic_from_householder",
    "symplectic_from_givens",
]


def is_orthogonal(matrix: np.ndarray, tol: Optional[Tolerances] = None) -> bool:
    """Check ``M^T M = I``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    defect = np.max(np.abs(arr.T @ arr - np.eye(arr.shape[0])))
    return bool(defect <= tol.structure_rtol * matrix_scale(arr) ** 2)


def is_symplectic(matrix: np.ndarray, tol: Optional[Tolerances] = None) -> bool:
    """Check the symplectic property ``S^T J S = J``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.shape[0] % 2 != 0:
        return False
    j = symplectic_identity(arr.shape[0] // 2)
    defect = np.max(np.abs(arr.T @ j @ arr - j))
    return bool(defect <= tol.structure_rtol * matrix_scale(arr) ** 2)


def is_orthogonal_symplectic(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check that ``matrix`` is both orthogonal and symplectic."""
    return is_orthogonal(matrix, tol) and is_symplectic(matrix, tol)


def random_orthogonal_symplectic(
    half_dim: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Random orthogonal symplectic matrix of size ``2 * half_dim``.

    Uses the standard parameterization ``[[U1, U2], [-U2, U1]]`` where
    ``U1 + i U2`` is a random unitary matrix, which is simultaneously
    orthogonal and symplectic.
    """
    rng = rng or np.random.default_rng()
    complex_matrix = rng.standard_normal((half_dim, half_dim)) + 1j * rng.standard_normal(
        (half_dim, half_dim)
    )
    q_unitary, _ = np.linalg.qr(complex_matrix)
    u1 = q_unitary.real
    u2 = q_unitary.imag
    return np.block([[u1, u2], [-u2, u1]])


def symplectic_from_householder(
    half_dim: int, v: np.ndarray, beta: float, start: int
) -> np.ndarray:
    """Dense ``diag(P, P)`` matrix with ``P = I - beta v v^T`` acting on indices ``start:``.

    Mostly a testing / reference helper; the PVL reduction applies the
    transformation in factored form instead.
    """
    p_matrix = np.eye(half_dim)
    if beta != 0.0:
        idx = np.arange(start, start + v.size)
        p_matrix[np.ix_(idx, idx)] -= beta * np.outer(v, v)
    return np.block(
        [
            [p_matrix, np.zeros((half_dim, half_dim))],
            [np.zeros((half_dim, half_dim)), p_matrix],
        ]
    )


def symplectic_from_givens(half_dim: int, c: float, s: float, k: int) -> np.ndarray:
    """Dense symplectic Givens rotation acting in the ``(k, half_dim + k)`` plane."""
    if not 0 <= k < half_dim:
        raise DimensionError("rotation index outside the upper half")
    g_matrix = np.eye(2 * half_dim)
    g_matrix[k, k] = c
    g_matrix[k, half_dim + k] = s
    g_matrix[half_dim + k, k] = -s
    g_matrix[half_dim + k, half_dim + k] = c
    return g_matrix


def apply_double_householder_similarity(
    matrix: np.ndarray,
    accumulator: Optional[np.ndarray],
    v: np.ndarray,
    beta: float,
    start: int,
) -> None:
    """In-place orthogonal symplectic similarity by ``diag(P, P)``.

    ``P = I - beta v v^T`` acts on the index window ``start : start + len(v)``
    of both the upper and the lower half.  ``accumulator`` (if given) collects
    the product of all applied transformations (multiplied from the right),
    so that after the reduction ``accumulator^T W_original accumulator`` equals
    the reduced matrix.  Both windows are contiguous, so every update runs in
    place on a slice view.
    """
    if beta == 0.0:
        return
    half_dim = check_even_dimension(matrix)
    windows = (
        slice(start, start + v.size),
        slice(half_dim + start, half_dim + start + v.size),
    )
    for rows in windows:
        apply_householder_left(matrix, v, beta, rows)
    for target in (matrix,) if accumulator is None else (matrix, accumulator):
        for cols in windows:
            apply_householder_right(target, v, beta, cols)


def apply_symplectic_givens_similarity(
    matrix: np.ndarray,
    accumulator: Optional[np.ndarray],
    c: float,
    s: float,
    k: int,
) -> None:
    """In-place orthogonal symplectic similarity by a Givens rotation in plane ``(k, n+k)``."""
    half_dim = check_even_dimension(matrix)
    apply_givens_left(matrix, c, s, k, half_dim + k)
    apply_givens_right(matrix, c, s, k, half_dim + k)
    if accumulator is not None:
        apply_givens_right(accumulator, c, s, k, half_dim + k)
