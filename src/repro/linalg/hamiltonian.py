"""Hamiltonian and skew-Hamiltonian structure utilities.

The paper's central object is the skew-Hamiltonian/Hamiltonian (SHH) matrix
pencil ``lambda * E_phi - A_phi`` obtained when realizing
``Phi(s) = G(s) + G~(s)``.  This module provides:

* the symplectic unit matrix ``J = [[0, I], [-I, 0]]``,
* structure predicates (:func:`is_hamiltonian`, :func:`is_skew_hamiltonian`,
  :func:`is_shh_pencil`),
* block accessors and random generators used throughout the test suite,
* helpers describing the eigenvalue symmetry of Hamiltonian matrices
  (quadruplets ``(lambda, conj(lambda), -lambda, -conj(lambda))``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError, StructureError
from repro.linalg.basics import (
    as_square_array,
    is_skew_symmetric,
    is_symmetric,
    matrix_scale,
)

__all__ = [
    "symplectic_identity",
    "j_times",
    "check_even_dimension",
    "is_hamiltonian",
    "is_skew_hamiltonian",
    "is_shh_pencil",
    "hamiltonian_blocks",
    "skew_hamiltonian_blocks",
    "make_hamiltonian",
    "make_skew_hamiltonian",
    "random_hamiltonian",
    "random_skew_hamiltonian",
    "hamiltonian_part",
    "skew_hamiltonian_part",
    "eigenvalue_pairing_defect",
]


def symplectic_identity(half_dim: int) -> np.ndarray:
    """Return the ``2*half_dim`` symplectic unit ``J = [[0, I], [-I, 0]]``."""
    if half_dim < 0:
        raise DimensionError("half_dim must be nonnegative")
    eye = np.eye(half_dim)
    zero = np.zeros((half_dim, half_dim))
    return np.block([[zero, eye], [-eye, zero]])


def j_times(matrix: np.ndarray) -> np.ndarray:
    """``J @ matrix`` by a signed swap of the row halves (no matrix product).

    ``J = [[0, I], [-I, 0]]`` only permutes and negates, so this equals the
    dense product (up to the sign of zeros) at O(n^2) cost.  Use
    ``j_times(M.T).T`` for ``M @ J^T = -(M @ J)``.
    """
    arr = np.asarray(matrix)
    half = arr.shape[0] // 2
    return np.concatenate([arr[half:], -arr[:half]])


def check_even_dimension(matrix: np.ndarray, name: str = "matrix") -> int:
    """Validate that ``matrix`` is square with even dimension; return the half size."""
    arr = as_square_array(matrix, name)
    if arr.shape[0] % 2 != 0:
        raise DimensionError(
            f"{name} must have even dimension, got {arr.shape[0]}"
        )
    return arr.shape[0] // 2


def is_hamiltonian(matrix: np.ndarray, tol: Optional[Tolerances] = None) -> bool:
    """Check the Hamiltonian property ``(J H)^T = J H``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.shape[0] % 2 != 0:
        return False
    return is_symmetric(j_times(arr), tol)


def is_skew_hamiltonian(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check the skew-Hamiltonian property ``(J W)^T = -J W``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.shape[0] % 2 != 0:
        return False
    return is_skew_symmetric(j_times(arr), tol)


def is_shh_pencil(
    e_matrix: np.ndarray, a_matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check that ``(E, A)`` is a skew-Hamiltonian/Hamiltonian pencil."""
    return is_skew_hamiltonian(e_matrix, tol) and is_hamiltonian(a_matrix, tol)


def hamiltonian_blocks(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(A, R, Q)`` from the Hamiltonian block form ``[[A, R], [Q, -A^T]]``.

    The function only slices; it does not verify the structure.  Use
    :func:`is_hamiltonian` beforehand if validation is required.
    """
    n = check_even_dimension(matrix, "Hamiltonian matrix")
    arr = np.asarray(matrix, dtype=float)
    return arr[:n, :n], arr[:n, n:], arr[n:, :n]


def skew_hamiltonian_blocks(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(A, R, Q)`` from the skew-Hamiltonian block form ``[[A, R], [Q, A^T]]``."""
    n = check_even_dimension(matrix, "skew-Hamiltonian matrix")
    arr = np.asarray(matrix, dtype=float)
    return arr[:n, :n], arr[:n, n:], arr[n:, :n]


def make_hamiltonian(
    a_block: np.ndarray, r_block: np.ndarray, q_block: np.ndarray
) -> np.ndarray:
    """Assemble ``[[A, R], [Q, -A^T]]``; ``R`` and ``Q`` must be symmetric."""
    a_block = as_square_array(a_block, "A block")
    r_block = as_square_array(r_block, "R block")
    q_block = as_square_array(q_block, "Q block")
    if not (a_block.shape == r_block.shape == q_block.shape):
        raise DimensionError("all blocks must share the same shape")
    if not is_symmetric(r_block) or not is_symmetric(q_block):
        raise StructureError("R and Q blocks of a Hamiltonian matrix must be symmetric")
    return np.block([[a_block, r_block], [q_block, -a_block.T]])


def make_skew_hamiltonian(
    a_block: np.ndarray, r_block: np.ndarray, q_block: np.ndarray
) -> np.ndarray:
    """Assemble ``[[A, R], [Q, A^T]]``; ``R`` and ``Q`` must be skew-symmetric."""
    a_block = as_square_array(a_block, "A block")
    r_block = as_square_array(r_block, "R block")
    q_block = as_square_array(q_block, "Q block")
    if not (a_block.shape == r_block.shape == q_block.shape):
        raise DimensionError("all blocks must share the same shape")
    if not is_skew_symmetric(r_block) or not is_skew_symmetric(q_block):
        raise StructureError(
            "R and Q blocks of a skew-Hamiltonian matrix must be skew-symmetric"
        )
    return np.block([[a_block, r_block], [q_block, a_block.T]])


def random_hamiltonian(
    half_dim: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Random dense Hamiltonian matrix of size ``2 * half_dim`` (for testing)."""
    rng = rng or np.random.default_rng()
    a_block = rng.standard_normal((half_dim, half_dim))
    r_block = rng.standard_normal((half_dim, half_dim))
    q_block = rng.standard_normal((half_dim, half_dim))
    return make_hamiltonian(
        a_block, 0.5 * (r_block + r_block.T), 0.5 * (q_block + q_block.T)
    )


def random_skew_hamiltonian(
    half_dim: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Random dense skew-Hamiltonian matrix of size ``2 * half_dim`` (for testing)."""
    rng = rng or np.random.default_rng()
    a_block = rng.standard_normal((half_dim, half_dim))
    r_block = rng.standard_normal((half_dim, half_dim))
    q_block = rng.standard_normal((half_dim, half_dim))
    return make_skew_hamiltonian(
        a_block, 0.5 * (r_block - r_block.T), 0.5 * (q_block - q_block.T)
    )


def hamiltonian_part(matrix: np.ndarray) -> np.ndarray:
    """Hamiltonian part of a square even-dimensional matrix.

    Every ``2n x 2n`` matrix ``M`` splits uniquely as ``M = H + W`` with ``H``
    Hamiltonian and ``W`` skew-Hamiltonian; this returns ``H``.
    """
    check_even_dimension(matrix)
    jm = j_times(np.asarray(matrix, dtype=float))
    return -j_times(0.5 * (jm + jm.T))


def skew_hamiltonian_part(matrix: np.ndarray) -> np.ndarray:
    """Skew-Hamiltonian part of a square even-dimensional matrix."""
    check_even_dimension(matrix)
    jm = j_times(np.asarray(matrix, dtype=float))
    return -j_times(0.5 * (jm - jm.T))


def eigenvalue_pairing_defect(matrix: np.ndarray) -> float:
    """Measure how far the spectrum is from the Hamiltonian ``±lambda`` symmetry.

    For an exactly Hamiltonian matrix the eigenvalues come in pairs
    ``(lambda, -lambda)`` so the returned defect is (numerically) zero.  The
    defect is the Hausdorff-like distance between the spectrum and its
    negation, normalized by the matrix scale.
    """
    arr = as_square_array(matrix)
    eigs = np.linalg.eigvals(arr)
    negated = -eigs
    defect = 0.0
    for value in eigs:
        defect = max(defect, float(np.min(np.abs(negated - value))))
    return defect / matrix_scale(arr)
