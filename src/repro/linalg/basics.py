"""Structural matrix predicates and small shared helpers.

All predicates use *relative* tolerances scaled by the magnitude of the matrix
under test, which makes them robust for the widely varying magnitudes that MNA
circuit matrices exhibit (pico-farad capacitances next to kilo-ohm
conductances).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError

__all__ = [
    "as_square_array",
    "as_2d_array",
    "matrix_scale",
    "schur_eigenvalues",
    "is_symmetric",
    "is_skew_symmetric",
    "is_hermitian",
    "is_positive_semidefinite",
    "is_positive_definite",
    "is_negative_semidefinite",
    "symmetric_part",
    "skew_part",
    "relative_error",
]


def as_2d_array(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a 2-D float/complex ndarray, validating its shape."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        arr = arr.astype(float)
    return arr


def as_square_array(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a square 2-D ndarray, validating its shape."""
    arr = as_2d_array(matrix, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def matrix_scale(matrix: np.ndarray) -> float:
    """Return a scale for relative comparisons: ``max(1, largest magnitude)``."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 1.0
    return max(1.0, float(np.max(np.abs(arr))))


def schur_eigenvalues(t_form: np.ndarray) -> np.ndarray:
    """Eigenvalues read off a (real quasi-triangular or complex) Schur form.

    A real Schur form keeps each complex-conjugate pair in a 2x2 diagonal
    block ``[[a, b], [c, d]]`` (a nonzero subdiagonal entry marks its start);
    its eigenvalues are ``(a + d) / 2 +- sqrt(((a - d) / 2)^2 + b c)``.
    """
    eigenvalues = np.diag(t_form).astype(complex)
    if np.iscomplexobj(t_form):
        return eigenvalues
    k = np.flatnonzero(np.diag(t_form, -1))
    if k.size:
        a, d = t_form[k, k], t_form[k + 1, k + 1]
        half_gap = 0.5 * (a - d)
        radius = np.sqrt((half_gap**2 + t_form[k, k + 1] * t_form[k + 1, k]).astype(complex))
        eigenvalues[k] = 0.5 * (a + d) + radius
        eigenvalues[k + 1] = 0.5 * (a + d) - radius
    return eigenvalues


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Frobenius-norm error of ``actual`` relative to the scale of ``expected``."""
    expected = np.asarray(expected, dtype=complex)
    actual = np.asarray(actual, dtype=complex)
    denom = max(1.0, float(np.linalg.norm(expected)))
    return float(np.linalg.norm(actual - expected)) / denom


def is_symmetric(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether a real or complex matrix equals its transpose."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    return bool(
        np.max(np.abs(arr - arr.T)) <= tol.structure_rtol * matrix_scale(arr)
    )


def is_skew_symmetric(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether a matrix equals the negative of its transpose."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    return bool(
        np.max(np.abs(arr + arr.T)) <= tol.structure_rtol * matrix_scale(arr)
    )


def is_hermitian(matrix: np.ndarray, tol: Optional[Tolerances] = None) -> bool:
    """Check whether a matrix equals its conjugate transpose."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    return bool(
        np.max(np.abs(arr - arr.conj().T)) <= tol.structure_rtol * matrix_scale(arr)
    )


def _hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of ``matrix`` (sorted ascending)."""
    arr = as_square_array(matrix)
    herm = 0.5 * (arr + arr.conj().T)
    return np.linalg.eigvalsh(herm)


def is_positive_semidefinite(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether the Hermitian part of ``matrix`` is positive semidefinite.

    The check allows eigenvalues down to ``-psd_atol * scale`` to absorb
    round-off from the reductions that produced the matrix.
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.size == 0:
        return True
    eigs = _hermitian_eigenvalues(arr)
    return bool(eigs[0] >= -tol.psd_atol * matrix_scale(arr))


def is_positive_definite(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether the Hermitian part of ``matrix`` is positive definite."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.size == 0:
        return True
    eigs = _hermitian_eigenvalues(arr)
    return bool(eigs[0] > tol.psd_atol * matrix_scale(arr))


def is_negative_semidefinite(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether the Hermitian part of ``matrix`` is negative semidefinite."""
    return is_positive_semidefinite(-as_square_array(matrix), tol)


def symmetric_part(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M^T) / 2``."""
    arr = as_square_array(matrix)
    return 0.5 * (arr + arr.T)


def skew_part(matrix: np.ndarray) -> np.ndarray:
    """Return the skew-symmetric part ``(M - M^T) / 2``."""
    arr = as_square_array(matrix)
    return 0.5 * (arr - arr.T)
