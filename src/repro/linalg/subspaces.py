"""SVD-based subspace computations.

The reduction steps of the proposed passivity test are phrased entirely in
terms of kernels, ranges, intersections and set differences of subspaces
(Eqs. 11-17 of the paper).  Every routine here represents a subspace by a
matrix whose columns form an orthonormal basis; an ``(n, 0)`` matrix denotes
the trivial subspace.  All rank decisions use the relative threshold from
:class:`repro.config.Tolerances`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError
from repro.linalg.basics import as_2d_array

__all__ = [
    "rank_from_singular_values",
    "numerical_rank",
    "column_space",
    "null_space",
    "left_null_space",
    "subspace_sum",
    "subspace_intersection",
    "orth_complement_within",
    "orth_complement",
    "subspace_difference",
    "subspaces_equal",
    "project_onto",
    "principal_angles",
    "contains_subspace",
]


def _empty_basis(dim: int, dtype=float) -> np.ndarray:
    return np.zeros((dim, 0), dtype=dtype)


def _rank_threshold(
    svals: np.ndarray, tol: Tolerances, reference_scale: Optional[float]
) -> float:
    """Singular-value cut-off for rank decisions.

    The threshold is relative to the largest singular value, but never smaller
    than ``rank_rtol * reference_scale`` when a reference scale is supplied.
    The reference scale matters when the matrix under test is the *projection
    of a larger matrix*: a projected block that should be exactly zero only
    contains round-off noise of size ``eps * scale(parent)``, and a purely
    self-relative threshold would mistake that noise for full rank.
    """
    largest = float(svals[0]) if svals.size else 0.0
    floor = tol.rank_rtol * float(reference_scale) if reference_scale else 0.0
    return max(tol.rank_rtol * largest, floor)


def rank_from_singular_values(
    svals: np.ndarray,
    tol: Optional[Tolerances] = None,
    reference_scale: Optional[float] = None,
) -> int:
    """Numerical rank from descending singular values (the rule used throughout).

    Lets a caller that already holds an SVD make the same rank decision as
    :func:`numerical_rank` without factoring the matrix again.
    """
    tol = tol or DEFAULT_TOLERANCES
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > _rank_threshold(svals, tol, reference_scale)))


def numerical_rank(
    matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    reference_scale: Optional[float] = None,
) -> int:
    """Numerical rank of ``matrix`` using the relative SVD threshold.

    ``reference_scale`` optionally anchors the threshold to the scale of a
    parent problem (see :func:`_rank_threshold`).
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = as_2d_array(matrix)
    if arr.size == 0:
        return 0
    svals = np.linalg.svd(arr, compute_uv=False)
    return rank_from_singular_values(svals, tol, reference_scale)


def column_space(
    matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    reference_scale: Optional[float] = None,
) -> np.ndarray:
    """Orthonormal basis of the column space (range) of ``matrix``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_2d_array(matrix)
    if arr.size == 0:
        return _empty_basis(arr.shape[0], arr.dtype)
    # The range only needs the "thin" left factor.
    u, svals, _ = np.linalg.svd(arr, full_matrices=False)
    return u[:, : rank_from_singular_values(svals, tol, reference_scale)]


def null_space(
    matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    reference_scale: Optional[float] = None,
) -> np.ndarray:
    """Orthonormal basis of the right null space (kernel) of ``matrix``."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_2d_array(matrix)
    n_rows, n_cols = arr.shape
    if arr.size == 0:
        return np.eye(n_cols, dtype=float)
    # A complete right factor (all n_cols right singular vectors) is required;
    # when the matrix has at least as many rows as columns the economy SVD
    # already provides it, which avoids forming the (possibly huge) full U.
    _, svals, vh = np.linalg.svd(arr, full_matrices=(n_rows < n_cols))
    return vh[rank_from_singular_values(svals, tol, reference_scale) :, :].conj().T


def left_null_space(
    matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    reference_scale: Optional[float] = None,
) -> np.ndarray:
    """Orthonormal basis of the left null space: vectors ``z`` with ``z^H M = 0``."""
    return null_space(as_2d_array(matrix).conj().T, tol, reference_scale)


def subspace_sum(
    *bases: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of the sum (span of the union) of the given subspaces."""
    tol = tol or DEFAULT_TOLERANCES
    nonempty = [as_2d_array(b) for b in bases if np.asarray(b).size > 0]
    if not nonempty:
        dims = [np.asarray(b).shape[0] for b in bases]
        if not dims:
            raise DimensionError("subspace_sum requires at least one basis")
        return _empty_basis(dims[0])
    dim = nonempty[0].shape[0]
    for basis in nonempty:
        if basis.shape[0] != dim:
            raise DimensionError("all bases must live in the same ambient space")
    stacked = np.hstack(nonempty)
    return column_space(stacked, tol)


def orth_complement(
    basis: np.ndarray, ambient_dim: Optional[int] = None,
    tol: Optional[Tolerances] = None,
) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(basis)``.

    ``ambient_dim`` must be supplied when ``basis`` has zero columns and its
    row dimension cannot be inferred.
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = as_2d_array(basis)
    dim = arr.shape[0] if arr.shape[0] else (ambient_dim or 0)
    if arr.shape[1] == 0:
        return np.eye(dim)
    return left_null_space(arr, tol)


def subspace_intersection(
    basis_a: np.ndarray, basis_b: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of the intersection of two subspaces.

    Uses the classical relation ``A ∩ B = (A^⊥ + B^⊥)^⊥`` which reduces the
    computation to two SVDs and is numerically well behaved for the nearly
    orthogonal bases produced elsewhere in the library.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = as_2d_array(basis_a)
    b = as_2d_array(basis_b)
    if a.shape[0] != b.shape[0]:
        raise DimensionError("bases must live in the same ambient space")
    dim = a.shape[0]
    if a.shape[1] == 0 or b.shape[1] == 0:
        return _empty_basis(dim)
    a_perp = orth_complement(a, dim, tol)
    b_perp = orth_complement(b, dim, tol)
    both_perp = subspace_sum(a_perp, b_perp, tol=tol)
    return orth_complement(both_perp, dim, tol)


def project_onto(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``vectors`` (columns) onto ``span(basis)``."""
    basis = as_2d_array(basis)
    vectors = np.atleast_2d(np.asarray(vectors))
    if vectors.shape[0] != basis.shape[0]:
        vectors = vectors.T
    if basis.shape[1] == 0:
        return np.zeros_like(vectors)
    return basis @ (basis.conj().T @ vectors)


def orth_complement_within(
    basis_sub: np.ndarray, basis_full: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of the part of ``span(basis_full)`` orthogonal to ``span(basis_sub)``.

    This implements the "set subtraction" used by the paper when forming the
    projection matrices (``Z_co = J Q_ô \\ (J Q_ô ∩ Z_ô)``): it returns a basis
    of the orthogonal complement of ``span(basis_sub)`` *inside*
    ``span(basis_full)``.
    """
    tol = tol or DEFAULT_TOLERANCES
    full = as_2d_array(basis_full)
    sub = as_2d_array(basis_sub)
    if full.shape[1] == 0:
        return _empty_basis(full.shape[0])
    if sub.shape[1] == 0:
        return column_space(full, tol)
    if full.shape[0] != sub.shape[0]:
        raise DimensionError("bases must live in the same ambient space")
    residual = full - project_onto(sub, full)
    return column_space(residual, tol)


# Alias matching the paper's wording.
subspace_difference = orth_complement_within


def principal_angles(
    basis_a: np.ndarray, basis_b: np.ndarray
) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces."""
    a = column_space(basis_a)
    b = column_space(basis_b)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    svals = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    svals = np.clip(svals, -1.0, 1.0)
    return np.arccos(svals)


def contains_subspace(
    basis_outer: np.ndarray, basis_inner: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> bool:
    """Check whether ``span(basis_inner)`` is contained in ``span(basis_outer)``."""
    tol = tol or DEFAULT_TOLERANCES
    inner = as_2d_array(basis_inner)
    if inner.shape[1] == 0:
        return True
    outer = as_2d_array(basis_outer)
    if outer.shape[1] == 0:
        return False
    residual = inner - project_onto(column_space(outer, tol), inner)
    return bool(np.linalg.norm(residual) <= 1e3 * tol.rank_rtol * max(1.0, np.linalg.norm(inner)))


def subspaces_equal(
    basis_a: np.ndarray, basis_b: np.ndarray, tol: Optional[Tolerances] = None
) -> bool:
    """Check whether two bases span the same subspace."""
    return contains_subspace(basis_a, basis_b, tol) and contains_subspace(
        basis_b, basis_a, tol
    )
