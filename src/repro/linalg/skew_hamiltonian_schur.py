"""Structure-preserving reductions of skew-Hamiltonian matrices and SHH pencils.

Two algorithms live here:

* :func:`pvl_decomposition` — the Paige/Van Loan (PVL) reduction: an orthogonal
  symplectic similarity bringing a skew-Hamiltonian matrix ``W`` to the block
  upper-triangular form ``[[W11, W12], [0, W11^T]]`` with ``W11`` upper
  Hessenberg.  This is the dense O(n^3) counterpart of the isotropic Arnoldi
  process of Mehrmann & Watkins that the paper cites for Eq. 21; the dense
  variant is the appropriate choice for the dense circuit models used in the
  paper's experiments.
* :func:`shh_pencil_to_hamiltonian` — given a skew-Hamiltonian/Hamiltonian
  pencil ``lambda W - H`` with ``W`` nonsingular, construct (non-orthogonal but
  well-structured) left/right transformations ``Z_L, Z_R`` such that
  ``Z_L W Z_R = I`` and ``Z_L H Z_R`` is again Hamiltonian.  This realises the
  paper's Eq. 21: the pencil is converted to a *standard* Hamiltonian state
  matrix so that the stable/anti-stable splitting of Eq. 22 can be applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import ReductionError, StructureError
from repro.linalg.basics import matrix_scale
from repro.linalg.elementary import givens_rotation, householder_vector
from repro.linalg.hamiltonian import (
    check_even_dimension,
    hamiltonian_part,
    is_hamiltonian,
    is_skew_hamiltonian,
    j_times,
)
from repro.linalg.symplectic import (
    apply_double_householder_similarity,
    apply_symplectic_givens_similarity,
)

__all__ = ["pvl_decomposition", "shh_pencil_to_hamiltonian", "PencilToStateSpace"]


def pvl_decomposition(
    skew_hamiltonian: np.ndarray,
    tol: Optional[Tolerances] = None,
    check_structure: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Paige/Van Loan reduction of a skew-Hamiltonian matrix.

    Computes an orthogonal symplectic matrix ``U`` such that::

        U^T W U = [[W11, W12],
                   [  0, W11^T]]

    with ``W11`` upper Hessenberg and ``W12`` skew-symmetric.

    Parameters
    ----------
    skew_hamiltonian:
        The ``2n x 2n`` skew-Hamiltonian matrix ``W``.
    tol:
        Tolerance bundle used for the optional structure check.
    check_structure:
        When true (default), raise :class:`StructureError` if ``W`` is not
        skew-Hamiltonian within tolerance.

    Returns
    -------
    (U, T):
        ``U`` orthogonal symplectic and ``T = U^T W U`` in PVL form.
    """
    tol = tol or DEFAULT_TOLERANCES
    work = np.array(skew_hamiltonian, dtype=float, copy=True)
    half = check_even_dimension(work, "skew-Hamiltonian matrix")
    if check_structure and not is_skew_hamiltonian(work, tol):
        raise StructureError("pvl_decomposition requires a skew-Hamiltonian matrix")

    # Row windows of the C-ordered work matrix and column windows of the
    # Fortran-ordered accumulator are contiguous: their reflector updates are
    # in-place BLAS calls (see repro.linalg.elementary).
    accumulator = np.eye(2 * half, order="F")
    for j in range(half - 1):
        # (a) Householder on window j+1 .. half-1 (both halves) compressing the
        #     lower-left block column j onto its first sub-diagonal entry.
        lower_col = work[half + j + 1 : 2 * half, j]
        if lower_col.size > 1:
            v, beta = householder_vector(lower_col)
            apply_double_householder_similarity(work, accumulator, v, beta, j + 1)
        # (b) Symplectic Givens in the (j+1, half+j+1) plane zeroing the
        #     remaining lower-left entry against the upper-left sub-diagonal.
        a_entry = work[j + 1, j]
        b_entry = work[half + j + 1, j]
        c, s = givens_rotation(a_entry, b_entry)
        apply_symplectic_givens_similarity(work, accumulator, c, s, j + 1)
        # (c) Householder restoring the Hessenberg pattern of the upper-left
        #     block; this is what protects the zeros of earlier sweeps.
        upper_col = work[j + 1 : half, j]
        if upper_col.size > 1:
            v, beta = householder_vector(upper_col)
            apply_double_householder_similarity(work, accumulator, v, beta, j + 1)

    # Clean the structurally-zero lower-left block of round-off noise.
    work[half:, :half] = 0.0
    return accumulator, work


@dataclass(frozen=True)
class PencilToStateSpace:
    """Result of converting an SHH pencil ``lambda W - H`` to standard form.

    Attributes
    ----------
    left:
        Left transformation ``Z_L`` (satisfies ``Z_L W Z_R = I``).
    right:
        Right transformation ``Z_R``.
    hamiltonian:
        The standard-form Hamiltonian state matrix ``Z_L H Z_R``.
    residual:
        ``|| Z_L W Z_R - I ||_F`` normalized by the problem scale, reported as
        a numerical health indicator.
    """

    left: np.ndarray
    right: np.ndarray
    hamiltonian: np.ndarray
    residual: float


def shh_pencil_to_hamiltonian(
    skew_hamiltonian: np.ndarray,
    hamiltonian: np.ndarray,
    tol: Optional[Tolerances] = None,
    check_structure: bool = True,
    symmetrize: bool = True,
) -> PencilToStateSpace:
    """Convert a nonsingular SHH pencil ``lambda W - H`` to a standard Hamiltonian form.

    Implements the structure-preserving change of coordinates of Eq. 21 of the
    paper: after the PVL reduction ``U^T W U = [[E1, Psi], [0, E1^T]]`` the
    transformations ::

        Z_R = U @ [[I, -1/2 E1^{-1} Psi E1^{-T}], [0, E1^{-T}]]
        Z_L = -J Z_R^T J

    satisfy ``Z_L W Z_R = I`` while ``Z_L H Z_R`` remains Hamiltonian for every
    Hamiltonian ``H``; hence the pencil ``lambda W - H`` is strongly equivalent
    to the standard pencil ``lambda I - Z_L H Z_R``.

    Raises
    ------
    ReductionError
        If ``W`` is numerically singular (its PVL (1,1) block cannot be
        inverted reliably).
    StructureError
        If the structure check is requested and the pencil is not SHH.
    """
    tol = tol or DEFAULT_TOLERANCES
    w_matrix = np.asarray(skew_hamiltonian, dtype=float)
    h_matrix = np.asarray(hamiltonian, dtype=float)
    half = check_even_dimension(w_matrix, "skew-Hamiltonian matrix")
    if h_matrix.shape != w_matrix.shape:
        raise StructureError("W and H must have the same shape")
    if check_structure:
        if not is_skew_hamiltonian(w_matrix, tol):
            raise StructureError("pencil E-matrix is not skew-Hamiltonian")
        if not is_hamiltonian(h_matrix, tol):
            raise StructureError("pencil A-matrix is not Hamiltonian")

    accumulator, pvl_form = pvl_decomposition(w_matrix, tol, check_structure=False)
    e1_block = pvl_form[:half, :half]
    psi_block = pvl_form[:half, half:]

    singular_values = np.linalg.svd(e1_block, compute_uv=False)
    scale = matrix_scale(w_matrix)
    if singular_values.size == 0 or singular_values[-1] <= tol.rank_rtol * scale:
        raise ReductionError(
            "skew-Hamiltonian E-matrix is numerically singular; the pencil has "
            "infinite eigenvalues and cannot be converted to standard form"
        )

    e1_inv = np.linalg.solve(e1_block, np.eye(half))
    correction = -0.5 * e1_inv @ psi_block @ e1_inv.T
    q_tilde = np.block(
        [
            [np.eye(half), correction],
            [np.zeros((half, half)), e1_inv.T],
        ]
    )
    right = accumulator @ q_tilde
    # Z_L = -J Z_R^T J, with M J = -(J M^T)^T.
    left = j_times(j_times(right.T).T).T

    identity_residual = left @ w_matrix @ right - np.eye(2 * half)
    residual = float(np.linalg.norm(identity_residual)) / max(1.0, float(np.linalg.norm(w_matrix)))

    standard = left @ h_matrix @ right
    if symmetrize:
        standard = hamiltonian_part(standard)
    return PencilToStateSpace(
        left=left, right=right, hamiltonian=standard, residual=residual
    )
