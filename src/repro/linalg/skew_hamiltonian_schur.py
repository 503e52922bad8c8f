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
from repro.linalg.elementary import (
    apply_householder_right,
    givens_rotation,
    householder_vector,
)
from repro.linalg.hamiltonian import (
    check_even_dimension,
    hamiltonian_part,
    is_hamiltonian,
    is_skew_hamiltonian,
    j_times,
)

__all__ = ["pvl_decomposition", "shh_pencil_to_hamiltonian", "PencilToStateSpace"]


#: Panel width of the blocked PVL reduction.  Timed at half-orders 65, 130
#: and 200 with one BLAS thread: every panel adds one trailing update, while
#: a sweep's own cost does not depend on the width, so widths of 32-128 ran
#: in decreasing time and 96-128 were within noise of each other.
PVL_BLOCK = 128


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

    Step ``j`` is the classical sweep on column ``j``: a double reflector
    ``diag(P, P)`` compresses the lower-left column onto its sub-diagonal
    entry, a symplectic Givens rotation in the ``(j+1, n+j+1)`` plane zeroes
    that entry, and a second double reflector restores the Hessenberg
    pattern of ``W11``.  Only ``W11``, ``W12`` and ``W21`` are stored
    (``W22 = W11^T``), and only the first block column ``[U1; -U2]`` of
    ``U = [[U1, U2], [-U2, U1]]``.  The sweeps run in panels of
    :data:`PVL_BLOCK`.  A panel keeps the product ``Z`` of its
    transformations in the same form and forms each column it reduces as
    ``Z^T W (Z e_j)`` from the matrix at the panel's start, so no other
    column of ``W`` is touched inside the panel; the trailing blocks and
    ``U`` are then updated once per panel with ``gemm``s.  ``W11`` is
    exactly Hessenberg, ``W21`` exactly zero and ``W12`` exactly
    skew-symmetric.

    Parameters
    ----------
    skew_hamiltonian:
        The ``2n x 2n`` skew-Hamiltonian matrix ``W``.  Its skew-Hamiltonian
        part is reduced (``W`` itself when the structure is exact).
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
    work = np.asarray(skew_hamiltonian, dtype=float)
    half = check_even_dimension(work, "skew-Hamiltonian matrix")
    if check_structure and not is_skew_hamiltonian(work, tol):
        raise StructureError("pvl_decomposition requires a skew-Hamiltonian matrix")

    w11 = 0.5 * (work[:half, :half] + work[half:, half:].T)
    w12 = 0.5 * (work[:half, half:] - work[:half, half:].T)
    w21 = 0.5 * (work[half:, :half] - work[half:, :half].T)
    u_column = np.zeros((2 * half, half), order="F")
    u_column[:half] = np.eye(half)
    for start in range(0, half - 1, PVL_BLOCK):
        _pvl_panel(w11, w12, w21, u_column, start, min(start + PVL_BLOCK, half - 1))

    u1, u2 = u_column[:half], -u_column[half:]
    accumulator = np.block([[u1, u2], [-u2, u1]])
    pvl_form = np.block([[w11, w12], [np.zeros((half, half)), w11.T]])
    return accumulator, pvl_form


def _reflect(x: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Householder ``(v, beta)`` for ``x`` and the leading entry of ``P x``."""
    v, beta = householder_vector(x)
    return v, beta, float(x[0] - beta * (v @ x))


def _pvl_panel(
    w11: np.ndarray,
    w12: np.ndarray,
    w21: np.ndarray,
    u_column: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Run the PVL sweeps ``start <= j < stop`` and update the blocks in place.

    Every transformation of these sweeps acts on the window
    ``start+1 .. n-1`` of both halves.  Their product ``Z`` is kept as the
    ``2m x m`` first block column ``[Z1; -Z2]`` of ``[[Z1, Z2], [-Z2, Z1]]``
    restricted to that window (``m = n - start - 1``).
    """
    half = w11.shape[0]
    low = start + 1
    size = half - low
    window = slice(low, half)
    # The columns of W Z that the window touches, from the panel's start:
    # [W11 W12] restricted to window columns, and the window rows of
    # [W21 W22] (W22 = W11^T).
    upper = np.hstack([w11[:, window], w12[:, window]])
    lower = np.hstack([w21[window, window], w11[window, window].T])
    z_column = np.zeros((2 * size, size), order="F")
    z_column[:size] = np.eye(size)
    reduced = np.zeros((half, stop - start))
    pair = np.empty((2 * size, 2), order="F")

    for j in range(start, stop):
        local = j - start  # window position of the sweep's pivot row j + 1
        if j == start:
            a_col = w11[:, j].copy()
            q_col = w21[window, j].copy()
        else:
            # Column j of Z^T W Z: W (Z e_j), then Z^T on the window rows.
            z_j = z_column[:, local - 1]
            a_col = upper @ z_j
            q_win = lower @ z_j
            # Z^T [a; q] and Z^T [q; -a] give the new a and q window rows.
            pair[:size, 0] = pair[size:, 1] = a_col[window]
            pair[size:, 0] = q_win
            pair[:size, 1] = q_win
            pair[size:, 1] *= -1.0
            rotated = z_column.T @ pair
            a_col[window] = rotated[:, 0]
            q_col = rotated[:, 1]
        sweep = slice(local, size)

        # (a) diag(P, P) compressing the lower-left column.
        if size - local > 1:
            v, beta, q_col[local] = _reflect(q_col[sweep])
            if beta != 0.0:
                a_tail = a_col[j + 1 :]
                a_tail -= (beta * (v @ a_tail)) * v
                apply_householder_right(z_column, v, beta, sweep)
        # (b) symplectic Givens zeroing it against the sub-diagonal entry.
        c, s = givens_rotation(a_col[j + 1], q_col[local])
        a_col[j + 1] = c * a_col[j + 1] + s * q_col[local]
        halves = z_column[:, local].reshape(2, size)
        halves[:] = np.array([[c, -s], [s, c]]) @ halves
        # (c) diag(P, P) restoring the Hessenberg pattern of W11.
        if size - local > 1:
            v, beta, a_col[j + 1] = _reflect(a_col[j + 1 :])
            if beta != 0.0:
                apply_householder_right(z_column, v, beta, sweep)
        a_col[j + 2 :] = 0.0
        reduced[:, local] = a_col

    # Trailing update W <- Z^T W Z, with Z = [[Z1, Z2], [-Z2, Z1]] on the
    # window.  The panel's own columns are already in ``reduced``, so of the
    # (1,1) and (2,1) blocks only the columns after the panel are formed;
    # the (1,2) block W12 is formed whole.
    z1, z2 = z_column[:size], -z_column[size:]
    z_window = np.block([[z1, z2], [-z2, z1]])
    skip = stop - low
    tail = size - skip
    right_upper = upper @ z_window[:, skip:]
    right_lower = lower @ z_window[:, skip:]
    stacked = np.vstack([right_upper[window], right_lower])
    left = z_column.T @ stacked
    after = slice(stop, half)
    w11[:low, after] = right_upper[:low, :tail]
    w11[window, after] = left[:, :tail]
    w11[:, start:stop] = reduced
    w12[:low, window] = right_upper[:low, tail:]
    w12[window, :low] = -right_upper[:low, tail:].T
    w12[window, window] = 0.5 * (left[:, tail:] - left[:, tail:].T)
    w21[after, after] = z_window[:, size + skip :].T @ stacked[:, :tail]
    w21[:, start:stop] = 0.0
    w21[start:stop, :] = 0.0

    # U <- U Z on the window columns, kept as [U1; -U2].
    product = u_column[:, window] @ np.hstack([z1, z2])
    u_top = product[:half, :size] + product[half:, size:]
    u_column[half:, window] = product[half:, :size] - product[:half, size:]
    u_column[:half, window] = u_top


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
