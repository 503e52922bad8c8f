"""Extraction of the stable proper part of ``Phi`` (Section 3.3 of the paper).

Input: the regular SHH pencil realization of ``Phi`` produced by the
reductions of Section 3.1-3.2 (``E`` nonsingular skew-Hamiltonian, ``A``
Hamiltonian, ``B``, ``C``, ``D``).  Steps:

1. Convert to a *standard* Hamiltonian state matrix with the PVL-based change
   of coordinates (Eq. 21, :func:`repro.linalg.shh_pencil_to_hamiltonian`).
2. Split the Hamiltonian state matrix into its stable / anti-stable invariant
   subspaces using the orthogonal symplectic matrix built from the stable
   basis (Eq. 22).
3. Decouple the two halves with a Lyapunov solve (Eq. 23) on the
   quasi-triangular Schur block of step 2.
4. Read off the stable proper part.  Because
   ``Phi(s) = G_sp(s) + G_sp~(s) + const``, the stable strictly-proper part of
   ``Phi`` is exactly the stable strictly-proper part ``G_sp`` of the original
   system — the paper's "sidetrack".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import StateSpace
from repro.exceptions import ReductionError
from repro.linalg.invariant_subspace import hamiltonian_stable_invariant_subspace
from repro.linalg.lyapunov import solve_triangular_sylvester
from repro.linalg.skew_hamiltonian_schur import shh_pencil_to_hamiltonian
from repro.passivity.reduction import ShhRestoration

__all__ = ["ProperPartExtraction", "extract_stable_proper_part"]


@dataclass(frozen=True)
class ProperPartExtraction:
    """Stable/anti-stable decoupling of the proper part of ``Phi``.

    Attributes
    ----------
    stable_part:
        ``G_sp`` — the strictly proper stable part (zero feedthrough).
    phi_half:
        ``G_sp + D_phi / 2`` — the "half" system whose para-Hermitian double
        is the proper part of ``Phi``; this is what the final Hamiltonian
        positive-realness check receives.
    antistable_a / antistable_b / antistable_c:
        The anti-stable block, kept for the adjoint-symmetry diagnostic.
    hamiltonian_residual:
        Residual of the Eq. 21 conversion (``|| Z_L E Z_R - I ||``).
    adjoint_defect:
        Relative mismatch between the anti-stable block and the adjoint of the
        stable block, evaluated at a probe frequency; near zero when the
        para-Hermitian structure survived the reductions.
    """

    stable_part: StateSpace
    phi_half: StateSpace
    antistable_a: np.ndarray
    antistable_b: np.ndarray
    antistable_c: np.ndarray
    hamiltonian_residual: float
    adjoint_defect: float


def extract_stable_proper_part(
    restoration: ShhRestoration,
    tol: Optional[Tolerances] = None,
) -> ProperPartExtraction:
    """Extract the stable proper part from the regular SHH realization of ``Phi``.

    One ordered real Schur form ``H Z = Z T`` of the Hamiltonian state matrix
    serves Eqs. 22 and 23 and the final check: the stable basis is ``Z``'s
    leading block column, the Eq. 23 Lyapunov equation is solved on
    ``Lambda = T11`` with a single ``?trsyl`` call
    (:func:`repro.linalg.lyapunov.solve_triangular_sylvester`), and the
    stable part's state matrix is ``T11`` itself, so its poles are read off
    a quasi-triangular matrix.  The decoupled ``B`` and ``C`` come from
    half-order block products with the Lyapunov solution ``Y``.

    Raises
    ------
    ReductionError
        If the Hamiltonian state matrix has eigenvalues on the imaginary axis
        (the original system then has imaginary-axis poles, violating the
        standing assumptions) or the SHH-to-standard conversion fails.
    """
    tol = tol or DEFAULT_TOLERANCES
    n_total = restoration.e_shh.shape[0]
    m = restoration.d_shh.shape[0]

    if n_total == 0:
        constant_half = StateSpace(
            np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)), 0.5 * restoration.d_shh
        )
        strictly_proper = StateSpace(
            np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)), np.zeros((m, m))
        )
        return ProperPartExtraction(
            stable_part=strictly_proper,
            phi_half=constant_half,
            antistable_a=np.zeros((0, 0)),
            antistable_b=np.zeros((0, m)),
            antistable_c=np.zeros((m, 0)),
            hamiltonian_residual=0.0,
            adjoint_defect=0.0,
        )

    conversion = shh_pencil_to_hamiltonian(
        restoration.e_shh, restoration.a_shh, tol, check_structure=True
    )
    a_std = conversion.hamiltonian
    b_std = conversion.left @ restoration.b_shh
    c_std = restoration.c_shh @ conversion.right

    splitting = hamiltonian_stable_invariant_subspace(a_std, tol, check_structure=False)
    half = n_total // 2
    x1, x2 = splitting.x1, splitting.x2
    # Orthogonal symplectic completion Z1 = [[X1, -X2], [X2, X1]] (Eq. 22):
    # the isotropy of the stable invariant subspace of a Hamiltonian matrix
    # (X1^T X2 = X2^T X1) makes this matrix orthogonal and symplectic.
    z1 = np.block([[x1, -x2], [x2, x1]])
    a_block = z1.T @ a_std @ z1
    psi = a_block[:half, half:]
    coupling = a_block[half:, :half]
    if np.max(np.abs(coupling), initial=0.0) > 1e-6 * max(
        1.0, float(np.max(np.abs(a_std)))
    ):
        raise ReductionError(
            "the symplectic completion of the stable invariant subspace failed "
            "to block-triangularize the Hamiltonian state matrix"
        )

    # Decouple with the Lyapunov solve of Eq. 23: Lambda Y + Y Lambda^T + Psi = 0,
    # with Lambda = T11 already quasi-triangular from Eq. 22 (one ?trsyl call).
    lam = splitting.stable_block
    y_solution = solve_triangular_sylvester(
        lam, lam, -psi, transpose_b=True, tol=tol
    )
    # Z2 = Z1 [[I, Y], [0, I]] block-diagonalizes a_block; in half-order
    # blocks, with [B1; B2] = Z1^T B and [C1, C2] = C Z1, the stable part is
    # (T11, B1 - Y B2, C1) and the anti-stable part
    # (A22 + A21 Y, B2, C1 Y + C2).
    b_block = z1.T @ b_std
    c_block = c_std @ z1
    stable_a = lam
    stable_b = b_block[:half] - y_solution @ b_block[half:]
    stable_c = c_block[:, :half]
    anti_a = a_block[half:, half:] + coupling @ y_solution
    anti_b = b_block[half:]
    anti_c = stable_c @ y_solution + c_block[:, half:]

    stable_part = StateSpace(
        stable_a, stable_b, stable_c, np.zeros((m, m))
    )
    phi_half = StateSpace(stable_a, stable_b, stable_c, 0.5 * restoration.d_shh)

    adjoint_defect = _adjoint_defect(
        stable_a, stable_b, stable_c, anti_a, anti_b, anti_c
    )
    return ProperPartExtraction(
        stable_part=stable_part,
        phi_half=phi_half,
        antistable_a=anti_a,
        antistable_b=anti_b,
        antistable_c=anti_c,
        hamiltonian_residual=conversion.residual,
        adjoint_defect=adjoint_defect,
    )


def _adjoint_defect(
    stable_a: np.ndarray,
    stable_b: np.ndarray,
    stable_c: np.ndarray,
    anti_a: np.ndarray,
    anti_b: np.ndarray,
    anti_c: np.ndarray,
    omega: float = 0.37,
) -> float:
    """How far the anti-stable block is from being the adjoint of the stable block.

    Evaluates both at ``s = j omega``: the anti-stable block should equal
    ``[C_s (j w I - A_s)^{-1} B_s]^*`` when the para-Hermitian structure of
    ``Phi`` is intact.
    """
    half = stable_a.shape[0]
    if half == 0:
        return 0.0
    point = 1j * omega
    try:
        stable_value = stable_c @ np.linalg.solve(
            point * np.eye(half) - stable_a, stable_b.astype(complex)
        )
        anti_value = anti_c @ np.linalg.solve(
            point * np.eye(half) - anti_a, anti_b.astype(complex)
        )
    except np.linalg.LinAlgError:
        return float("nan")
    scale = max(1.0, float(np.max(np.abs(stable_value))))
    return float(np.max(np.abs(anti_value - stable_value.conj().T))) / scale
