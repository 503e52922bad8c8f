"""Bartels-Stewart solvers for Sylvester and continuous Lyapunov equations.

The decoupling step of the proposed test (Eq. 23 of the paper) requires the
solution of a Lyapunov equation ``A Y + Y A^T + Psi = 0``.  The solvers below
use the classical Bartels-Stewart approach: reduce the coefficients to Schur
form (real quasi-triangular for real data, complex triangular otherwise),
solve the triangular equation with one LAPACK ``?trsyl`` call, and transform
back.  A Lyapunov equation needs only the Schur form of ``A``.  Real data
gives a real solution.

:func:`solve_triangular_sylvester` is that ``?trsyl`` kernel on its own.
The SHH test calls it directly for Eq. 23: there ``A`` is the
quasi-triangular block ``T11`` of the ordered Schur form of Eq. 22, so no
second Schur form is needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError, ReductionError
from repro.linalg.basics import as_square_array, schur_eigenvalues

__all__ = [
    "solve_sylvester",
    "solve_continuous_lyapunov",
    "solve_triangular_sylvester",
]


def solve_triangular_sylvester(
    t_a: np.ndarray,
    t_b: np.ndarray,
    rhs: np.ndarray,
    transpose_b: bool = False,
    tol: Optional[Tolerances] = None,
) -> np.ndarray:
    """Solve ``T_a Y + Y op(T_b) = rhs`` for Schur forms ``T_a``, ``T_b``.

    ``T_a`` and ``T_b`` must already be in Schur form: real quasi-triangular
    (1x1 and 2x2 diagonal blocks) or complex upper triangular.  ``op`` is the
    transpose when ``transpose_b`` is true, so ``T_a = T_b = T`` solves the
    Lyapunov equation ``T Y + Y T^T = rhs``.  One LAPACK ``?trsyl`` call.

    Raises
    ------
    ReductionError
        If an eigenvalue of ``T_a`` is within the threshold of the negative
        of an eigenvalue of ``T_b``.
    """
    tol = tol or DEFAULT_TOLERANCES
    eig_a = schur_eigenvalues(t_a)
    eig_b = schur_eigenvalues(t_b)
    scale = max(1.0, float(np.abs(eig_a).max()), float(np.abs(eig_b).max()))
    if np.min(np.abs(eig_a[:, None] + eig_b[None, :])) <= 1e3 * tol.rank_rtol * scale:
        raise ReductionError(
            "Sylvester equation is (numerically) singular: A and -B share "
            "an eigenvalue"
        )
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (t_a, t_b, rhs))
    solution, factor, info = trsyl(
        t_a, t_b, rhs, tranb="T" if transpose_b else "N"
    )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ?trsyl")
    return solution / factor


def solve_sylvester(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    c_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> np.ndarray:
    """Solve the Sylvester equation ``A X + X B = C``.

    Parameters
    ----------
    a_matrix, b_matrix:
        Square coefficient matrices of sizes ``m x m`` and ``n x n``.
    c_matrix:
        Right-hand side of size ``m x n``.

    Raises
    ------
    ReductionError
        If ``A`` and ``-B`` share an eigenvalue (within a crude numerical
        threshold), making the equation singular.
    """
    tol = tol or DEFAULT_TOLERANCES
    a_arr = as_square_array(a_matrix, "A")
    b_arr = as_square_array(b_matrix, "B")
    c_arr = np.asarray(c_matrix)
    c_arr = c_arr.astype(np.result_type(c_arr.dtype, float))
    if c_arr.shape != (a_arr.shape[0], b_arr.shape[0]):
        raise DimensionError(
            f"C must have shape {(a_arr.shape[0], b_arr.shape[0])}, got {c_arr.shape}"
        )
    if a_arr.size == 0 or b_arr.size == 0:
        return np.zeros_like(c_arr)

    complex_data = any(np.iscomplexobj(x) for x in (a_arr, b_arr, c_arr))
    output = "complex" if complex_data else "real"
    t_a, u_a = scipy.linalg.schur(a_arr, output=output)
    t_b, u_b = scipy.linalg.schur(b_arr, output=output)
    rhs = u_a.conj().T @ c_arr @ u_b
    solution = solve_triangular_sylvester(t_a, t_b, rhs, False, tol)
    return u_a @ solution @ u_b.conj().T


def solve_continuous_lyapunov(
    a_matrix: np.ndarray, q_matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``A Y + Y A^T + Q = 0``.

    This is the form used in Eq. 23 of the paper to decouple the stable and
    anti-stable parts of the Hamiltonian state matrix of ``Phi(s)``.  Real
    data is solved from the one real Schur form ``A = U T U^T``
    (``A^T = U T^T U^T``) and :func:`solve_triangular_sylvester`; complex
    data goes through :func:`solve_sylvester`.
    """
    tol = tol or DEFAULT_TOLERANCES
    a_arr = as_square_array(a_matrix, "A")
    q_arr = as_square_array(q_matrix, "Q")
    if a_arr.shape != q_arr.shape:
        raise DimensionError("A and Q must have the same shape")
    if np.iscomplexobj(a_arr) or np.iscomplexobj(q_arr):
        return solve_sylvester(a_arr, a_arr.T, -q_arr, tol)
    if a_arr.size == 0:
        return np.zeros(q_arr.shape)
    t_a, u_a = scipy.linalg.schur(a_arr, output="real")
    rhs = -(u_a.T @ q_arr @ u_a)
    return u_a @ solve_triangular_sylvester(t_a, t_a, rhs, True, tol) @ u_a.T
