"""Elementary orthogonal transformations: Householder reflectors and Givens rotations.

These are the building blocks of the Paige/Van Loan (PVL) reduction of
skew-Hamiltonian matrices (:mod:`repro.linalg.skew_hamiltonian_schur`), which
applies its reflectors to the panel's accumulated transformation.  Every
application is an in-place rank-one update (one matrix-vector product and one
rank-one subtraction) or a row/column-pair rotation.  A reflector acting on a
contiguous index window is applied through a slice view, so nothing is copied,
and when that view is contiguous in memory the subtraction is a single BLAS
``dger`` call.  The overall reduction keeps its O(n^3) complexity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg.blas import dger

__all__ = [
    "householder_vector",
    "apply_householder_left",
    "apply_householder_right",
    "givens_rotation",
    "apply_givens_left",
    "apply_givens_right",
]


def householder_vector(x: np.ndarray) -> Tuple[np.ndarray, float]:
    """Compute a Householder reflector ``H = I - beta v v^T`` with ``H x = ±||x|| e_1``.

    Returns
    -------
    v:
        The (unnormalized) Householder vector with ``v[0] = 1``.
    beta:
        The scalar such that ``H = I - beta * outer(v, v)``; ``beta = 0`` means
        the reflector is the identity (``x`` already lies along ``e_1``).
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n == 0:
        return np.zeros(0), 0.0
    v = x.copy()
    sigma = float(np.dot(x[1:], x[1:]))
    v[0] = 1.0
    if sigma == 0.0:
        return v, 0.0
    mu = np.sqrt(x[0] ** 2 + sigma)
    if x[0] <= 0.0:
        v0 = x[0] - mu
    else:
        v0 = -sigma / (x[0] + mu)
        if v0 == 0.0:
            # The tail underflows against x[0] > 0: H is the identity to
            # working precision, and v = x / v0 would divide by zero.
            return v, 0.0
    beta = 2.0 * v0 ** 2 / (sigma + v0 ** 2)
    v = x.copy()
    v[0] = v0
    v = v / v0
    return v, beta


def _subtract_outer(block: np.ndarray, x: np.ndarray, y: np.ndarray, beta: float) -> None:
    """``block -= beta * outer(x, y)`` in place, ``y`` being the reflector vector.

    A Fortran-contiguous float64 ``block`` gets one BLAS ``dger`` call, which
    updates it in place without forming the outer product; any other block
    goes through numpy, with ``beta`` folded into the short vector ``y``.
    """
    if block.dtype == np.float64 and block.flags.f_contiguous:
        dger(-beta, x, y, a=block, overwrite_a=True)
    else:
        block -= np.outer(x, beta * y)


def apply_householder_left(
    matrix: np.ndarray, v: np.ndarray, beta: float, rows: slice
) -> None:
    """Apply ``H = I - beta v v^T`` from the left to the row window ``matrix[rows, :]`` in place."""
    if not isinstance(rows, slice):
        raise TypeError("rows must be a slice: an index array would update a copy")
    if beta == 0.0:
        return
    block = matrix[rows, :]
    # block -= beta v (v^T block), written on the transpose so that a
    # C-contiguous row window is a Fortran-contiguous BLAS operand.
    _subtract_outer(block.T, v @ block, v, beta)


def apply_householder_right(
    matrix: np.ndarray, v: np.ndarray, beta: float, cols: slice
) -> None:
    """Apply ``H = I - beta v v^T`` from the right to the column window ``matrix[:, cols]`` in place."""
    if not isinstance(cols, slice):
        raise TypeError("cols must be a slice: an index array would update a copy")
    if beta == 0.0:
        return
    block = matrix[:, cols]
    _subtract_outer(block, block @ v, v, beta)


def givens_rotation(a: float, b: float) -> Tuple[float, float]:
    """Compute ``c, s`` such that ``[[c, s], [-s, c]] @ [a, b] = [r, 0]``."""
    if b == 0.0:
        return 1.0, 0.0
    r = np.hypot(a, b)
    return a / r, b / r


def apply_givens_left(
    matrix: np.ndarray, c: float, s: float, i: int, j: int
) -> None:
    """Apply the rotation ``[[c, s], [-s, c]]`` to rows ``i`` and ``j`` in place."""
    row_i = matrix[i, :].copy()
    row_j = matrix[j, :].copy()
    matrix[i, :] = c * row_i + s * row_j
    matrix[j, :] = -s * row_i + c * row_j


def apply_givens_right(
    matrix: np.ndarray, c: float, s: float, i: int, j: int
) -> None:
    """Apply the transpose rotation to columns ``i`` and ``j`` in place.

    Together with :func:`apply_givens_left` this realises the orthogonal
    similarity ``G M G^T`` for the rotation ``G`` acting in the ``(i, j)``
    plane.
    """
    col_i = matrix[:, i].copy()
    col_j = matrix[:, j].copy()
    matrix[:, i] = c * col_i + s * col_j
    matrix[:, j] = -s * col_i + c * col_j
