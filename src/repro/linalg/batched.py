"""Stacked (batched) dense eigenvalue kernels for the small-system hot path.

The service's dominant traffic shape is thousands of order-<=100 macromodels,
where per-call Python dispatch and LAPACK setup dominate the actual O(n^3)
work.  NumPy's linalg gufuncs accept leading batch dimensions — a
``(k, n, n)`` stack runs all ``k`` factorizations inside **one** GIL-releasing
LAPACK region, with one Python call's worth of dispatch overhead for the whole
batch.  This module collects the stacked kernels the vectorized hot loops
(frequency-grid sampling, Hamiltonian crossing probes) are built on.

Every kernel applies the *same* LAPACK routine to each slice that the
per-matrix NumPy call would use, so results are bitwise identical to a Python
loop over the slices — the property the sampling regression tests pin down.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "batched_eigvalsh",
    "batched_eigvals",
    "batched_hermitian_min_eig",
    "state_space_hermitian_min_eigs",
    "group_by_shape",
]


def batched_eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, ascending per slice.

    Parameters
    ----------
    matrices:
        Array of shape ``(..., n, n)``; each trailing ``n x n`` slice is
        assumed Hermitian (only its lower triangle is read, matching
        ``np.linalg.eigvalsh``).

    Returns
    -------
    numpy.ndarray
        Real array of shape ``(..., n)`` — the sorted eigenvalues of every
        slice, computed in one gufunc call (one LAPACK ``syevd``/``heevd``
        per slice inside a single GIL-releasing region).
    """
    stack = np.asarray(matrices)
    if stack.size == 0:
        return np.zeros(stack.shape[:-1], dtype=float)
    return np.linalg.eigvalsh(stack)


def batched_eigvals(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of general square matrices.

    The stacked form of ``np.linalg.eigvals``: shape ``(..., n, n)`` in,
    complex ``(..., n)`` out, one gufunc dispatch for the whole batch.
    """
    stack = np.asarray(matrices)
    if stack.size == 0:
        return np.zeros(stack.shape[:-1], dtype=complex)
    return np.linalg.eigvals(stack)


def batched_hermitian_min_eig(values: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix in a stack.

    Parameters
    ----------
    values:
        Complex array of shape ``(..., p, p)`` — e.g. frequency responses
        ``G(j w_k)`` stacked over a grid.

    Returns
    -------
    numpy.ndarray
        Real array of shape ``(...,)`` with
        ``min eig( (M + M^H) / 2 )`` per slice — the passivity margin the
        sampling check scans for.
    """
    stack = np.asarray(values, dtype=complex)
    if stack.size == 0:
        return np.zeros(stack.shape[:-2], dtype=float)
    hermitian = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
    return batched_eigvalsh(hermitian)[..., 0]


def state_space_hermitian_min_eigs(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    omegas: Sequence[float],
) -> np.ndarray:
    """Stacked ``min eig`` of the Hermitian part of ``H(j w)`` on a grid.

    Evaluates ``H(s) = D + C (s I - A)^{-1} B`` at every ``s = j w`` of the
    grid with one stacked LU solve and one stacked Hermitian eigensolve —
    the vectorized form of the per-frequency probe loop of the Hamiltonian
    positive-realness test.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``j w I - A`` is singular at any grid point (a pole sits on the
        probe); callers fall back to the per-point loop, which can classify
        the offending frequency individually.
    """
    omega_array = np.asarray(list(omegas), dtype=float)
    a_arr = np.asarray(a, dtype=float)
    n = a_arr.shape[0]
    if omega_array.size == 0:
        return np.zeros(0, dtype=float)
    if n == 0:
        d_arr = np.asarray(d, dtype=complex)
        return np.full(
            omega_array.size, batched_hermitian_min_eig(d_arr[None, :, :])[0]
        )
    # (k, n, n) stack of j w I - A, solved against B in one gufunc call —
    # the same zgesv per slice the scalar ``evaluate`` path runs.
    shifted = (1j * omega_array)[:, None, None] * np.eye(n) - a_arr
    solutions = np.linalg.solve(shifted, np.asarray(b).astype(complex))
    values = np.asarray(d, dtype=complex) + np.asarray(c) @ solutions
    return batched_hermitian_min_eig(values)


def group_by_shape(
    arrays: Iterable[np.ndarray],
) -> Dict[Tuple[int, ...], List[int]]:
    """Group array indices by shape, the batching key of the stacked kernels.

    Returns ``shape -> [indices]`` in first-seen order per group, so a caller
    can stack each group with ``np.stack`` and scatter results back by index.
    """
    groups: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
    for index, array in enumerate(arrays):
        groups[tuple(np.asarray(array).shape)].append(index)
    return dict(groups)
