"""Ordered Schur decompositions and stable invariant subspaces.

The proposed passivity test needs the stable invariant subspace of a
Hamiltonian matrix (Eq. 22 of the paper): the spectrum of the Hamiltonian
state matrix of ``Phi(s)`` is symmetric with respect to the imaginary axis and
— provided the original system has no poles on the imaginary axis — splits
evenly into a stable and an anti-stable half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import ReductionError, StructureError
from repro.linalg.basics import as_square_array, matrix_scale, schur_eigenvalues
from repro.linalg.hamiltonian import check_even_dimension, is_hamiltonian

__all__ = [
    "stable_invariant_subspace",
    "hamiltonian_stable_invariant_subspace",
    "HamiltonianSplitting",
    "imaginary_axis_eigenvalues",
]


def _ordered_real_schur(
    arr: np.ndarray, tol: Tolerances
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Real Schur form ``(T, Z, sdim)`` with the strictly stable eigenvalues leading."""
    threshold = -tol.eig_imag_atol * matrix_scale(arr)
    return scipy.linalg.schur(
        arr, output="real", sort=lambda real, imag: real < threshold
    )


def stable_invariant_subspace(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the invariant subspace for open-left-half-plane eigenvalues.

    Returns
    -------
    (basis, eigenvalues):
        ``basis`` has one column per strictly stable eigenvalue (counting
        multiplicity); ``eigenvalues`` are the corresponding eigenvalues in the
        order produced by the sorted Schur form.
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros(0, dtype=complex)
    t_form, z_form, sdim = _ordered_real_schur(arr, tol)
    return z_form[:, :sdim], schur_eigenvalues(t_form[:sdim, :sdim])


def imaginary_axis_eigenvalues(
    matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Eigenvalues of ``matrix`` lying (numerically) on the imaginary axis."""
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    eigenvalues = np.linalg.eigvals(arr)
    threshold = tol.eig_imag_atol * matrix_scale(arr)
    return eigenvalues[np.abs(eigenvalues.real) <= threshold]


@dataclass(frozen=True)
class HamiltonianSplitting:
    """Stable/anti-stable splitting of a Hamiltonian matrix.

    Attributes
    ----------
    x1, x2:
        Blocks of the orthonormal stable-invariant-subspace basis
        ``[X1; X2]`` (each ``n x n`` for a ``2n x 2n`` Hamiltonian matrix).
    stable_block:
        The quasi-triangular leading block ``T11`` of the ordered real Schur
        form, i.e. the matrix ``Lambda`` with ``H [X1; X2] = [X1; X2] Lambda``
        whose spectrum is the stable half of ``spec(H)``.
    stable_eigenvalues:
        The stable eigenvalues themselves.
    """

    x1: np.ndarray
    x2: np.ndarray
    stable_block: np.ndarray
    stable_eigenvalues: np.ndarray

    @property
    def basis(self) -> np.ndarray:
        """The full ``2n x n`` orthonormal basis ``[X1; X2]``."""
        return np.vstack([self.x1, self.x2])


def hamiltonian_stable_invariant_subspace(
    matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    check_structure: bool = True,
) -> HamiltonianSplitting:
    """Stable invariant subspace of a Hamiltonian matrix (paper Eq. 22).

    Raises
    ------
    ReductionError
        If the matrix has eigenvalues on the imaginary axis (within tolerance)
        or the stable subspace does not have dimension ``n``.  In the passivity
        pipeline this situation signals that the proper part of ``Phi`` has
        imaginary-axis poles, which contradicts the standing stability
        assumption on the model.
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = as_square_array(matrix)
    half = check_even_dimension(arr, "Hamiltonian matrix")
    if check_structure and not is_hamiltonian(arr, tol):
        raise StructureError(
            "hamiltonian_stable_invariant_subspace requires a Hamiltonian matrix"
        )

    t_form, z_form, sdim = _ordered_real_schur(arr, tol)
    if sdim != half:
        raise ReductionError(
            "the Hamiltonian matrix does not split evenly into stable and "
            f"anti-stable parts (stable dimension {sdim}, expected {half}); "
            "eigenvalues on the imaginary axis are present"
        )
    # H Z = Z T with T block upper triangular, so H [X1; X2] = [X1; X2] T11.
    stable_block = t_form[:half, :half]
    return HamiltonianSplitting(
        x1=z_form[:half, :half],
        x2=z_form[half:, :half],
        stable_block=stable_block,
        stable_eigenvalues=schur_eigenvalues(stable_block),
    )
