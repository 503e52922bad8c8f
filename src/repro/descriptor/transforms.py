"""System equivalence transformations (Section 2.3-2.4 of the paper).

Two notions are used throughout the reduction pipeline:

* *restricted system equivalence* (r.s.e.): ``(Q^T E Z, Q^T A Z, Q^T B, C Z, D)``
  with nonsingular ``Q, Z`` — the descriptor-system generalization of a
  similarity transform; it preserves the transfer function and the complete
  mode structure.
* *strong equivalence* (s.e.): the more general transform of Eq. 6 which
  additionally allows feedback/feedforward terms ``M, R`` with
  ``M^T E = E R = 0``; it still preserves the transfer function but may change
  the feedthrough ``D``.

The module also provides the SVD coordinate form of Eq. 7, which is the
canonical starting point of the impulse-mode tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError, StructureError
from repro.descriptor.system import DescriptorSystem
from repro.linalg.basics import matrix_scale
from repro.linalg.subspaces import rank_from_singular_values

__all__ = [
    "restricted_system_equivalence",
    "strong_equivalence",
    "SvdCoordinateForm",
    "svd_coordinate_form",
]


def restricted_system_equivalence(
    system: DescriptorSystem,
    left: np.ndarray,
    right: np.ndarray,
) -> DescriptorSystem:
    """Apply the r.s.e. transform ``(Q^T E Z, Q^T A Z, Q^T B, C Z, D)``.

    ``left`` plays the role of ``Q`` and ``right`` the role of ``Z``; both must
    be square and nonsingular (this is *not* verified beyond shape checking —
    the reduction algorithms construct them explicitly).  Rectangular
    projection matrices (tall ``Q``/``Z`` with orthonormal columns) are also
    accepted: they realise the order-*reducing* projections of Eq. 17.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    n = system.order
    if left.shape[0] != n or right.shape[0] != n:
        raise DimensionError("transformation matrices must have n rows")
    return DescriptorSystem(
        left.T @ system.e @ right,
        left.T @ system.a @ right,
        left.T @ system.b,
        system.c @ right,
        system.d,
    )


def strong_equivalence(
    system: DescriptorSystem,
    left: np.ndarray,
    right: np.ndarray,
    output_feedback: Optional[np.ndarray] = None,
    input_feedforward: Optional[np.ndarray] = None,
    tol: Optional[Tolerances] = None,
) -> DescriptorSystem:
    """Apply the strong equivalence transform of Eq. 6.

    The transform is ::

        [ -s E' + A'   B' ]   [ Q  0 ]^T  [ -s E + A   B ]  [ Z  0 ]
        [     C'       D' ] = [ M  I ]    [    C       D ]  [ R  I ]

    and requires ``M^T E = 0`` and ``E R = 0`` so that no ``s``-dependent terms
    leak into the off-diagonal blocks.  ``M`` has shape ``(n, p)`` and ``R``
    has shape ``(n, m)``.
    """
    tol = tol or DEFAULT_TOLERANCES
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    n = system.order
    m_fb = (
        np.zeros((n, system.n_outputs))
        if output_feedback is None
        else np.asarray(output_feedback, dtype=float)
    )
    r_ff = (
        np.zeros((n, system.n_inputs))
        if input_feedforward is None
        else np.asarray(input_feedforward, dtype=float)
    )
    if m_fb.shape != (left.shape[1] if left.ndim == 2 else n, system.n_outputs):
        # M multiplies the output equation; its row dimension must match Q's columns.
        m_fb = m_fb.reshape(-1, system.n_outputs)
    scale = matrix_scale(system.e)
    if np.max(np.abs(m_fb.T @ system.e), initial=0.0) > 1e3 * tol.structure_rtol * scale:
        raise StructureError("strong equivalence requires M^T E = 0")
    if np.max(np.abs(system.e @ r_ff), initial=0.0) > 1e3 * tol.structure_rtol * scale:
        raise StructureError("strong equivalence requires E R = 0")

    e_new = left.T @ system.e @ right
    a_new = left.T @ system.a @ right
    b_new = left.T @ (system.a @ r_ff + system.b)
    c_new = (m_fb.T @ system.a + system.c) @ right
    d_new = system.d + system.c @ r_ff + m_fb.T @ system.b + m_fb.T @ system.a @ r_ff
    return DescriptorSystem(e_new, a_new, b_new, c_new, d_new)


@dataclass(frozen=True)
class SvdCoordinateForm:
    """The SVD coordinate form of Eq. 7.

    After the r.s.e. with the (orthogonal) SVD factors of ``E`` the system
    reads ::

        E -> [[Sigma_r, 0], [0, 0]],   A -> [[A11, A12], [A21, A22]],
        B -> [[B1], [B2]],             C -> [C1, C2]

    where ``Sigma_r`` is the nonsingular ``r x r`` block of singular values.

    Attributes
    ----------
    system:
        The transformed system in SVD coordinates.
    left, right:
        The orthogonal transformation matrices (``U`` and ``V`` of
        ``E = U diag(Sigma_r, 0) V^T``); the transform applied is
        ``(U^T E V, U^T A V, U^T B, C V, D)``.
    rank:
        The numerical rank ``r`` of ``E``.
    """

    system: DescriptorSystem
    left: np.ndarray
    right: np.ndarray
    rank: int

    @property
    def a22(self) -> np.ndarray:
        """The trailing ``(n-r) x (n-r)`` block of the transformed ``A``."""
        r = self.rank
        return self.system.a[r:, r:]

    @property
    def blocks(self) -> Tuple[np.ndarray, ...]:
        """Return ``(A11, A12, A21, A22, B1, B2, C1, C2)``."""
        r = self.rank
        a = self.system.a
        b = self.system.b
        c = self.system.c
        return (
            a[:r, :r], a[:r, r:], a[r:, :r], a[r:, r:],
            b[:r, :], b[r:, :], c[:, :r], c[:, r:],
        )


def svd_coordinate_form(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> SvdCoordinateForm:
    """Transform a descriptor system to SVD coordinates (Eq. 7).

    The singular value decomposition ``E = U diag(Sigma_r, 0) V^T`` supplies
    orthogonal ``U, V``; the r.s.e. with these matrices exposes the structure
    needed by the impulse-mode tests of Section 2.5.
    """
    tol = tol or DEFAULT_TOLERANCES
    n = system.order
    if n == 0:
        return SvdCoordinateForm(system, np.zeros((0, 0)), np.zeros((0, 0)), 0)
    u_matrix, singular_values, vt_matrix = np.linalg.svd(system.e)
    rank = rank_from_singular_values(singular_values, tol)
    transformed = restricted_system_equivalence(system, u_matrix, vt_matrix.T)
    return SvdCoordinateForm(
        system=transformed, left=u_matrix, right=vt_matrix.T, rank=rank
    )
