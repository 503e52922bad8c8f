"""Extraction of the first Markov parameter ``M1`` via generalized eigenvector chains.

This implements the machinery of Section 3.4 of the paper: for a minimal,
(potentially) passive descriptor system every impulsive mode is both
controllable and observable, the generalized eigenvector chains at infinity
have grade at most 2, and ``M1`` can be recovered by projecting the system
onto the grade-1/grade-2 chain subspaces (Eqs. 24-25) — no canonical form is
needed, only SVD-based kernels and a couple of small solves.

The same chain data also reveals the presence of grade-3 (or higher) chains,
which signal nonzero Markov parameters ``M_k`` with ``k >= 2`` and therefore a
non-passive system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.exceptions import ReductionError
from repro.linalg.subspaces import (
    column_space,
    null_space,
    rank_from_singular_values,
)

__all__ = ["InfiniteChainData", "impulsive_chain_data", "extract_m1_via_chains"]


@dataclass(frozen=True)
class InfiniteChainData:
    """Grade-1/grade-2 generalized eigenvector chains at infinity.

    Attributes
    ----------
    v1_right / v2_right:
        Right grade-1 directions (``E v1 = 0`` with ``A v1 ∈ Im E``) and a
        corresponding set of grade-2 partners (``E v2 = A v1``).
    v1_left / v2_left:
        Their left (dual) counterparts computed from ``(E^T, A^T)``.
    n_chains:
        Number of right chains (columns of ``v1_right``).
    has_higher_grade:
        True when a grade-3 vector exists, i.e. some combination of the
        grade-2 vectors can itself be continued (``A v2 ∈ Im E`` for a nonzero
        ``v2`` in the grade-2 span).  For a minimal realization this happens
        exactly when some ``M_k`` with ``k >= 2`` is nonzero.
    """

    v1_right: np.ndarray
    v2_right: np.ndarray
    v1_left: np.ndarray
    v2_left: np.ndarray
    n_chains: int
    has_higher_grade: bool


def impulsive_chain_data(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> InfiniteChainData:
    """Compute the grade-1/grade-2 chain structure at infinity of a descriptor system.

    One SVD ``E = U S V^T`` supplies every subspace the chains need:
    ``Ker E = V2`` and ``Ker E^T = (Im E)^perp = U2`` (the trailing columns),
    and the pseudo-inverse that yields the grade-2 partners.  A grade-1 root
    ``v1 = V2 y`` has a partner iff ``A v1 ∈ Im E``, i.e. ``A22 y = 0`` with
    ``A22 = U2^T A V2``; the left roots are the kernel of ``A22^T``.
    """
    tol = tol or DEFAULT_TOLERANCES
    e_matrix, a_matrix = system.e, system.a
    n = e_matrix.shape[0]
    u_e, svals, vt_e = np.linalg.svd(e_matrix)
    r = rank_from_singular_values(svals, tol)
    ker_e, ker_et = vt_e[r:, :].T, u_e[:, r:]
    if r == n:
        empty = np.zeros((n, 0))
        return InfiniteChainData(empty, empty, empty, empty, 0, False)

    # Rank decisions are anchored to the scale of A: entries of the projected
    # blocks that should vanish exactly only contain round-off of that size.
    a_scale = max(1.0, float(np.linalg.norm(a_matrix)))
    a22 = ker_et.T @ a_matrix @ ker_e
    u22, svals_22, vt22 = np.linalg.svd(a22)
    r22 = rank_from_singular_values(svals_22, tol, reference_scale=a_scale)
    v1_right = column_space(ker_e @ vt22[r22:, :].T, tol)
    v1_left = column_space(ker_et @ u22[:, r22:], tol)

    # Grade-2 partners E v2 = A v1 (and E^T w2 = A^T w1): the minimum-norm
    # solutions through the pseudo-inverse, with lstsq's own cut-off.
    keep = svals > np.finfo(float).eps * n * svals[0]
    inv_s = 1.0 / svals[keep][:, None]
    v2_right = vt_e[keep, :].T @ (inv_s * (u_e[:, keep].T @ (a_matrix @ v1_right)))
    v2_left = u_e[:, keep] @ (inv_s * (vt_e[keep, :] @ (a_matrix.T @ v1_left)))

    has_higher = False
    if v1_right.shape[1]:
        # A grade-3 chain exists iff some nonzero grade-1 root v1 = V1 y admits
        # a grade-2 partner v2 = E^+ A v1 + (Ker E) k with A v2 ∈ Im E, i.e.
        # U2^T A (V2 y + Ker E k) = 0 has a solution with y != 0.
        stacked = np.hstack([ker_et.T @ (a_matrix @ v2_right), a22])
        continuation = null_space(stacked, tol, reference_scale=a_scale)
        if continuation.shape[1]:
            # The null-space basis is orthonormal, so the size of its y-block
            # can be judged on an absolute scale: y-components at round-off
            # level belong to kernel-only solutions and do not indicate a
            # grade-3 continuation.
            y_part = continuation[: v2_right.shape[1], :]
            has_higher = bool(
                np.linalg.norm(y_part, ord=2) > tol.grade3_continuation_atol
            )

    return InfiniteChainData(
        v1_right=v1_right,
        v2_right=v2_right,
        v1_left=v1_left,
        v2_left=v2_left,
        n_chains=v1_right.shape[1],
        has_higher_grade=has_higher,
    )


def extract_m1_via_chains(
    system: DescriptorSystem,
    chain_data: Optional[InfiniteChainData] = None,
    tol: Optional[Tolerances] = None,
) -> np.ndarray:
    """Extract ``M1`` using the chain projection of Eqs. 24-25.

    The system is projected onto the impulsive deflating subspaces
    ``Z_R = [V^(1)_c, V^(2)_c]`` and ``Z_L = [V^(1)_o, V^(2)_o]`` and the first
    Markov parameter of the projected subsystem is returned:
    ``M1 = -C_inf N A_inf^{-1} B_inf`` with ``N = A_inf^{-1} E_inf``.

    Raises
    ------
    ReductionError
        If the projected ``A_inf`` is singular (which contradicts the grade-2
        structure and indicates either a deeper singularity or a non-minimal
        realization); callers should fall back to the spectral-separation
        based :func:`repro.descriptor.markov.first_markov_parameter`.
    """
    tol = tol or DEFAULT_TOLERANCES
    data = chain_data or impulsive_chain_data(system, tol)
    m_dim = (system.n_outputs, system.n_inputs)
    if data.n_chains == 0:
        return np.zeros(m_dim)

    z_right = np.hstack([data.v1_right, data.v2_right])
    z_left = np.hstack([data.v1_left, data.v2_left])
    e_inf = z_left.T @ system.e @ z_right
    a_inf = z_left.T @ system.a @ z_right
    b_inf = z_left.T @ system.b
    c_inf = system.c @ z_right

    size = a_inf.shape[0]
    svals = np.linalg.svd(a_inf, compute_uv=False)
    if svals.size == 0 or svals[-1] <= tol.rank_rtol * max(1.0, svals[0]) * size:
        raise ReductionError(
            "chain-projected A_inf is singular; cannot extract M1 via Eq. 25"
        )
    a_inv_b = np.linalg.solve(a_inf, b_inf)
    nilpotent = np.linalg.solve(a_inf, e_inf)
    return -(c_inf @ nilpotent @ a_inv_b)
