"""Structure-preserving reductions of the Phi realization (Sections 3.1-3.2).

Three steps are implemented:

* :func:`remove_impulsive_modes` — the one-shot orthogonal projection of
  Section 3.1.  The impulse-unobservable directions ``Z_ob`` of the SHH
  realization of ``Phi`` are computed with SVD-based kernel intersections; by
  the J-duality (Eqs. 12-13) their images ``J Z_ob`` are exactly the
  impulse-uncontrollable directions, so one projection pair removes both
  families at once.  Choosing the right projector as the orthogonal complement
  of ``span{Z_ob, J A_phi Z_ob}`` and the left projector as its ``J``-image
  keeps the transfer function (block-triangularization argument) and turns the
  pencil into a skew-symmetric/symmetric one, exactly as displayed in Eq. 17.

* :func:`remove_nondynamic_modes` — the Schur-complement strong equivalence of
  Eqs. 18-19 that eliminates the remaining nondynamic (index-1 infinite)
  modes, leaving a nonsingular skew-symmetric ``E``.

* :func:`restore_shh_structure` — the left multiplication by ``-J`` of Eq. 20
  that turns the skew-symmetric/symmetric pencil back into a (nonsingular)
  skew-Hamiltonian/Hamiltonian pencil so that the standard-state-space
  conversion of Eq. 21 applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.adjoint import PhiRealization, adjoint_system
from repro.descriptor.system import DescriptorSystem
from repro.exceptions import ReductionError, SingularPencilError
from repro.linalg.basics import is_skew_symmetric, is_symmetric
from repro.linalg.hamiltonian import j_times
from repro.linalg.subspaces import (
    column_space,
    null_space,
    numerical_rank,
    orth_complement,
    rank_from_singular_values,
)

__all__ = [
    "PROBE_POINT",
    "ImpulsiveReduction",
    "remove_impulsive_modes",
    "NondynamicReduction",
    "remove_nondynamic_modes",
    "ShhRestoration",
    "restore_shh_structure",
]

#: Probe point of the transfer-function checks of both reductions.  One point
#: lets the nondynamic step reuse the impulsive step's evaluation of the
#: system they share.
PROBE_POINT = 0.7 + 1.3j


@dataclass(frozen=True)
class ImpulsiveReduction:
    """Result of the impulsive-mode removal (Section 3.1).

    Attributes
    ----------
    system:
        The reduced descriptor system ``(E1, A1, B1, C1, D1)`` with ``E1``
        skew-symmetric, ``A1`` symmetric and ``B1 = C1^T``.
    n_removed:
        Number of state directions removed (``2 k`` with ``k`` the dimension of
        the impulse-unobservable subspace).
    unobservable_basis:
        The basis ``Z_ob`` of impulse-unobservable directions that was found.
    right_projector / left_projector:
        The kept right/left bases (``Z_co`` and ``J Z_co``).
    transfer_defect:
        Relative mismatch of ``Phi`` evaluated before/after the reduction at a
        probe point — a numerical health indicator that should be at round-off
        level.
    probe_response:
        The reduced system's transfer function at the probe point, or
        ``None`` when the point is (numerically) a pole of it.
        :func:`remove_nondynamic_modes` takes it to skip its own LU of the
        same matrix.
    """

    system: DescriptorSystem
    n_removed: int
    unobservable_basis: np.ndarray
    right_projector: np.ndarray
    left_projector: np.ndarray
    transfer_defect: float
    probe_response: Optional[np.ndarray] = None


def _phi_unobservable_directions(
    phi: PhiRealization, tol: Tolerances
) -> np.ndarray:
    """Impulse-unobservable directions of the Phi realization (Eq. 11).

    These are the vectors ``z`` with ``E_phi z = 0``, ``C_phi z = 0`` and
    ``A_phi z ∈ Im E_phi``.  Since ``E_phi = diag(E, E^T)``, one SVD
    ``E = U S V^T`` of the order-n block supplies both its kernel
    ``diag(V2, U2)`` and the complement of its range ``diag(U2, V2)`` (``U2``,
    ``V2`` the trailing singular vectors); the two remaining conditions are
    imposed on the (small) coordinate vectors within the kernel.
    """
    n = phi.order
    half = phi.half_order
    u_e, svals, vt_e = np.linalg.svd(phi.e_phi[:half, :half])
    rank_e = rank_from_singular_values(svals, tol)
    if rank_e == half:
        return np.zeros((n, 0))
    u2, v2 = u_e[:, rank_e:], vt_e[rank_e:, :].T
    ker_e = scipy.linalg.block_diag(v2, u2)
    range_e_perp = scipy.linalg.block_diag(u2, v2)

    # Restrict Ker C_phi to Ker E_phi: candidates = ker_e @ null(C_phi ker_e).
    c_scale = max(1.0, float(np.linalg.norm(phi.c_phi)))
    kernel_coeff = null_space(phi.c_phi @ ker_e, tol, reference_scale=c_scale)
    if kernel_coeff.shape[1] == 0:
        return np.zeros((n, 0))
    candidates = ker_e @ kernel_coeff

    # Impose A_phi z ∈ Im E_phi, i.e. the component of A_phi z along the
    # orthogonal complement of the range must vanish.
    a_scale = max(1.0, float(np.linalg.norm(phi.a_phi)))
    reduced = range_e_perp.T @ (phi.a_phi @ candidates)
    coefficients = null_space(reduced, tol, reference_scale=a_scale)
    if coefficients.shape[1] == 0:
        return np.zeros((n, 0))
    return column_space(candidates @ coefficients, tol)


def remove_impulsive_modes(
    phi: PhiRealization,
    tol: Optional[Tolerances] = None,
    probe_point: complex = PROBE_POINT,
) -> ImpulsiveReduction:
    """Remove the impulse-unobservable/uncontrollable directions of ``Phi`` (Eq. 17).

    The probe-point transfer check is skipped automatically when the probe is
    (nearly) a pole of ``Phi``.
    """
    tol = tol or DEFAULT_TOLERANCES
    z_ob = _phi_unobservable_directions(phi, tol)
    n = phi.order

    if z_ob.shape[1] == 0:
        # Nothing to remove; still rotate into the skew-symmetric/symmetric
        # coordinates (left projector J) expected by the next reduction step.
        # With Z_co = I the projections are J^T X = -J X, a signed row swap.
        z_co = np.eye(n)
        left = j_times(z_co)
        e_reduced = -j_times(phi.e_phi)
        a_reduced = -j_times(phi.a_phi)
        b_reduced = -j_times(phi.b_phi)
        c_reduced = phi.c_phi
    else:
        removed_right = np.hstack([z_ob, j_times(phi.a_phi @ z_ob)])
        if numerical_rank(removed_right, tol) != removed_right.shape[1]:
            raise ReductionError(
                "impulsive removal produced a rank-deficient removal space; the "
                "realization violates the structural assumptions of the test"
            )
        z_co = orth_complement(column_space(removed_right, tol), n, tol)
        left = j_times(z_co)
        e_reduced = left.T @ phi.e_phi @ z_co
        a_reduced = left.T @ phi.a_phi @ z_co
        b_reduced = left.T @ phi.b_phi
        c_reduced = phi.c_phi @ z_co
    # Entries of the projected E that are pure round-off relative to the
    # original E must be flushed to zero: downstream rank decisions (the
    # impulse-free check) are made relative to the largest singular value of
    # the *reduced* matrix and would otherwise mistake noise for rank.
    noise_floor = 100 * np.finfo(float).eps * max(
        1.0, float(np.linalg.norm(phi.e_phi))
    )
    e_reduced[np.abs(e_reduced) <= noise_floor] = 0.0
    reduced = DescriptorSystem(e_reduced, a_reduced, b_reduced, c_reduced, phi.d_phi)

    reduced_value = _safe_probe(reduced, probe_point, tol)
    return ImpulsiveReduction(
        system=reduced,
        n_removed=n - z_co.shape[1],
        unobservable_basis=z_ob,
        right_projector=z_co,
        left_projector=left,
        transfer_defect=_transfer_defect(
            _safe_probe(phi, probe_point, tol), reduced_value
        ),
        probe_response=reduced_value,
    )


def _probe_response(
    system: DescriptorSystem,
    s: complex,
    tol: Tolerances,
    screen_order: Optional[int] = None,
) -> np.ndarray:
    """``G(s)`` from one LU of ``s E - A``, screened like :meth:`DescriptorSystem.evaluate`.

    The smallest singular value that ``evaluate`` computes with a full SVD is
    estimated here as ``||M||_1 * rcond`` from LAPACK ``gecon`` on the LU
    factors, and compared against the same threshold.  ``screen_order``
    replaces the system order in that threshold when ``s E - A`` is one
    diagonal block of a larger pencil that ``evaluate`` would have screened.
    """
    n = system.order
    if n == 0:
        return system.d.astype(complex)
    shifted = s * system.e.astype(complex) - system.a
    getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("getrf", "gecon", "getrs"), (shifted,)
    )
    lu, piv, _ = getrf(shifted)
    norm_1 = float(np.abs(shifted).sum(axis=0).max())
    rcond, _ = gecon(lu, norm_1, norm="1")
    scale = max(1.0, float(np.abs(s)), float(np.max(np.abs(system.a), initial=1.0)))
    if norm_1 * rcond <= 100 * tol.rank_rtol * scale * (screen_order or n):
        raise SingularPencilError(
            f"s E - A is singular at s = {s}; the point is a pole of G(s)"
        )
    solution, _ = getrs(lu, piv, system.b.astype(complex))
    return system.d + system.c @ solution


def _phi_probe_response(phi: PhiRealization, s: complex, tol: Tolerances) -> np.ndarray:
    """``Phi(s) = D_phi + G(s) + G~(s)`` from two order-n LUs.

    ``s E_phi - A_phi = diag(s E - A, s E^T + A^T)``, so the order-2n probe
    splits into ``G`` and its adjoint realization.  For a block-diagonal
    matrix ``||M||_1 * rcond`` is the smaller of the blocks' values, so
    screening each block against the order-2n threshold refuses the same
    probe points as the order-2n LU.
    """
    half = phi.half_order
    g = DescriptorSystem(
        phi.e_phi[:half, :half],
        phi.a_phi[:half, :half],
        phi.c_phi[:, half:].T,
        phi.c_phi[:, :half],
    )
    return phi.d_phi + sum(
        _probe_response(part, s, tol, screen_order=phi.order)
        for part in (g, adjoint_system(g))
    )


def _safe_probe(
    system: Union[DescriptorSystem, PhiRealization], probe: complex, tol: Tolerances
) -> Optional[np.ndarray]:
    """Transfer function at a probe point, ``None`` when the point is a pole."""
    try:
        if isinstance(system, PhiRealization):
            return _phi_probe_response(system, probe, tol)
        return _probe_response(system, probe, tol)
    except (SingularPencilError, np.linalg.LinAlgError):
        return None


def _transfer_defect(
    value_original: Optional[np.ndarray], value_reduced: Optional[np.ndarray]
) -> float:
    """Relative mismatch of two probe values (``nan`` if either is unevaluable)."""
    if value_original is None or value_reduced is None:
        return float("nan")
    scale = max(1.0, float(np.max(np.abs(value_original))))
    return float(np.max(np.abs(value_original - value_reduced))) / scale


def _safe_transfer_defect(
    original: Union[DescriptorSystem, PhiRealization],
    reduced: DescriptorSystem,
    probe: complex,
    tol: Tolerances,
) -> float:
    """Relative transfer-function mismatch at a probe point (``nan`` if unevaluable)."""
    return _transfer_defect(
        _safe_probe(original, probe, tol), _safe_probe(reduced, probe, tol)
    )


@dataclass(frozen=True)
class NondynamicReduction:
    """Result of the nondynamic-mode elimination (Eqs. 18-19).

    Attributes
    ----------
    system:
        The reduced system with nonsingular skew-symmetric ``E``.
    n_removed:
        Number of nondynamic modes removed (dimension of ``Ker E1``).
    transfer_defect:
        Probe-point transfer mismatch (see :class:`ImpulsiveReduction`).
    """

    system: DescriptorSystem
    n_removed: int
    transfer_defect: float


def remove_nondynamic_modes(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    probe_point: complex = PROBE_POINT,
    e_svd: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    probe_response: Optional[np.ndarray] = None,
) -> NondynamicReduction:
    """Eliminate the nondynamic modes of a skew-symmetric/symmetric pencil.

    ``E`` is decomposed by congruence with the orthogonal matrix
    ``U = [U1, U2]`` (``U1`` spanning ``Im E``, ``U2`` spanning ``Ker E``) into
    ``diag(E11, 0)`` with ``E11`` nonsingular; the trailing algebraic equations
    are then eliminated by the Schur complement of ``A22`` (Eq. 19).

    One full SVD ``E = U S V^T`` supplies the rank, ``U1`` (leading columns of
    ``U``) and ``U2`` (trailing rows of ``V^T``; ``Ker E = (Im E)^perp`` for a
    skew-symmetric ``E``).  ``e_svd`` passes in that factorization when the
    caller already holds it (the impulse-free check factors the same ``E``).

    The probe point defaults to the one of :func:`remove_impulsive_modes`, so
    the input's transfer function there is the impulsive step's
    :attr:`ImpulsiveReduction.probe_response`.  ``probe_response`` passes it
    in, the same way as ``e_svd``, and saves the LU of ``s E - A`` at the
    input's order; it must have been evaluated at ``probe_point``.

    Raises
    ------
    ReductionError
        If ``A22`` is singular — i.e. the system is *not* impulse-free, which
        in the passivity flow means the original system is not passive.
    """
    tol = tol or DEFAULT_TOLERANCES
    n = system.order
    u_e, svals, vt_e = e_svd if e_svd is not None else np.linalg.svd(system.e)
    r = rank_from_singular_values(svals, tol)
    if r == n:
        return NondynamicReduction(system=system, n_removed=0, transfer_defect=0.0)

    u_matrix = np.hstack([u_e[:, :r], vt_e[r:, :].T])
    e_t = u_matrix.T @ system.e @ u_matrix
    a_t = u_matrix.T @ system.a @ u_matrix
    b_t = u_matrix.T @ system.b
    c_t = system.c @ u_matrix

    a11, a12 = a_t[:r, :r], a_t[:r, r:]
    a21, a22 = a_t[r:, :r], a_t[r:, r:]
    b1, b2 = b_t[:r, :], b_t[r:, :]
    c1, c2 = c_t[:, :r], c_t[:, r:]

    size = a22.shape[0]
    svals_22 = np.linalg.svd(a22, compute_uv=False)
    if svals_22[-1] <= tol.rank_rtol * max(1.0, svals_22[0]) * size:
        raise ReductionError(
            "A22 is singular while eliminating nondynamic modes: the system "
            "still contains impulsive modes"
        )
    a22_inv_a21 = np.linalg.solve(a22, a21)
    a22_inv_b2 = np.linalg.solve(a22, b2)

    e_new = e_t[:r, :r]
    a_new = a11 - a12 @ a22_inv_a21
    b_new = b1 - a12 @ a22_inv_b2
    c_new = c1 - c2 @ a22_inv_a21
    d_new = system.d - c2 @ a22_inv_b2
    reduced = DescriptorSystem(e_new, a_new, b_new, c_new, d_new)

    if probe_response is None:
        transfer_defect = _safe_transfer_defect(system, reduced, probe_point, tol)
    else:
        transfer_defect = _transfer_defect(
            probe_response, _safe_probe(reduced, probe_point, tol)
        )
    return NondynamicReduction(
        system=reduced, n_removed=n - r, transfer_defect=transfer_defect
    )


@dataclass(frozen=True)
class ShhRestoration:
    """The SHH-structured regular pencil of Eq. 20.

    ``e_shh`` is nonsingular skew-Hamiltonian, ``a_shh`` Hamiltonian; the
    input/output/feedthrough matrices complete the realization of ``Phi``.
    """

    e_shh: np.ndarray
    a_shh: np.ndarray
    b_shh: np.ndarray
    c_shh: np.ndarray
    d_shh: np.ndarray

    @property
    def half_order(self) -> int:
        return self.e_shh.shape[0] // 2

    def to_descriptor(self) -> DescriptorSystem:
        return DescriptorSystem(self.e_shh, self.a_shh, self.b_shh, self.c_shh, self.d_shh)


def restore_shh_structure(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> ShhRestoration:
    """Left-multiply a skew-symmetric/symmetric pencil by ``-J`` (Eq. 20).

    Raises
    ------
    ReductionError
        If the system order is odd (a skew-symmetric nonsingular ``E`` always
        has even rank, so this indicates an upstream rank mis-decision) or the
        pencil does not have the expected symmetric/skew-symmetric structure.
    """
    tol = tol or DEFAULT_TOLERANCES
    n = system.order
    if n % 2 != 0:
        raise ReductionError(
            "cannot restore SHH structure: the reduced pencil has odd dimension"
        )
    if n and not is_skew_symmetric(system.e, tol):
        raise ReductionError("expected a skew-symmetric E before SHH restoration")
    if n and not is_symmetric(system.a, tol):
        raise ReductionError("expected a symmetric A before SHH restoration")
    return ShhRestoration(
        e_shh=-j_times(system.e),
        a_shh=-j_times(system.a),
        b_shh=-j_times(system.b),
        c_shh=system.c,
        d_shh=system.d,
    )
