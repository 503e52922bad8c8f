"""Positive-realness test for regular, proper, stable systems.

This is the "standard technique" (paper references [9, 10]) that closes the
proposed flow once the proper part has been extracted: a stable system
``H(s) = D + C (sI - A)^{-1} B`` with ``R = D + D^T`` nonsingular is positive
real iff the positive-real Hamiltonian matrix (see
:func:`repro.linalg.riccati.positive_real_hamiltonian`) has no purely imaginary
eigenvalues.  Purely imaginary eigenvalues ``j w0`` of that matrix are exactly
the frequencies at which ``H(j w0) + H(j w0)^*`` becomes singular, i.e. where
the Hermitian part of the frequency response can change sign.

When ``R`` is singular but positive semidefinite the library falls back to an
``epsilon``-regularized test on ``H + (eps/2) I``: if even the regularized
(strictly more positive) system fails, the original system is certainly not
positive real; if it passes, the original is positive real up to an ``eps``
margin, which is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import StateSpace
from repro.exceptions import NotStableError
from repro.linalg.basics import is_positive_definite, is_positive_semidefinite
from repro.linalg.batched import state_space_hermitian_min_eigs
from repro.linalg.invariant_subspace import imaginary_axis_eigenvalues
from repro.linalg.riccati import positive_real_hamiltonian

__all__ = ["ProperPositiveRealResult", "proper_positive_real_test"]


@dataclass(frozen=True)
class ProperPositiveRealResult:
    """Outcome of the Hamiltonian-eigenvalue positive-realness test.

    Attributes
    ----------
    is_positive_real:
        The verdict.
    imaginary_eigenvalues:
        Purely imaginary Hamiltonian eigenvalues found (empty for a positive
        real system).  Their imaginary parts are the frequencies at which the
        Hermitian part of the response loses definiteness.
    regularization:
        The ``eps`` that was added to ``D`` (0 when not needed).
    feedthrough_indefinite:
        True when ``D + D^T`` had a negative eigenvalue, which already decides
        the question without looking at eigenvalues.
    boundary_check_omega / boundary_check_min_eig:
        A sample frequency and the smallest eigenvalue of the Hermitian part
        there; used to anchor the sign when no imaginary eigenvalues exist.
    """

    is_positive_real: bool
    imaginary_eigenvalues: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=complex)
    )
    regularization: float = 0.0
    feedthrough_indefinite: bool = False
    boundary_check_omega: float = 0.0
    boundary_check_min_eig: float = 0.0


def _hermitian_part_min_eig(system: StateSpace, omega: float) -> float:
    value = system.evaluate(1j * omega)
    hermitian = 0.5 * (value + value.conj().T)
    return float(np.min(np.linalg.eigvalsh(hermitian)))


def _genuine_crossings(
    system: StateSpace, imaginary: np.ndarray, tol: Tolerances
) -> list:
    """Screen imaginary-eigenvalue candidates against the actual response.

    Each candidate frequency (and a nearby probe point) is evaluated in one
    stacked solve + stacked Hermitian eigensolve — the vectorized form of
    the per-candidate loop.  When any probe pencil is singular (a pole sits
    on a probe frequency) the stacked solve raises and the per-point
    fallback classifies the candidates individually, keeping the original
    "singular probe means crossing" semantics.
    """
    candidates = list(imaginary)
    if not candidates:
        return []
    omegas = np.array([float(ev.imag) for ev in candidates])
    probes = omegas + np.maximum(1.0, np.abs(omegas)) * 1e-3
    scale = max(1.0, float(np.max(np.abs(system.d), initial=1.0)))
    threshold = -1e2 * tol.psd_atol * scale
    try:
        min_eigs = state_space_hermitian_min_eigs(
            system.a, system.b, system.c, system.d,
            np.concatenate([omegas, probes]),
        )
    except Exception:  # singular probe somewhere: classify point by point
        crossings = []
        for eigenvalue, omega, probe in zip(candidates, omegas, probes):
            try:
                min_eig = _hermitian_part_min_eig(system, float(omega))
                probe_eig = _hermitian_part_min_eig(system, float(probe))
            except Exception:  # singular at this frequency: genuine crossing
                crossings.append(eigenvalue)
                continue
            if min(min_eig, probe_eig) < threshold:
                crossings.append(eigenvalue)
        return crossings
    at_omega, at_probe = min_eigs[: len(candidates)], min_eigs[len(candidates):]
    return [
        eigenvalue
        for eigenvalue, min_eig, probe_eig in zip(candidates, at_omega, at_probe)
        if min(min_eig, probe_eig) < threshold
    ]


def proper_positive_real_test(
    system: StateSpace,
    tol: Optional[Tolerances] = None,
    require_stable: bool = True,
) -> ProperPositiveRealResult:
    """Test positive realness of a stable proper state-space system.

    Parameters
    ----------
    system:
        The proper part ``(A, B, C, D)``; must be square (inputs == outputs).
    tol:
        Tolerance bundle.
    require_stable:
        When true (default) a :class:`NotStableError` is raised if ``A`` has
        eigenvalues outside the open left half plane; the Hamiltonian test is
        only meaningful for stable systems.
    """
    tol = tol or DEFAULT_TOLERANCES
    poles = system.poles()
    # Same rule as StateSpace.is_stable, on the one eigenvalue computation.
    if require_stable and not np.all(poles.real < -tol.eig_imag_atol):
        raise NotStableError(
            "the Hamiltonian positive-realness test requires a stable proper part"
        )

    r_matrix = system.d + system.d.T
    # An indefinite D + D^T means H(j w) + H(j w)^* is indefinite at w -> inf.
    if not is_positive_semidefinite(r_matrix, tol):
        return ProperPositiveRealResult(
            is_positive_real=False, feedthrough_indefinite=True
        )

    if system.order == 0:
        # Constant system: positive real iff D + D^T is PSD, already verified.
        return ProperPositiveRealResult(
            is_positive_real=True,
            boundary_check_min_eig=float(
                np.min(np.linalg.eigvalsh(0.5 * (r_matrix + r_matrix.T)))
            ),
        )

    regularization = 0.0
    d_eff = system.d
    if not is_positive_definite(r_matrix, tol):
        # Singular-but-PSD R: regularize.  The margin is scaled to the system.
        scale = max(
            1.0,
            float(np.max(np.abs(system.d), initial=0.0)),
            float(np.max(np.abs(system.c), initial=0.0))
            * float(np.max(np.abs(system.b), initial=0.0)),
        )
        regularization = 1e3 * tol.psd_atol * scale
        d_eff = system.d + 0.5 * regularization * np.eye(system.d.shape[0])

    hamiltonian = positive_real_hamiltonian(system.a, system.b, system.c, d_eff)
    imaginary = imaginary_axis_eigenvalues(hamiltonian, tol)

    # The Hamiltonian matrix inherits the poles' mirror images only through the
    # spectral condition on Phi; eigenvalues *at* the origin coming from exact
    # lossless blocking zeros at w = 0 are tolerated if the Hermitian part is
    # still PSD there.  We therefore double-check any imaginary candidates
    # against the actual frequency response before declaring failure.
    genuine_crossings = _genuine_crossings(system, imaginary, tol)

    # Anchor the sign of the Hermitian part at a frequency away from any
    # crossing: with no genuine crossings the sign is constant over frequency.
    anchor_omega = 0.0
    moduli = np.abs(poles)
    if moduli.size:
        anchor_omega = float(np.median(moduli[moduli > 0])) if np.any(moduli > 0) else 1.0
    anchor_value = system.evaluate(1j * anchor_omega)
    anchor_scale = max(1.0, float(np.max(np.abs(anchor_value))))
    anchor_min_eig = float(
        np.min(np.linalg.eigvalsh(0.5 * (anchor_value + anchor_value.conj().T)))
    )

    is_pr = (
        len(genuine_crossings) == 0
        and anchor_min_eig >= -1e2 * tol.psd_atol * anchor_scale
    )
    return ProperPositiveRealResult(
        is_positive_real=bool(is_pr),
        imaginary_eigenvalues=np.array(genuine_crossings, dtype=complex),
        regularization=regularization,
        boundary_check_omega=anchor_omega,
        boundary_check_min_eig=anchor_min_eig,
    )
