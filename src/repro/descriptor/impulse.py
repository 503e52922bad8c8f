"""Impulse controllability / observability tests (Section 2.5 of the paper).

The paper collects several equivalent characterizations; this module
implements the two most useful families:

* **SVD-coordinate rank tests** (statements 5 in the paper's lists): in SVD
  coordinates the pair ``(E, A)`` is impulse-free iff ``A22`` vanishes or is
  nonsingular; the triple ``(E, A, C)`` is impulse observable iff
  ``[A22; C2]`` vanishes or has full column rank; ``(E, A, B)`` is impulse
  controllable iff ``[A22, B2]`` vanishes or has full row rank.
* **Subspace characterizations** (statements 3/4): explicit bases of the
  impulse-unobservable and impulse-uncontrollable directions, i.e. the
  subspaces ``(A^{-1} Im E) ∩ Ker E ∩ Ker C`` and its dual.  These are the
  objects the proposed passivity test projects away (Eqs. 11-13).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.descriptor.transforms import svd_coordinate_form
from repro.linalg.subspaces import (
    column_space,
    null_space,
    numerical_rank,
    rank_from_singular_values,
    subspace_intersection,
)

__all__ = [
    "is_impulse_free",
    "is_impulse_observable",
    "is_impulse_controllable",
    "impulse_unobservable_directions",
    "impulse_uncontrollable_directions",
    "preimage_of_range",
]


def is_impulse_free(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    e_svd: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> bool:
    """SVD-coordinate test: the pair ``(E, A)`` is impulse-free iff ``A22`` is
    absent, zero-dimensional, or nonsingular.

    Only the block ``A22 = U2^T A V2`` of the SVD coordinates is formed
    (``U2``, ``V2`` the trailing singular vectors of ``E``).  ``e_svd`` is an
    already computed ``np.linalg.svd(system.e)`` to reuse."""
    tol = tol or DEFAULT_TOLERANCES
    u_e, svals, vt_e = e_svd if e_svd is not None else np.linalg.svd(system.e)
    rank = rank_from_singular_values(svals, tol)
    size = system.order - rank
    if size == 0:
        return True
    a22 = u_e[:, rank:].T @ system.a @ vt_e[rank:, :].T
    return numerical_rank(a22, tol) == size


def is_impulse_observable(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> bool:
    """SVD-coordinate test: ``[A22; C2]`` vanishes or has full column rank."""
    tol = tol or DEFAULT_TOLERANCES
    form = svd_coordinate_form(system, tol)
    r = form.rank
    a22 = form.a22
    c2 = form.system.c[:, r:]
    size = a22.shape[1]
    if size == 0:
        return True
    stacked = np.vstack([a22, c2])
    return numerical_rank(stacked, tol) == size


def is_impulse_controllable(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> bool:
    """SVD-coordinate test: ``[A22, B2]`` vanishes or has full row rank."""
    tol = tol or DEFAULT_TOLERANCES
    form = svd_coordinate_form(system, tol)
    r = form.rank
    a22 = form.a22
    b2 = form.system.b[r:, :]
    size = a22.shape[0]
    if size == 0:
        return True
    stacked = np.hstack([a22, b2])
    return numerical_rank(stacked, tol) == size


def preimage_of_range(
    a_matrix: np.ndarray, e_matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of ``A^{-1} Im(E) = { v : A v ∈ Im E }``.

    ``A`` need not be invertible; the preimage is computed as the kernel of
    ``P_perp A`` where ``P_perp`` projects onto the orthogonal complement of
    ``Im E``.
    """
    tol = tol or DEFAULT_TOLERANCES
    range_e = column_space(e_matrix, tol)
    n = np.asarray(a_matrix).shape[0]
    projector_perp = np.eye(n) - range_e @ range_e.T
    return null_space(projector_perp @ a_matrix, tol)


def impulse_unobservable_directions(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of the impulse-unobservable directions.

    These are the vectors ``v`` with ``v ∈ Ker E ∩ Ker C`` and ``A v ∈ Im E``
    (characterization 3 of impulse observability in the paper): a nonzero such
    ``v`` generates a free impulsive response invisible at the output.  The
    system is impulse observable iff the returned basis has zero columns.
    """
    tol = tol or DEFAULT_TOLERANCES
    ker_e = null_space(system.e, tol)
    ker_c = null_space(system.c, tol)
    preimage = preimage_of_range(system.a, system.e, tol)
    intersection = subspace_intersection(ker_e, ker_c, tol)
    return subspace_intersection(intersection, preimage, tol)


def impulse_uncontrollable_directions(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> np.ndarray:
    """Orthonormal basis of the impulse-uncontrollable directions.

    Dual of :func:`impulse_unobservable_directions`: vectors ``w`` with
    ``w ∈ Ker E^T ∩ Ker B^T`` and ``A^T w ∈ Im E^T`` (characterization 3 of
    impulse controllability).  The system is impulse controllable iff the
    returned basis has zero columns.
    """
    tol = tol or DEFAULT_TOLERANCES
    dual = system.transpose()
    return impulse_unobservable_directions(dual, tol)
