"""Matrix-pencil utilities: regularity, generalized spectra, spectral classification.

A descriptor system is built on the pencil ``s E - A``.  Everything the paper
needs from the pencil level is collected here:

* :func:`is_regular_pencil` — regularity (``det(s E - A)`` not identically 0),
* :func:`generalized_eigenvalues` — the raw ``(alpha, beta)`` pairs from QZ
  without Schur vectors (LAPACK ``ggev``),
* :func:`classify_generalized_eigenvalues` — finite vs. infinite split and
  stability classification of the finite part,
* :func:`pencil_degree` — ``deg det(s E - A)``, i.e. the number of finite
  dynamic modes ``q`` of Section 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import DimensionError, SingularPencilError
from repro.linalg.basics import as_square_array, matrix_scale
from repro.obs.trace import trace_span

__all__ = [
    "generalized_eigenvalues",
    "GeneralizedSpectrum",
    "classify_alpha_beta",
    "classify_generalized_eigenvalues",
    "is_regular_pencil",
    "pencil_degree",
    "ordered_qz_finite_first",
    "SpectralContext",
    "compute_spectral_context",
]


def _check_pencil(e_matrix: np.ndarray, a_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    e_arr = as_square_array(e_matrix, "E")
    a_arr = as_square_array(a_matrix, "A")
    if e_arr.shape != a_arr.shape:
        raise DimensionError("E and A must have the same shape")
    return e_arr, a_arr


def generalized_eigenvalues(
    e_matrix: np.ndarray, a_matrix: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the ``(alpha, beta)`` pairs of the pencil ``s E - A``.

    The generalized eigenvalues are ``alpha / beta`` with ``beta = 0``
    signalling an infinite eigenvalue.  The convention matches
    ``lambda E x = A x``: the pairs are the homogeneous eigenvalues of
    ``(A, E)`` from LAPACK ``ggev``, which runs the QZ iteration without
    accumulating Schur vectors.  Callers that need the Schur factors use
    :func:`compute_spectral_context` instead.
    """
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    if e_arr.shape[0] == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    with trace_span("qz.eigenvalues", order=e_arr.shape[0]):
        alpha, beta = scipy.linalg.eigvals(a_arr, e_arr, homogeneous_eigvals=True)
    return alpha, beta


@dataclass(frozen=True)
class GeneralizedSpectrum:
    """Classification of the generalized spectrum of a regular pencil.

    Attributes
    ----------
    finite:
        The finite generalized eigenvalues (complex array).
    n_infinite:
        Number of infinite eigenvalues (counting multiplicity).
    n_stable / n_unstable / n_imaginary:
        Counts of finite eigenvalues in the open left half plane, open right
        half plane and (numerically) on the imaginary axis.
    """

    finite: np.ndarray
    n_infinite: int
    n_stable: int = field(default=0)
    n_unstable: int = field(default=0)
    n_imaginary: int = field(default=0)

    @property
    def is_stable(self) -> bool:
        """True when every finite eigenvalue lies in the open left half plane."""
        return self.n_unstable == 0 and self.n_imaginary == 0


def classify_alpha_beta(
    alpha: np.ndarray,
    beta: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> GeneralizedSpectrum:
    """Classify raw ``(alpha, beta)`` pairs into a :class:`GeneralizedSpectrum`.

    Shared by :func:`classify_generalized_eigenvalues` (which computes the
    pairs with an eigenvalue-only ``ggev``) and :class:`SpectralContext`
    (which reuses the pairs of an already-computed ordered QZ).  Both come
    from LAPACK's QZ iteration on ``(A, E)``.
    """
    tol = tol or DEFAULT_TOLERANCES
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    finite_mask = np.abs(beta) > tol.infinite_eig_threshold * np.maximum(1.0, np.abs(alpha))
    finite = alpha[finite_mask] / beta[finite_mask]
    n_infinite = int(np.count_nonzero(~finite_mask))
    threshold = tol.eig_imag_atol * max(1.0, float(np.max(np.abs(finite), initial=1.0)))
    n_stable = int(np.count_nonzero(finite.real < -threshold))
    n_unstable = int(np.count_nonzero(finite.real > threshold))
    n_imaginary = finite.size - n_stable - n_unstable
    return GeneralizedSpectrum(
        finite=finite,
        n_infinite=n_infinite,
        n_stable=n_stable,
        n_unstable=n_unstable,
        n_imaginary=n_imaginary,
    )


def classify_generalized_eigenvalues(
    e_matrix: np.ndarray,
    a_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> GeneralizedSpectrum:
    """Split the generalized spectrum into finite/infinite and classify stability."""
    tol = tol or DEFAULT_TOLERANCES
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    alpha, beta = generalized_eigenvalues(e_arr, a_arr)
    return classify_alpha_beta(alpha, beta, tol)


def is_regular_pencil(
    e_matrix: np.ndarray,
    a_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
    n_probes: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Check regularity of the pencil ``s E - A``.

    The pencil is regular iff ``det(s0 E - A) != 0`` for some ``s0``.  The test
    evaluates the smallest singular value of ``s0 E - A`` at a few random
    probe points ``s0`` on a circle whose radius reflects the matrix scale;
    a regular pencil yields a comfortably nonsingular matrix at all but a
    measure-zero set of probe points.
    """
    tol = tol or DEFAULT_TOLERANCES
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    n = e_arr.shape[0]
    if n == 0:
        return True
    rng = rng or np.random.default_rng(20060724)
    scale = max(matrix_scale(a_arr), matrix_scale(e_arr))
    for _ in range(n_probes):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        probe = scale * np.exp(1j * angle)
        shifted = probe * e_arr - a_arr
        smallest = np.linalg.svd(shifted, compute_uv=False)[-1]
        if smallest > n * tol.rank_rtol * max(1.0, np.abs(probe)) * scale:
            return True
    return False


def pencil_degree(
    e_matrix: np.ndarray, a_matrix: np.ndarray, tol: Optional[Tolerances] = None
) -> int:
    """Degree of ``det(s E - A)``: the number of finite dynamic modes ``q``.

    Raises
    ------
    SingularPencilError
        If the pencil is not regular (the degree is then undefined).
    """
    tol = tol or DEFAULT_TOLERANCES
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    if not is_regular_pencil(e_arr, a_arr, tol):
        raise SingularPencilError("the pencil s E - A is singular")
    spectrum = classify_generalized_eigenvalues(e_arr, a_arr, tol)
    return int(spectrum.finite.size)


def ordered_qz_finite_first(
    e_matrix: np.ndarray,
    a_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Ordered generalized Schur form with the finite eigenvalues leading.

    Computes orthogonal/unitary ``Q, Z`` such that ``Q^H A Z`` and
    ``Q^H E Z`` are upper (quasi-)triangular with all finite generalized
    eigenvalues appearing in the leading block.  This is the orthogonal,
    numerically safe alternative to the Weierstrass transformation that the
    Weierstrass-baseline test and the Markov-parameter extraction build upon.

    Returns
    -------
    (aa, ee, q, z, n_finite):
        The transformed pencil matrices (``aa = Q^H A Z``, ``ee = Q^H E Z``),
        the transformation matrices and the number of finite eigenvalues.
    """
    aa, ee, alpha, beta, q, z, n_finite = _ordered_qz_with_eigenvalues(
        e_matrix, a_matrix, tol
    )
    return aa, ee, q, z, n_finite


def _ordered_qz_with_eigenvalues(
    e_matrix: np.ndarray,
    a_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`ordered_qz_finite_first` plus the raw ``(alpha, beta)`` pairs."""
    tol = tol or DEFAULT_TOLERANCES
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    n = e_arr.shape[0]
    if n == 0:
        empty = np.zeros((0, 0))
        empty_eigs = np.zeros(0, dtype=complex)
        return empty, empty, empty_eigs, empty_eigs, empty, empty, 0

    threshold = tol.infinite_eig_threshold

    def _finite(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return np.abs(beta) > threshold * np.maximum(1.0, np.abs(alpha))

    with trace_span("qz.ordered", order=n):
        aa, ee, alpha, beta, q, z = scipy.linalg.ordqz(
            a_arr, e_arr, sort=_finite, output="real"
        )
    n_finite = int(np.count_nonzero(_finite(alpha, beta)))
    return aa, ee, alpha, beta, q, z, n_finite


@dataclass(frozen=True)
class SpectralContext:
    """One ordered QZ factorization of ``(E, A)`` and everything derived from it.

    This is the compute-once spectral bundle the engine threads through the
    structural profile, the passivity methods and the finite/infinite
    reduction: a single O(n^3) decomposition answers regularity, stability,
    the finite/infinite split *and* seeds the Weierstrass-style separation, so
    no consumer has to refactor the pencil.

    Attributes
    ----------
    is_regular:
        Regularity verdict of the pencil ``s E - A`` (probe-based, computed
        before the QZ; for a singular pencil no factorization is stored).
    n_finite:
        Number of finite generalized eigenvalues (0 for a singular pencil).
    aa / ee / q / z:
        The ordered real generalized Schur factors with the finite
        eigenvalues leading: ``aa = Q^T A Z`` and ``ee = Q^T E Z`` are upper
        (quasi-)triangular.  ``None`` when the pencil is singular.
    alpha / beta:
        The raw generalized-eigenvalue pairs of the ordered factorization
        (``None`` when the pencil is singular).
    spectrum:
        The classified :class:`GeneralizedSpectrum` (``None`` when the pencil
        is singular, whose spectrum is undefined).
    """

    is_regular: bool
    n_finite: int
    aa: Optional[np.ndarray] = None
    ee: Optional[np.ndarray] = None
    q: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    spectrum: Optional[GeneralizedSpectrum] = None

    @property
    def is_stable(self) -> bool:
        """Stability of the finite spectrum (``False`` for a singular pencil)."""
        return bool(self.spectrum is not None and self.spectrum.is_stable)

    def ordered_qz(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """The cached :func:`ordered_qz_finite_first` result ``(aa, ee, q, z, n_finite)``.

        Raises
        ------
        SingularPencilError
            If the pencil is singular (no factorization was performed).
        """
        if self.aa is None:
            raise SingularPencilError(
                "the pencil s E - A is singular; no ordered QZ factorization "
                "is available"
            )
        return self.aa, self.ee, self.q, self.z, self.n_finite

    def classified_spectrum(self) -> GeneralizedSpectrum:
        """The classified spectrum, raising for a singular pencil."""
        if self.spectrum is None:
            raise SingularPencilError(
                "the pencil s E - A is singular; its spectrum is undefined"
            )
        return self.spectrum


def compute_spectral_context(
    e_matrix: np.ndarray,
    a_matrix: np.ndarray,
    tol: Optional[Tolerances] = None,
) -> SpectralContext:
    """Compute the :class:`SpectralContext` of the pencil ``s E - A``.

    Performs the probe-based regularity check followed by exactly **one**
    ordered QZ factorization (none for a singular pencil).  Every spectral
    question downstream — regularity, stability, finite/infinite split,
    Weierstrass-style separation — is answered from the returned bundle
    without touching the pencil again.
    """
    tol = tol or DEFAULT_TOLERANCES
    e_arr, a_arr = _check_pencil(e_matrix, a_matrix)
    if not is_regular_pencil(e_arr, a_arr, tol):
        return SpectralContext(is_regular=False, n_finite=0)
    aa, ee, alpha, beta, q, z, n_finite = _ordered_qz_with_eigenvalues(
        e_arr, a_arr, tol
    )
    spectrum = classify_alpha_beta(alpha, beta, tol)
    return SpectralContext(
        is_regular=True,
        n_finite=n_finite,
        aa=aa,
        ee=ee,
        q=q,
        z=z,
        alpha=np.asarray(alpha, dtype=complex),
        beta=np.asarray(beta, dtype=complex),
        spectrum=spectrum,
    )
