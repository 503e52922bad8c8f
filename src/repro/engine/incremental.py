"""Perturbation-aware incremental re-certification of passivity verdicts.

The dominant real workload is not one passivity check but thousands of
*nearby* checks — parameter sweeps, Monte Carlo corners, and the
perturb→re-test iterations inside enforcement.  Each of those today pays the
full cold pipeline (ordered QZ, chain analysis, Hamiltonian Schur) unless the
perturbed system is byte-identical to a cached fingerprint.  This module adds
the perturbation-aware tier the ROADMAP names: given a *nearby ancestor*
whose decompositions are already cached, update the ancestor's spectral
decisions and Riccati certificate instead of recomputing them, with a
**certified validity check** at every step.

The certification contract
--------------------------
Every incremental verdict is either *certified* — each decision the cold
pipeline would take (regularity, finite-mode count, stability signs,
impulse freedom, Riccati solution identity) is re-established for the
perturbed system by a cheap independent computation or by a
perturbation-bound margin argument — or the update **falls back** to the
cold path.  Fallbacks are counted (``CacheStats.incremental_fallbacks``) but
never weaken a verdict: a fallback *is* the cold verdict.

The three update mechanisms (tentpole item 2):

* :func:`update_spectral_context` — first-order generalized-eigenvalue
  perturbation in the ancestor's ordered-QZ basis with Bauer–Fike-style
  conservative bounds.  The deltas are rotated into the Schur basis
  (``dA = Qᵀ ΔA Z``; a handful of matrix products instead of an iterative
  QZ), the 1×1/2×2 diagonal blocks are re-solved exactly, and every
  eigenvalue must clear its stability decision boundary by more than its
  bound.  Finite-mode count and impulse freedom are certified independently
  through one SVD-coordinate form (``rank(E')`` plus the ``A22'`` impulse
  test), which also certifies regularity: an invertible ``A22'`` makes
  ``det(sE' − A')`` a degree-``r`` polynomial with nonzero leading
  coefficient.  So the spectral *decisions* are certified even though the
  eigenvalue *values* are first-order estimates.
* :func:`warm_start_gare` — Newton–Kleinman refinement of the ancestor's
  positive-real ARE solution.  Each step pays one real Schur factorization
  of the closed-loop matrix, which supplies both the stability guard (the
  eigenvalues sit on the quasi-triangular diagonal) and the Lyapunov solve
  (LAPACK ``trsyl`` on the factored equation); the result is accepted only
  when the *same* relative residual the cold solver reports drops below a
  threshold well under the verdict boundary **and** the closed loop is
  strictly stable (so the iterate is the stabilizing solution the cold
  Hamiltonian-Schur solve would return), else the Riccati solve falls back
  to cold.

:func:`attempt_incremental` orchestrates the full check for the engine's
``check_passivity(..., ancestor=...)`` front door and seeds every certified
intermediate (state space, certificate, profile) back into the cache, so the
freshly certified system immediately becomes the next corner's ancestor.  The
update's provenance rides in the report's ``diagnostics["incremental"]``, so
it persists with the cached verdict it explains.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem, StateSpace
from repro.descriptor.transforms import svd_coordinate_form
from repro.engine.cache import (
    GARE_RICCATI,
    GARE_STATE_SPACE,
    PENCIL_SPECTRUM,
    SYSTEM_PROFILE,
    DecompositionCache,
    SystemProfile,
    fingerprint_system,
)
from repro.linalg.basics import matrix_scale
from repro.linalg.pencil import GeneralizedSpectrum, SpectralContext
from repro.obs.trace import trace_span
from repro.linalg.subspaces import numerical_rank
from repro.passivity.gare_test import (
    GareCertificate,
    admissible_to_state_space,
    gare_passivity_test,
    solve_gare_certificate,
)
from repro.passivity.result import PassivityReport

__all__ = [
    "MatrixDelta",
    "DeltaFingerprint",
    "structured_delta",
    "delta_distance",
    "family_key",
    "choose_family_root",
    "IncrementalConfig",
    "DEFAULT_INCREMENTAL_CONFIG",
    "update_spectral_context",
    "warm_start_gare",
    "attempt_incremental",
]


# ----------------------------------------------------------------------
# Structured delta fingerprint (tentpole item 1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixDelta:
    """Canonical per-matrix description of one perturbation ``Δ = child − ancestor``.

    Attributes
    ----------
    name:
        Which system matrix (``"E"``, ``"A"``, ``"B"``, ``"C"`` or ``"D"``).
    norm:
        Frobenius norm of the delta.
    rel_norm:
        ``norm / max(1, ||ancestor||_F)`` — the scale-free distance
        contribution used by :func:`delta_distance`.
    rank:
        Numerical rank of the delta (0 for an untouched matrix; low values
        signal structured, low-rank perturbations).  ``-1`` when the caller
        skipped the rank SVD (``structured_delta(..., ranks=False)`` — the
        engine's hot path, where only norms and patterns are needed).
    nnz:
        Number of entries whose perturbation exceeds the entry-level noise
        floor (``1e-14`` relative to the ancestor's scale).
    pattern_digest:
        Hex digest of the boolean sparsity pattern of the delta — two
        perturbations touching the same entries share a digest regardless of
        magnitude, which is how sweep families are recognised.
    """

    name: str
    norm: float
    rel_norm: float
    rank: int
    nnz: int
    pattern_digest: str


@dataclass(frozen=True)
class DeltaFingerprint:
    """Structured fingerprint of the perturbation between two systems.

    Canonicalizes ``(E, A, B, C, D)`` per matrix and per entry so the cache
    can both *quantify* how far a perturbed system sits from a stored
    ancestor (:attr:`distance`) and *recognise* which entries moved
    (:attr:`pattern_signature`).
    """

    ancestor_fingerprint: str
    child_fingerprint: str
    deltas: Dict[str, MatrixDelta] = field(default_factory=dict)

    @property
    def distance(self) -> float:
        """Total structured distance: the sum of the per-matrix relative norms."""
        return float(sum(delta.rel_norm for delta in self.deltas.values()))

    @property
    def pattern_signature(self) -> str:
        """Combined digest of the five per-matrix sparsity patterns."""
        import hashlib

        hasher = hashlib.sha256()
        for name in sorted(self.deltas):
            hasher.update(name.encode())
            hasher.update(self.deltas[name].pattern_digest.encode())
        return hasher.hexdigest()


def _matrix_delta(
    name: str, ancestor: np.ndarray, child: np.ndarray, compute_rank: bool = True
) -> MatrixDelta:
    import hashlib

    delta = np.asarray(child, dtype=float) - np.asarray(ancestor, dtype=float)
    norm = float(np.linalg.norm(delta))
    anc_norm = max(1.0, float(np.linalg.norm(ancestor)))
    floor = 1e-14 * matrix_scale(ancestor)
    mask = np.abs(delta) > floor
    nnz = int(np.count_nonzero(mask))
    if nnz == 0:
        rank = 0
    elif not compute_rank:
        rank = -1
    else:
        rank = int(np.linalg.matrix_rank(delta))
    digest = hashlib.sha256(np.ascontiguousarray(mask).tobytes()).hexdigest()[:16]
    return MatrixDelta(
        name=name,
        norm=norm,
        rel_norm=norm / anc_norm,
        rank=rank,
        nnz=nnz,
        pattern_digest=digest,
    )


def structured_delta(
    ancestor: DescriptorSystem,
    child: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    ranks: bool = True,
) -> DeltaFingerprint:
    """Build the structured :class:`DeltaFingerprint` between two systems.

    Both systems must share matrix shapes; the deltas are computed on the
    dense views (a sparse-backed system densifies lazily — callers on the
    sparse fast path should not be here in the first place).

    ``ranks=False`` skips the per-matrix delta-rank SVDs (the rank fields
    come back ``-1``); the incremental hot path uses this because its gates
    and provenance only consume norms and sparsity patterns.
    """
    tol = tol or DEFAULT_TOLERANCES
    deltas = {
        name: _matrix_delta(name, anc, new, compute_rank=ranks)
        for name, anc, new in (
            ("E", ancestor.e, child.e),
            ("A", ancestor.a, child.a),
            ("B", ancestor.b, child.b),
            ("C", ancestor.c, child.c),
            ("D", ancestor.d, child.d),
        )
    }
    return DeltaFingerprint(
        ancestor_fingerprint=fingerprint_system(ancestor, tol),
        child_fingerprint=fingerprint_system(child, tol),
        deltas=deltas,
    )


def delta_distance(ancestor: DescriptorSystem, child: DescriptorSystem) -> float:
    """Cheap structured distance: ``Σ ||Δ||_F / max(1, ||ancestor||_F)``.

    The SVD-free core of :class:`DeltaFingerprint` used by
    :meth:`DecompositionCache.nearest` and the batch runner's sweep ordering,
    where it runs O(candidates²) times.
    """
    total = 0.0
    for anc, new in (
        (ancestor.e, child.e),
        (ancestor.a, child.a),
        (ancestor.b, child.b),
        (ancestor.c, child.c),
        (ancestor.d, child.d),
    ):
        anc_arr = np.asarray(anc, dtype=float)
        total += float(np.linalg.norm(np.asarray(new, dtype=float) - anc_arr)) / max(
            1.0, float(np.linalg.norm(anc_arr))
        )
    return total


def family_key(system: DescriptorSystem) -> Tuple[Tuple[int, ...], ...]:
    """Perturbation-family identity: the shapes of ``(E, A, B, C, D)``.

    Systems sharing all five shapes are sweep-family candidates for the
    incremental tier.  The key is coarse on purpose: the real nearness check
    (structured delta distance, validity bounds) runs inside the engine, so
    a false match costs one refused update, never a wrong verdict.
    """
    return tuple(
        tuple(matrix.shape)
        for matrix in (system.e, system.a, system.b, system.c, system.d)
    )


def choose_family_root(systems) -> int:
    """Pick the medoid of a shape-uniform family as its warm-start root.

    Returns the index of the member minimizing the total
    :func:`delta_distance` to every other member — the system whose cold
    decompositions give the cheapest certified updates for the rest of the
    family.  Used by portfolio scenarios
    (:class:`~repro.service.ScenarioSpec`) to decide which cell runs cold.

    Raises
    ------
    DimensionError
        On an empty family.  Members must share matrix shapes (callers
        guard this; the pairwise deltas are undefined otherwise).
    """
    members = list(systems)
    if not members:
        from repro.exceptions import DimensionError

        raise DimensionError("choose_family_root needs at least one system")
    if len(members) == 1:
        return 0
    totals = [
        sum(delta_distance(member, other) for other in members if other is not member)
        for member in members
    ]
    return int(np.argmin(totals))


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalConfig:
    """Tuning knobs of the incremental tier (documented in docs/performance.md).

    Attributes
    ----------
    spectral_safety:
        Multiplier on the Bauer–Fike-style eigenvalue perturbation bound;
        every stability decision must clear its boundary by
        ``spectral_safety × bound`` or the update falls back.
    residual_limit:
        Cap on the off-structure residual (the rotated delta mass below the
        quasi-triangular profile, relative to the factor scale); beyond it
        the first-order estimate is not trusted regardless of margins.
    newton_max_iter:
        Maximum Newton–Kleinman refinement steps for the Riccati warm start.
    newton_accept_residual:
        Relative ARE residual (same formula as the cold solver) the refined
        solution must reach — kept an order of magnitude below the ``1e-6``
        verdict boundary (and backed by the PSD-boundary guard) so warm and
        cold verdicts cannot straddle it.  With the basis-aligned warm start
        one Newton step typically lands near ``1e-8``; tighten this to force
        extra (quadratically converging) steps.
    crossing_safety:
        Multiplier on the closed-loop drift in the Riccati warm start's
        stability continuation; the ancestor's real-part margin must exceed
        ``crossing_safety × drift`` to certify the closed loop stable
        without an eigendecomposition.
    max_distance:
        Largest structured delta distance an ancestor lookup will consider
        (``None`` disables the gate; the certification still protects
        correctness, this only avoids doomed attempts).
    """

    spectral_safety: float = 4.0
    residual_limit: float = 0.25
    newton_max_iter: int = 8
    newton_accept_residual: float = 1e-7
    crossing_safety: float = 4.0
    max_distance: Optional[float] = 0.5


#: Shared default knob bundle.
DEFAULT_INCREMENTAL_CONFIG = IncrementalConfig()


# ----------------------------------------------------------------------
# Mechanism 1: first-order spectral update with certified decisions
# ----------------------------------------------------------------------
def _leading_blocks(aa: np.ndarray, n_finite: int) -> Tuple[Tuple[int, int], ...]:
    """1×1/2×2 diagonal block partition of the leading finite Schur block."""
    blocks = []
    scale = matrix_scale(aa)
    i = 0
    while i < n_finite:
        if i + 1 < n_finite and abs(aa[i + 1, i]) > 1e-14 * scale:
            blocks.append((i, i + 2))
            i += 2
        else:
            blocks.append((i, i + 1))
            i += 1
    return tuple(blocks)


def _sigma_min_2x2(e_blk: np.ndarray) -> float:
    """Smallest singular value of a 2×2 block, closed form (no LAPACK call)."""
    f2 = float(np.sum(e_blk * e_blk))
    det = float(e_blk[0, 0] * e_blk[1, 1] - e_blk[0, 1] * e_blk[1, 0])
    disc = max(f2 * f2 - 4.0 * det * det, 0.0)
    return float(np.sqrt(max(0.5 * (f2 - np.sqrt(disc)), 0.0)))


def _eig_2x2_generalized(a_blk: np.ndarray, e_blk: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of the 2×2 pencil ``det(λ E − A) = 0``.

    Solves the characteristic quadratic with the cancellation-safe split
    (``q = −(p1 ± root)/2``; roots ``q/p2`` and ``p0/q``) instead of calling
    a QZ on every diagonal block — at a couple hundred blocks per corner the
    LAPACK call overhead dominates the sweep's spectral-update time.
    """
    p2 = float(e_blk[0, 0] * e_blk[1, 1] - e_blk[0, 1] * e_blk[1, 0])
    p1 = -float(
        e_blk[0, 0] * a_blk[1, 1]
        + e_blk[1, 1] * a_blk[0, 0]
        - e_blk[0, 1] * a_blk[1, 0]
        - e_blk[1, 0] * a_blk[0, 1]
    )
    p0 = float(a_blk[0, 0] * a_blk[1, 1] - a_blk[0, 1] * a_blk[1, 0])
    root = np.sqrt(complex(p1 * p1 - 4.0 * p2 * p0))
    q = -0.5 * (p1 + root) if p1 >= 0.0 else -0.5 * (p1 - root)
    if q == 0.0:
        return np.array([root / (2.0 * p2), -root / (2.0 * p2)])
    return np.array([q / p2, p0 / q])


def update_spectral_context(
    system: DescriptorSystem,
    ancestor: DescriptorSystem,
    ancestor_context: SpectralContext,
    tol: Optional[Tolerances] = None,
    config: IncrementalConfig = DEFAULT_INCREMENTAL_CONFIG,
    form: Optional[Any] = None,
) -> Optional[Tuple[SpectralContext, float]]:
    """First-order spectral update of an ancestor's ordered-QZ context.

    Returns a **decision-only** :class:`SpectralContext` (regularity,
    finite-mode count, classified spectrum — no factors, so it must never be
    seeded under ``pencil_spectrum``) together with the off-structure update
    residual, or ``None`` when any certification step fails:

    * the ancestor must be regular, impulse-free (``rank E = n_finite``) and
      free of imaginary-axis eigenvalues (no margin → nothing to certify);
    * the perturbed system must keep ``rank E`` and pass the SVD-coordinate
      impulse-freedom test (these certify the finite/infinite split without
      trusting first-order eigenvalue estimates, which are unreliable for
      defective infinite eigenvalues).  The same two rank decisions certify
      regularity: with ``A22'`` invertible, the Schur complement of the
      SVD-coordinate pencil makes ``det(sE' − A')`` a degree-``r``
      polynomial with leading coefficient ``det(Σ_r)·det(−A22') ≠ 0``;
    * every finite eigenvalue estimate, re-solved exactly on the perturbed
      1×1/2×2 diagonal blocks of the rotated pencil, must clear the
      stability boundary by ``spectral_safety`` times its Bauer–Fike-style
      bound ``(||ΔA||₂ + |λ|·||ΔE||₂) / σ_min(ee_block)`` over the
      off-structure delta mass.

    ``form`` optionally supplies a precomputed SVD coordinate form of
    ``system`` so one SVD serves this certification and the caller's
    admissible reduction.
    """
    tol = tol or DEFAULT_TOLERANCES
    ctx = ancestor_context
    if not ctx.is_regular or ctx.aa is None or ctx.spectrum is None:
        return None
    if ctx.spectrum.n_imaginary:
        return None
    n = system.order
    n_finite = ctx.n_finite
    if ancestor.rank_e(tol) != n_finite:
        return None

    # Independent structural certification of the perturbed system: the
    # finite/infinite split is a rank decision, not an eigenvalue estimate.
    # form.rank applies the same threshold as rank_e / numerical_rank, and
    # the A22 rank test is exactly descriptor.impulse.is_impulse_free.
    if form is None:
        form = svd_coordinate_form(system, tol)
    if form.rank != n_finite:
        return None
    a22 = form.a22
    if a22.shape[0] and numerical_rank(a22, tol) != a22.shape[0]:
        return None

    delta_a = np.asarray(system.a, dtype=float) - np.asarray(ancestor.a, dtype=float)
    delta_e = np.asarray(system.e, dtype=float) - np.asarray(ancestor.e, dtype=float)

    q, z = ctx.q, ctx.z
    da = q.T @ delta_a @ z
    aa_new = ctx.aa + da
    # A-only perturbation families (conductance/coupling sweeps) leave E
    # untouched; skip the ΔE rotation and its spectral norm entirely.
    e_perturbed = bool(np.any(delta_e))
    if e_perturbed:
        de = q.T @ delta_e @ z
        ee_new = ctx.ee + de
    else:
        de = None
        ee_new = ctx.ee

    blocks = _leading_blocks(ctx.aa, n_finite)

    # Off-structure mass: the rotated delta strictly below the
    # quasi-triangular profile (in-block subdiagonals excluded) is exactly
    # what the block re-solve neglects — the in-block delta is handled
    # *exactly* and strictly-upper off-block entries do not move the
    # eigenvalues of a block-triangular pencil, so the estimate error is
    # first-order in this mass alone.
    in_block_subdiag = np.zeros((n, n), dtype=bool)
    for lo, hi in blocks:
        if hi - lo == 2:
            in_block_subdiag[lo + 1, lo] = True
    off_a = np.tril(da, -1)
    off_a[in_block_subdiag] = 0.0
    off_e_norm = 0.0
    ne = 0.0
    if de is not None:
        off_e = np.tril(de, -1)
        off_e[in_block_subdiag] = 0.0
        off_e_norm = float(np.linalg.norm(off_e))
        # The Bauer–Fike-style bound wants spectral (2-)norms; the
        # sqrt(||.||_1 ||.||_inf) upper bound stands in for them — valid,
        # close for these sparse delta masses, and SVD-free.
        ne = _spectral_norm_bound(off_e)
    factor_scale = max(
        1.0, float(np.linalg.norm(ctx.aa)) + float(np.linalg.norm(ctx.ee))
    )
    residual = (float(np.linalg.norm(off_a)) + off_e_norm) / factor_scale
    if residual > config.residual_limit:
        return None
    na = _spectral_norm_bound(off_a)

    estimates = []
    bounds = []
    for lo, hi in blocks:
        a_blk = aa_new[lo:hi, lo:hi]
        e_blk = ee_new[lo:hi, lo:hi]
        if hi - lo == 1:
            beta_scale = abs(float(e_blk[0, 0]))
            if beta_scale <= tol.infinite_eig_threshold * max(
                1.0, abs(float(a_blk[0, 0]))
            ):
                return None
            eigs = np.array([complex(a_blk[0, 0] / e_blk[0, 0])])
        else:
            beta_scale = _sigma_min_2x2(e_blk)
            if beta_scale <= tol.infinite_eig_threshold * matrix_scale(a_blk):
                return None
            eigs = _eig_2x2_generalized(a_blk, e_blk)
            if not np.all(np.isfinite(eigs)):
                return None
        for value in np.atleast_1d(eigs):
            estimates.append(complex(value))
            bounds.append(
                config.spectral_safety
                * (na + abs(complex(value)) * ne)
                / max(beta_scale, np.finfo(float).tiny)
            )

    finite = np.asarray(estimates, dtype=complex)
    if finite.size != n_finite:
        return None
    bound_arr = np.asarray(bounds, dtype=float)
    threshold = tol.eig_imag_atol * max(1.0, float(np.max(np.abs(finite), initial=1.0)))

    stable_mask = finite.real < -(threshold + bound_arr)
    unstable_mask = finite.real > (threshold + bound_arr)
    if not np.all(stable_mask | unstable_mask):
        # Some estimate sits within its bound of the stability boundary:
        # the decision cannot be certified first-order.
        return None

    spectrum = GeneralizedSpectrum(
        finite=finite,
        n_infinite=n - n_finite,
        n_stable=int(np.count_nonzero(stable_mask)),
        n_unstable=int(np.count_nonzero(unstable_mask)),
        n_imaginary=0,
    )
    context = SpectralContext(
        is_regular=True,
        n_finite=n_finite,
        spectrum=spectrum,
    )
    return context, residual


# ----------------------------------------------------------------------
# Mechanism 2: Newton–Kleinman Riccati warm start
# ----------------------------------------------------------------------
def _instance_form(system: DescriptorSystem, tol: Tolerances):
    """``svd_coordinate_form`` memoized on the (immutable) system instance.

    A sweep re-reduces its ancestor once per corner otherwise; the form is
    a pure function of the system matrices and the tolerance bundle.
    """
    key = astuple(tol)
    memo = system.__dict__.get("_svd_form_memo")
    if memo is None:
        memo = {}
        object.__setattr__(system, "_svd_form_memo", memo)
    if key not in memo:
        memo[key] = svd_coordinate_form(system, tol)
    return memo[key]


def _reuse_form(system: DescriptorSystem, ancestor_form: Any, tol: Tolerances):
    """The child's SVD coordinate form built from the ancestor's E factors.

    Only valid when the child's ``E`` equals the ancestor's bitwise: the
    orthogonal ``U``/``V`` and the rank are then properties of the shared
    ``E``, and the child's form differs from the ancestor's only in the
    rotated ``A``/``B``/``C`` (three matmuls instead of an SVD).  The result
    is memoized on the child like :func:`_instance_form`'s.
    """
    key = astuple(tol)
    memo = system.__dict__.get("_svd_form_memo")
    if memo is None:
        memo = {}
        object.__setattr__(system, "_svd_form_memo", memo)
    if key not in memo:
        from repro.descriptor.transforms import (
            SvdCoordinateForm,
            restricted_system_equivalence,
        )

        memo[key] = SvdCoordinateForm(
            system=restricted_system_equivalence(
                system, ancestor_form.left, ancestor_form.right
            ),
            left=ancestor_form.left,
            right=ancestor_form.right,
            rank=ancestor_form.rank,
        )
    return memo[key]


def _spectral_norm_bound(matrix: np.ndarray) -> float:
    """Cheap upper bound of the spectral norm.

    ``min(||M||_F, sqrt(||M||_1 ||M||_inf))`` — both classical upper bounds
    of the 2-norm, both O(n²), where the exact value would cost a full SVD
    per corner.  Over-estimating only tightens the certified eigenvalue
    bounds (more fallbacks, never wrong verdicts); at the perturbation
    scales the tier targets the slack stays well inside the margin headroom.
    """
    if not np.any(matrix):
        return 0.0
    absolute = np.abs(matrix)
    holder = float(
        np.sqrt(absolute.sum(axis=0).max() * absolute.sum(axis=1).max())
    )
    return min(float(np.linalg.norm(matrix)), holder)


def _align_basis(child_form: Any, ancestor_form: Any) -> Optional[np.ndarray]:
    """Orthogonal state rotation from ancestor to child reduction coordinates.

    The SVD coordinate basis is discontinuous in the system data: ``E``
    usually has clustered singular values, so a tiny ``ΔE`` can rotate the
    singular vectors by O(1) *within* their span even though the span itself
    is stable.  The ancestor's Riccati solution is a poor warm start in the
    child's coordinates until it is rotated by
    ``T = V₁(child)ᵀ V₁(ancestor)`` (``X₀ = T X Tᵀ`` — the storage function
    is a quadratic form on the reduced state).  Returns ``None`` when the
    reduced dimensions differ.
    """
    r_child, r_anc = child_form.rank, ancestor_form.rank
    if r_child != r_anc:
        return None
    return child_form.right[:, :r_child].T @ ancestor_form.right[:, :r_anc]


def _stability_reference(
    ancestor_state_space: StateSpace,
    ancestor_certificate: GareCertificate,
) -> Optional[Tuple[np.ndarray, float]]:
    """Ancestor closed-loop matrix and its stability margin, memoized.

    One eigendecomposition per *ancestor* (not per corner) prices the
    continuation argument the warm start's final stability check uses; the
    result is cached on the certificate instance, which is immutable and
    lives in the decomposition cache alongside the state space.
    """
    x = ancestor_certificate.x
    if x is None:
        return None
    memo = ancestor_certificate.__dict__.get("_stability_memo")
    if memo is None:
        a = ancestor_state_space.a
        b = ancestor_state_space.b
        c = ancestor_state_space.c
        r = ancestor_state_space.d + ancestor_state_space.d.T
        try:
            gain = np.linalg.solve(r, b.T @ (0.5 * (x + x.T)) - c)
        except np.linalg.LinAlgError:
            return None
        closed_loop = a + b @ gain
        margin = -float(np.max(np.linalg.eigvals(closed_loop).real))
        memo = (closed_loop, margin)
        object.__setattr__(ancestor_certificate, "_stability_memo", memo)
    return memo


def _schur_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi-upper-triangular Schur factor, O(n)."""
    n = t.shape[0]
    values = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            mean = 0.5 * (t[i, i] + t[i + 1, i + 1])
            det = t[i, i] * t[i + 1, i + 1] - t[i, i + 1] * t[i + 1, i]
            root = np.sqrt(complex(mean * mean - det))
            values.extend((mean + root, mean - root))
            i += 2
        else:
            values.append(complex(t[i, i]))
            i += 1
    return np.asarray(values, dtype=complex)


def warm_start_gare(
    state_space: StateSpace,
    ancestor_certificate: GareCertificate,
    tol: Optional[Tolerances] = None,
    config: IncrementalConfig = DEFAULT_INCREMENTAL_CONFIG,
    stability_reference: Optional[Tuple[np.ndarray, float]] = None,
) -> Optional[Tuple[GareCertificate, int]]:
    """Refine an ancestor's positive-real ARE solution for a nearby system.

    Mirrors the cold :func:`solve_gare_certificate` decisions exactly
    (feedthrough definiteness, regularization choice), then runs
    Newton–Kleinman from the ancestor's ``X``: each step solves one Lyapunov
    equation in the closed-loop matrix instead of the cold path's
    ``2n × 2n`` Hamiltonian Schur.  The result is accepted only when

    * the relative residual — the *same* formula the cold solver reports —
      reaches ``newton_accept_residual`` (well below the ``1e-6`` verdict
      boundary), and
    * the closed-loop matrix is strictly stable, certifying the iterate is
      the *stabilizing* solution the cold solve would return.

    ``stability_reference`` optionally supplies ``(closed_loop, margin)`` of
    the ancestor's certificate *rotated into this state space's basis*; when
    the margin exceeds ``crossing_safety`` times the closed-loop drift the
    final stability check is certified by eigenvalue continuation instead of
    a fresh eigendecomposition.

    Returns ``(certificate, newton_steps)`` or ``None`` (fall back to cold).
    """
    tol = tol or DEFAULT_TOLERANCES
    if ancestor_certificate.x is None:
        return None
    from repro.linalg.basics import is_positive_definite, is_positive_semidefinite

    r_matrix = state_space.d + state_space.d.T
    if not is_positive_semidefinite(r_matrix, tol):
        # Cold-identical cheap verdict: no solve happens on either path.
        return GareCertificate(feedthrough_psd=False), 0
    eps = 0.0
    if not is_positive_definite(r_matrix, tol):
        scale = max(1.0, float(np.max(np.abs(state_space.d), initial=0.0)))
        eps = 1e3 * tol.psd_atol * scale
    if eps:
        state_space = StateSpace(
            state_space.a,
            state_space.b,
            state_space.c,
            state_space.d + 0.5 * eps * np.eye(state_space.d.shape[0]),
        )
    a = np.asarray(state_space.a, dtype=float)
    b = np.asarray(state_space.b, dtype=float)
    c = np.asarray(state_space.c, dtype=float)
    r = state_space.d + state_space.d.T
    if a.shape != ancestor_certificate.x.shape:
        return None
    q_tilde = c.T @ np.linalg.solve(r, c)
    q_norm = float(np.linalg.norm(q_tilde))

    def _evaluate(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
        gain = np.linalg.solve(r, b.T @ x - c)
        residual_matrix = a.T @ x + x @ a + (x @ b - c.T) @ gain
        rel = float(np.linalg.norm(residual_matrix)) / max(
            1.0, q_norm, float(np.linalg.norm(x))
        )
        return gain, residual_matrix, rel

    x = 0.5 * (ancestor_certificate.x + ancestor_certificate.x.T)
    steps = 0
    trsyl = None
    try:
        gain, residual_matrix, rel = _evaluate(x)
        while rel > config.newton_accept_residual and steps < config.newton_max_iter:
            closed_loop = a + b @ gain
            # One real Schur per step supplies both the stability guard (the
            # eigenvalues sit on the quasi-triangular diagonal, O(n) to
            # read) and the Lyapunov solve (LAPACK trsyl on the factored
            # equation) — this is the warm path's hot loop, and a library
            # Lyapunov call plus a separate eigendecomposition would triple
            # its cost.
            t, u = scipy.linalg.schur(
                closed_loop.T, output="real", check_finite=False
            )
            if float(np.max(_schur_eigenvalues(t).real)) >= 0.0:
                return None
            if trsyl is None:
                (trsyl,) = scipy.linalg.get_lapack_funcs(
                    ("trsyl",), (t, residual_matrix)
                )
            rotated = u.T @ (-residual_matrix) @ u
            y, lapack_scale, info = trsyl(t, t, rotated, tranb="C")
            if info < 0:
                return None
            x = x + u @ (y * lapack_scale) @ u.T
            x = 0.5 * (x + x.T)
            steps += 1
            gain, residual_matrix, rel = _evaluate(x)
    except Exception:  # noqa: BLE001 - any numerical failure means "go cold"
        return None
    if rel > config.newton_accept_residual:
        return None
    closed_loop = a + b @ gain
    stability_threshold = tol.eig_imag_atol * matrix_scale(closed_loop)
    certified_stable = False
    if stability_reference is not None:
        reference_loop, reference_margin = stability_reference
        if reference_loop.shape == closed_loop.shape:
            drift = float(np.linalg.norm(closed_loop - reference_loop))
            certified_stable = (
                reference_margin - config.crossing_safety * drift
                > stability_threshold
            )
    if not certified_stable:
        closed_eigs = np.linalg.eigvals(closed_loop)
        if float(np.max(closed_eigs.real)) >= -stability_threshold:
            # Converged to a non-stabilizing solution (or one too close to
            # the boundary to certify) — the cold solve could disagree.
            return None
    # PSD decision guard: the verdict flips at eigenvalue -psd_atol * scale;
    # an estimate within 1% of that boundary is left to the cold solver.
    x_eigs = np.linalg.eigvalsh(0.5 * (x + x.T))
    psd_boundary = -tol.psd_atol * matrix_scale(x)
    if abs(float(x_eigs[0]) - psd_boundary) < 1e-2 * abs(psd_boundary):
        return None
    return (
        GareCertificate(
            feedthrough_psd=True, epsilon=float(eps), x=x, residual=rel
        ),
        steps,
    )


# ----------------------------------------------------------------------
# The orchestrated incremental check (engine front door)
# ----------------------------------------------------------------------
def _certified_profile(
    system: DescriptorSystem, context: SpectralContext, tol: Tolerances
) -> SystemProfile:
    """Profile implied by a certified decision context (impulse-free path)."""
    return SystemProfile(
        fingerprint=fingerprint_system(system, tol),
        order=system.order,
        n_inputs=system.n_inputs,
        n_outputs=system.n_outputs,
        is_square_io=system.is_square_io,
        is_regular=context.is_regular,
        is_stable=context.is_stable,
        n_impulsive_chains=0,
        has_higher_grade=False,
    )


def attempt_incremental(
    system: DescriptorSystem,
    ancestor: Union[DescriptorSystem, str],
    cache: DecompositionCache,
    tol: Optional[Tolerances] = None,
    config: IncrementalConfig = DEFAULT_INCREMENTAL_CONFIG,
) -> Optional[PassivityReport]:
    """Try to certify ``system`` incrementally from a nearby ancestor.

    ``ancestor`` is either an explicit :class:`DescriptorSystem` or the
    string ``"auto"`` to consult :meth:`DecompositionCache.nearest`.  The
    full pipeline — certified spectral update, admissible reduction, Riccati
    warm start — only applies to systems the cold ``auto`` route would send
    to the GARE method (admissible, dense); anything else falls back.

    On success the verdict report is returned with
    ``diagnostics["incremental"]`` provenance (ancestor fingerprint, delta
    distance and per-matrix delta norms, update residual, mechanism, Newton
    steps), every certified intermediate is seeded into the cache
    (``gare_state_space``, ``gare_riccati``, ``system_profile``) and
    ``CacheStats.incremental_hits`` is bumped.  On any certification failure
    ``None`` is returned and ``CacheStats.incremental_fallbacks`` is bumped;
    the caller must then run the cold path, so a fallback verdict is by
    construction never weaker than a cold one.
    """
    tol = tol or DEFAULT_TOLERANCES

    def fallback() -> None:
        cache.record_incremental(False)

    if isinstance(ancestor, str):
        if ancestor != "auto":
            raise ValueError(
                f"ancestor must be a DescriptorSystem or 'auto', got {ancestor!r}"
            )
        found = cache.nearest(
            system, tol, kinds=(PENCIL_SPECTRUM,), max_distance=config.max_distance
        )
        if found is None:
            # No candidate at all: not an attempted update, not a fallback.
            return None
        ancestor = found[0]

    if fingerprint_system(ancestor, tol) == fingerprint_system(system, tol):
        # Identical system: the cold path is already fully cached.
        return None

    try:
        # Sparse-backed systems densify lazily here; the engine only routes
        # to this tier when the cold path would run the dense pipeline
        # anyway (check_passivity gates on the sparse auto-routing rule).
        if not cache.contains(ancestor, PENCIL_SPECTRUM, tol):
            # Updating from an uncached ancestor would pay the cold QZ anyway.
            fallback()
            return None
        ancestor_context = cache.spectral(ancestor, tol)

        delta = structured_delta(ancestor, system, tol, ranks=False)
        if config.max_distance is not None and delta.distance > config.max_distance:
            fallback()
            return None

        # One SVD-coordinate form serves the spectral certification (rank E,
        # impulse freedom, regularity) *and* the admissible reduction below.
        # A-only/B/C/D perturbations leave E bitwise unchanged, so the
        # ancestor's SVD factors of E are *exact* for the child too —
        # re-rotating the child's A/B/C replaces the per-corner SVD.
        if delta.deltas["E"].norm == 0.0:
            anc_form = _instance_form(ancestor, tol)
            form = _reuse_form(system, anc_form, tol)
        else:
            form = _instance_form(system, tol)
        with trace_span("incremental.update", order=system.order) as span:
            updated = update_spectral_context(
                system, ancestor, ancestor_context, tol, config, form=form
            )
            span.set(certified=updated is not None)
        if updated is None:
            fallback()
            return None
        context, residual = updated
        if not (context.is_regular and context.is_stable):
            # Not admissible: the cold auto route would run the full SHH
            # pipeline, which this tier cannot shortcut.
            fallback()
            return None

        state_space = admissible_to_state_space(
            system, tol, context=context, form=form
        )

        newton_steps = 0
        mechanism = "spectral"
        certificate: Optional[GareCertificate] = None
        if cache.contains(ancestor, GARE_RICCATI, tol):
            ancestor_certificate = cache.gare_certificate(ancestor, tol)
            warm = None
            if ancestor_certificate.x is not None:
                # The SVD reduction basis is discontinuous in the data, so
                # the ancestor's X must be rotated into the child's reduced
                # coordinates before it is any good as a Newton seed (see
                # _align_basis); the rotation also carries the ancestor's
                # closed-loop margin over for the continuation-based final
                # stability check.
                alignment = _align_basis(form, _instance_form(ancestor, tol))
                if alignment is not None:
                    x_anc = ancestor_certificate.x
                    aligned = GareCertificate(
                        feedthrough_psd=ancestor_certificate.feedthrough_psd,
                        epsilon=ancestor_certificate.epsilon,
                        x=alignment @ (0.5 * (x_anc + x_anc.T)) @ alignment.T,
                        residual=ancestor_certificate.residual,
                    )
                    reference = None
                    if cache.contains(ancestor, GARE_STATE_SPACE, tol):
                        reference = _stability_reference(
                            cache.gare_state_space(ancestor, tol),
                            ancestor_certificate,
                        )
                    if reference is not None:
                        reference = (
                            alignment @ reference[0] @ alignment.T,
                            reference[1],
                        )
                    with trace_span(
                        "riccati.newton", order=state_space.a.shape[0]
                    ) as span:
                        warm = warm_start_gare(
                            state_space,
                            aligned,
                            tol,
                            config,
                            stability_reference=reference,
                        )
                        span.set(converged=warm is not None)
            if warm is not None:
                certificate, newton_steps = warm
                mechanism = "spectral+riccati"
        if certificate is None:
            # The spectral stage still certified (no QZ); only the Riccati
            # solve goes cold.
            certificate = solve_gare_certificate(state_space, tol)
            mechanism += "+cold-riccati"

        report = gare_passivity_test(
            system, tol, state_space=state_space, certificate=certificate
        )
    except Exception:  # noqa: BLE001 - certification failures always go cold
        fallback()
        return None

    # Seed every certified intermediate: the freshly certified system is now
    # a first-class cache citizen (and the next corner's ancestor).  The
    # decision-only spectral context is deliberately NOT seeded — it has no
    # factors and must never satisfy a pencil_spectrum lookup.
    cache.seed(system, GARE_STATE_SPACE, state_space, tol)
    cache.seed(system, GARE_RICCATI, certificate, tol)
    cache.seed(system, SYSTEM_PROFILE, _certified_profile(system, context, tol), tol)
    cache.register_ancestor(ancestor, tol)
    cache.record_incremental(True, residual)

    report.diagnostics["incremental"] = {
        "ancestor_fingerprint": delta.ancestor_fingerprint,
        "distance": delta.distance,
        "delta_norms": {name: d.norm for name, d in delta.deltas.items()},
        "residual": residual,
        "mechanism": mechanism,
        "newton_steps": newton_steps,
    }
    return report
