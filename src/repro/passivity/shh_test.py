"""The proposed fast passivity test (Section 3 of the paper, Figure 1 flow).

The entry point is :func:`shh_passivity_test` (or the :class:`ShhPassivityTest`
class when the intermediate objects are of interest).  The flow mirrors
Figure 1:

1.  validate the input (square, regular; stability is checked and reported),
2.  form ``Phi(s) = G(s) + G~(s)`` as an SHH pencil (Eq. 10),
3.  remove impulse-unobservable/uncontrollable directions (Eqs. 11-17),
4.  check that the reduced ``Phi`` is impulse-free — if not, ``G`` is not
    passive,
5.  remove the nondynamic modes (Eqs. 18-19) and compare the removal counts
    (Section 3.4's bookkeeping),
6.  verify the impulsive part of ``G`` is exactly ``s M1`` with
    ``M1 = M1^T ⪰ 0`` using the grade-1/2 chain projection (Eqs. 24-25),
7.  restore the SHH structure (Eq. 20), convert to a standard Hamiltonian
    state matrix (Eq. 21), split off the stable proper part (Eqs. 22-23),
8.  test positive realness of the proper part with the Hamiltonian-eigenvalue
    test.

Every decision is recorded in the returned
:class:`repro.passivity.result.PassivityReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.adjoint import build_phi_realization
from repro.descriptor.system import DescriptorSystem, StateSpace
from repro.exceptions import ReductionError, ReproError, SingularPencilError
from repro.linalg.basics import is_positive_semidefinite, is_symmetric
from repro.linalg.pencil import SpectralContext
from repro.passivity.hamiltonian_test import proper_positive_real_test
from repro.passivity.m1 import (
    InfiniteChainData,
    extract_m1_via_chains,
    impulsive_chain_data,
)
from repro.passivity.proper_part import extract_stable_proper_part
from repro.passivity.reduction import (
    remove_impulsive_modes,
    remove_nondynamic_modes,
    restore_shh_structure,
)
from repro.passivity.result import PassivityReport

__all__ = ["ShhPassivityTest", "shh_passivity_test", "extract_proper_part"]


@dataclass
class ShhPassivityTest:
    """Configurable driver for the proposed SHH passivity test.

    Parameters
    ----------
    tol:
        Tolerance bundle shared by every reduction step.
    check_stability:
        When true (default) the finite spectrum is verified to lie in the open
        left half plane before anything else; an unstable system is reported
        as non-passive immediately (a strictly passive system is automatically
        stable).
    strict_counting:
        When true, a mismatch between the paper's removal-count bookkeeping
        and the chain-based Markov analysis is treated as a failure instead of
        a warning.  Default false: the chain-based analysis is authoritative.
    """

    tol: Tolerances = DEFAULT_TOLERANCES
    check_stability: bool = True
    strict_counting: bool = False

    def run(
        self,
        system: DescriptorSystem,
        chain_data: Optional["InfiniteChainData"] = None,
        spectral_context: Optional[SpectralContext] = None,
    ) -> PassivityReport:
        """Execute the full Figure-1 flow on ``system`` and return the report.

        Parameters
        ----------
        chain_data:
            Optional precomputed grade-1/2 chain structure at infinity (for
            example from the engine's decomposition cache); when omitted it is
            computed from scratch.  Must have been computed with the same
            tolerance bundle.
        spectral_context:
            Optional precomputed :class:`~repro.linalg.pencil.SpectralContext`
            of the pencil; the step-0 regularity and stability classification
            then reads the cached factorization instead of re-running its
            own.  Must match the tolerance bundle.
        """
        start = time.perf_counter()
        report = PassivityReport(is_passive=False, method="shh")
        try:
            self._run_flow(
                system,
                report,
                chain_data=chain_data,
                spectral_context=spectral_context,
            )
        except ReproError as error:
            # Any structural failure inside the flow means the reductions
            # could not be completed, which the paper interprets as a
            # non-passive input (Section 3 closing remark).
            report.is_passive = False
            if report.failure_reason is None:
                report.failure_reason = f"reduction failed: {error}"
            report.add_step("reduction_failure", str(error), passed=False)
        report.elapsed_seconds = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def _run_flow(
        self,
        system: DescriptorSystem,
        report: PassivityReport,
        chain_data: Optional["InfiniteChainData"] = None,
        spectral_context: Optional[SpectralContext] = None,
    ) -> None:
        tol = self.tol

        # Step 0: validation -------------------------------------------------
        if not system.is_square_io:
            report.failure_reason = "system is not square (inputs != outputs)"
            report.add_step("validate", report.failure_reason, passed=False)
            return
        if not system.is_regular(tol, context=spectral_context):
            report.failure_reason = "the pencil s E - A is singular"
            report.add_step("validate", report.failure_reason, passed=False)
            return
        report.add_step("validate", "square system with a regular pencil", passed=True)

        if self.check_stability:
            spectrum = system.spectrum(tol, context=spectral_context)
            stable = spectrum.is_stable
            report.add_step(
                "stability",
                "all finite dynamic modes lie in the open left half plane",
                passed=stable,
                n_finite=int(spectrum.finite.size),
                n_unstable=spectrum.n_unstable,
                n_imaginary=spectrum.n_imaginary,
            )
            if not stable:
                report.failure_reason = (
                    "the system has finite modes outside the open left half plane"
                )
                return

        # Step 1: Phi = G + G~ -------------------------------------------------
        phi = build_phi_realization(system, tol)
        report.add_step(
            "build_phi",
            "formed the SHH realization of Phi(s) = G(s) + G~(s)",
            passed=None,
            order=phi.order,
            shh_structure=bool(phi.is_shh(tol)),
        )

        # Step 2: remove impulse unobservable/uncontrollable modes -------------
        impulsive = remove_impulsive_modes(phi, tol)
        report.diagnostics["n_impulsive_directions_removed"] = impulsive.n_removed
        report.add_step(
            "remove_impulsive_modes",
            "projected out impulse-unobservable directions and their J-duals",
            passed=None,
            n_removed=impulsive.n_removed,
            transfer_defect=impulsive.transfer_defect,
        )

        # Step 3: impulse-free check -------------------------------------------
        # Uses the SVD-coordinate rank test of Section 2.5 (A22 nonsingular),
        # which costs one SVD instead of a full QZ of the doubled pencil.  The
        # same SVD of E1 drives the nondynamic elimination of step 4; each
        # step keeps its own A22 test.
        from repro.descriptor.impulse import is_impulse_free as svd_impulse_free

        reduced = impulsive.system
        e_svd = np.linalg.svd(reduced.e)
        impulse_free = svd_impulse_free(reduced, tol, e_svd=e_svd)
        report.add_step(
            "impulse_free_check",
            "the reduced Phi realization must be impulse-free",
            passed=impulse_free,
        )
        if not impulse_free:
            report.failure_reason = (
                "Phi(s) retains impulsive modes after removing the unobservable/"
                "uncontrollable ones; the impulsive part of G cannot cancel "
                "against its adjoint"
            )
            return

        # Step 4: remove nondynamic modes --------------------------------------
        # Both reductions probe the same point, so step 2's evaluation of the
        # reduced system is reused here.
        nondynamic = remove_nondynamic_modes(
            reduced, tol, e_svd=e_svd, probe_response=impulsive.probe_response
        )
        report.diagnostics["n_nondynamic_removed"] = nondynamic.n_removed
        counts_equal = impulsive.n_removed == nondynamic.n_removed
        report.add_step(
            "remove_nondynamic_modes",
            "eliminated the remaining nondynamic modes by a Schur-complement "
            "strong equivalence",
            passed=None,
            n_removed=nondynamic.n_removed,
            transfer_defect=nondynamic.transfer_defect,
            removal_counts_equal=counts_equal,
        )

        # Step 5: Markov-parameter structure of G -------------------------------
        chains = chain_data if chain_data is not None else impulsive_chain_data(system, tol)
        report.diagnostics["n_impulsive_chains"] = chains.n_chains
        if chains.has_higher_grade:
            report.add_step(
                "markov_structure",
                "grade-3 (or higher) generalized eigenvector chains detected: "
                "some M_k with k >= 2 is nonzero",
                passed=False,
            )
            report.failure_reason = (
                "G(s) has Markov parameters of order >= 2 (impulsive part is not "
                "a pure s*M1 term)"
            )
            return
        if self.strict_counting and chains.n_chains > 0 and not counts_equal:
            report.add_step(
                "markov_structure",
                "removal-count bookkeeping contradicts a pure s*M1 impulsive part",
                passed=False,
            )
            report.failure_reason = (
                "the number of removed impulsive directions does not match the "
                "number of removed nondynamic modes"
            )
            return
        report.add_step(
            "markov_structure",
            "the impulsive part of G is at most s*M1",
            passed=True,
            counts_equal=counts_equal,
        )

        # Step 6: extract and check M1 -----------------------------------------
        if chains.n_chains > 0:
            try:
                m1 = extract_m1_via_chains(system, chains, tol)
            except ReductionError:
                from repro.descriptor.markov import first_markov_parameter

                m1 = first_markov_parameter(system, tol, context=spectral_context)
            symmetric = is_symmetric(m1, tol)
            psd = is_positive_semidefinite(m1, tol)
            report.diagnostics["m1"] = m1
            report.diagnostics["m1_eigenvalues"] = np.linalg.eigvalsh(
                0.5 * (m1 + m1.T)
            )
            report.add_step(
                "m1_check",
                "M1 must be symmetric positive semidefinite",
                passed=bool(symmetric and psd),
                symmetric=symmetric,
                positive_semidefinite=psd,
            )
            if not (symmetric and psd):
                report.failure_reason = (
                    "the residue matrix at infinity M1 is not symmetric positive "
                    "semidefinite"
                )
                return
        else:
            report.add_step(
                "m1_check", "no impulsive modes: M1 = 0", passed=True
            )

        # Step 7: restore SHH structure and extract the stable proper part -----
        restoration = restore_shh_structure(nondynamic.system, tol)
        report.add_step(
            "restore_shh",
            "restored the skew-Hamiltonian/Hamiltonian pencil structure",
            passed=None,
            order=restoration.e_shh.shape[0],
        )
        extraction = extract_stable_proper_part(restoration, tol)
        report.diagnostics["proper_part_order"] = extraction.stable_part.order
        report.diagnostics["hamiltonian_residual"] = extraction.hamiltonian_residual
        report.diagnostics["adjoint_defect"] = extraction.adjoint_defect
        report.add_step(
            "extract_proper_part",
            "converted Phi to a standard Hamiltonian form and split off the "
            "stable proper part",
            passed=None,
            proper_order=extraction.stable_part.order,
            adjoint_defect=extraction.adjoint_defect,
        )

        # Step 8: positive realness of the proper part --------------------------
        pr_result = proper_positive_real_test(extraction.phi_half, tol)
        report.diagnostics["proper_pr_imaginary_eigenvalues"] = (
            pr_result.imaginary_eigenvalues
        )
        report.add_step(
            "proper_part_positive_real",
            "Hamiltonian-eigenvalue positive-realness test of the proper part",
            passed=pr_result.is_positive_real,
            n_imaginary_crossings=int(pr_result.imaginary_eigenvalues.size),
            regularization=pr_result.regularization,
            anchor_min_eig=pr_result.boundary_check_min_eig,
        )
        if not pr_result.is_positive_real:
            report.failure_reason = (
                "the proper part of G is not positive real (the Hermitian part "
                "of the frequency response becomes indefinite)"
            )
            return

        report.is_passive = True

    # ------------------------------------------------------------------
    def extract_proper_part(
        self,
        system: DescriptorSystem,
        spectral_context: Optional[SpectralContext] = None,
    ) -> StateSpace:
        """Side-track of the paper: decouple the proper part of ``G``.

        Runs the same reduction pipeline and returns ``G_p = G_sp + M0`` as an
        explicit state space, where ``G_sp`` is the stable strictly-proper
        part recovered from ``Phi`` and ``M0`` is the constant term of ``G``
        at infinity (extracted through the cached spectral separation when a
        ``spectral_context`` is supplied).
        """
        tol = self.tol
        phi = build_phi_realization(system, tol)
        impulsive = remove_impulsive_modes(phi, tol)
        nondynamic = remove_nondynamic_modes(
            impulsive.system, tol, probe_response=impulsive.probe_response
        )
        restoration = restore_shh_structure(nondynamic.system, tol)
        extraction = extract_stable_proper_part(restoration, tol)
        from repro.descriptor.markov import zeroth_markov_parameter

        m0 = zeroth_markov_parameter(system, tol, context=spectral_context)
        stable = extraction.stable_part
        return StateSpace(stable.a, stable.b, stable.c, m0)


def shh_passivity_test(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    check_stability: bool = True,
    chain_data: Optional["InfiniteChainData"] = None,
    spectral_context: Optional[SpectralContext] = None,
) -> PassivityReport:
    """Run the proposed SHH passivity test on ``system`` (functional interface)."""
    driver = ShhPassivityTest(
        tol=tol or DEFAULT_TOLERANCES, check_stability=check_stability
    )
    return driver.run(
        system, chain_data=chain_data, spectral_context=spectral_context
    )


def extract_proper_part(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    spectral_context: Optional[SpectralContext] = None,
) -> StateSpace:
    """Decouple the proper part of a descriptor system via the SHH pipeline."""
    driver = ShhPassivityTest(tol=tol or DEFAULT_TOLERANCES)
    return driver.extract_proper_part(system, spectral_context=spectral_context)
