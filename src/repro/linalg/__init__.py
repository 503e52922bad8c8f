"""Structured dense linear algebra substrate.

This subpackage collects every matrix-level building block used by the
descriptor-system machinery and the passivity tests:

* :mod:`repro.linalg.basics` — structural predicates (symmetry, definiteness)
  and small helpers shared across the library.
* :mod:`repro.linalg.subspaces` — SVD-based range/kernel computations,
  intersections, sums and orthogonal complements of subspaces.
* :mod:`repro.linalg.elementary` — Householder reflectors and Givens rotations.
* :mod:`repro.linalg.hamiltonian` — Hamiltonian / skew-Hamiltonian structure.
* :mod:`repro.linalg.symplectic` — (orthogonal) symplectic matrices and the
  elementary orthogonal symplectic transformations used by the PVL reduction.
* :mod:`repro.linalg.skew_hamiltonian_schur` — Van Loan (PVL) block
  triangularization of skew-Hamiltonian matrices and the conversion of a
  nonsingular skew-Hamiltonian/Hamiltonian pencil to a standard Hamiltonian
  state matrix.
* :mod:`repro.linalg.invariant_subspace` — ordered Schur forms and stable
  invariant subspaces (plain and Hamiltonian-aware).
* :mod:`repro.linalg.lyapunov` / :mod:`repro.linalg.sylvester` — Bartels–Stewart
  type solvers for Lyapunov, Sylvester and coupled generalized Sylvester
  equations.
* :mod:`repro.linalg.riccati` — continuous algebraic Riccati equations via the
  Hamiltonian Schur method.
* :mod:`repro.linalg.pencil` — regularity, generalized eigenvalues and
  finite/infinite spectral classification of matrix pencils.
* :mod:`repro.linalg.batched` — stacked (batched) eigenvalue and response
  kernels: ``(k, n, n)`` gufunc stacks that run one GIL-releasing LAPACK
  region per batch instead of one Python call per matrix.
* :mod:`repro.linalg.sparse` — the sparsity-preserving helpers of the sparse
  MNA backend: canonical CSR forms, sparse LU-backed solves, Gershgorin /
  Lanczos spectral probes and the permutation-based nondynamic deflation.
"""

from repro.linalg.batched import (
    batched_eigvals,
    batched_eigvalsh,
    batched_hermitian_min_eig,
    group_by_shape,
    state_space_hermitian_min_eigs,
)
from repro.linalg.basics import (
    is_hermitian,
    is_negative_semidefinite,
    is_positive_definite,
    is_positive_semidefinite,
    is_skew_symmetric,
    is_symmetric,
    skew_part,
    symmetric_part,
)
from repro.linalg.subspaces import (
    column_space,
    left_null_space,
    null_space,
    orth_complement_within,
    subspace_intersection,
    subspace_sum,
    subspaces_equal,
)
from repro.linalg.hamiltonian import (
    hamiltonian_blocks,
    is_hamiltonian,
    is_skew_hamiltonian,
    is_shh_pencil,
    random_hamiltonian,
    random_skew_hamiltonian,
    symplectic_identity,
)
from repro.linalg.symplectic import (
    is_orthogonal_symplectic,
    is_symplectic,
    random_orthogonal_symplectic,
)
from repro.linalg.skew_hamiltonian_schur import (
    pvl_decomposition,
    shh_pencil_to_hamiltonian,
)
from repro.linalg.invariant_subspace import (
    hamiltonian_stable_invariant_subspace,
    stable_invariant_subspace,
)
from repro.linalg.lyapunov import (
    solve_continuous_lyapunov,
    solve_sylvester,
    solve_triangular_sylvester,
)
from repro.linalg.sylvester import solve_generalized_coupled_sylvester
from repro.linalg.riccati import solve_care, solve_positive_real_are
from repro.linalg.pencil import (
    SpectralContext,
    classify_alpha_beta,
    classify_generalized_eigenvalues,
    compute_spectral_context,
    generalized_eigenvalues,
    is_regular_pencil,
    ordered_qz_finite_first,
    pencil_degree,
)
from repro.linalg.sparse import (
    SparseDeflation,
    extreme_symmetric_eigenvalue,
    is_sparse_nsd,
    is_sparse_psd,
    is_sparse_symmetric,
    kernel_permutation,
    sparse_nondynamic_deflation,
    sparse_regularity_probe,
    symmetric_spectrum_bounds,
    to_canonical_csr,
    try_sparse_lu,
)

__all__ = [
    "batched_eigvals",
    "batched_eigvalsh",
    "batched_hermitian_min_eig",
    "group_by_shape",
    "state_space_hermitian_min_eigs",
    "is_symmetric",
    "is_skew_symmetric",
    "is_hermitian",
    "is_positive_semidefinite",
    "is_positive_definite",
    "is_negative_semidefinite",
    "symmetric_part",
    "skew_part",
    "column_space",
    "null_space",
    "left_null_space",
    "subspace_intersection",
    "subspace_sum",
    "orth_complement_within",
    "subspaces_equal",
    "symplectic_identity",
    "is_hamiltonian",
    "is_skew_hamiltonian",
    "is_shh_pencil",
    "hamiltonian_blocks",
    "random_hamiltonian",
    "random_skew_hamiltonian",
    "is_symplectic",
    "is_orthogonal_symplectic",
    "random_orthogonal_symplectic",
    "pvl_decomposition",
    "shh_pencil_to_hamiltonian",
    "stable_invariant_subspace",
    "hamiltonian_stable_invariant_subspace",
    "solve_continuous_lyapunov",
    "solve_sylvester",
    "solve_triangular_sylvester",
    "solve_generalized_coupled_sylvester",
    "solve_care",
    "solve_positive_real_are",
    "generalized_eigenvalues",
    "classify_alpha_beta",
    "classify_generalized_eigenvalues",
    "is_regular_pencil",
    "ordered_qz_finite_first",
    "pencil_degree",
    "SpectralContext",
    "compute_spectral_context",
    "SparseDeflation",
    "extreme_symmetric_eigenvalue",
    "is_sparse_nsd",
    "is_sparse_psd",
    "is_sparse_symmetric",
    "kernel_permutation",
    "sparse_nondynamic_deflation",
    "sparse_regularity_probe",
    "symmetric_spectrum_bounds",
    "to_canonical_csr",
    "try_sparse_lu",
]
