"""repro — fast passivity testing for descriptor systems.

A from-scratch Python reproduction of

    N. Wong and C.K. Chu, "A Fast Passivity Test for Descriptor Systems Via
    Structure-Preserving Transformations of Skew-Hamiltonian/Hamiltonian
    Matrix Pencils", Proc. 43rd Design Automation Conference (DAC), 2006.

The top-level namespace re-exports the objects most users need:

* :func:`check_passivity` — the engine entry point with ``method="auto"``
  dispatch, plus :class:`BatchRunner` / :class:`DecompositionCache` /
  :class:`MethodRegistry` for batched, cached, pluggable sweeps,
* :class:`PassivityService` — the async job-queue serving layer
  (submit/poll/cancel with fingerprint-level deduplication, optional
  process-pool execution and queue backpressure; see :mod:`repro.service`),
* :class:`DecompositionStore` — the persistent (file-backed) L2 tier behind
  :class:`DecompositionCache`, sharing finished verdicts across processes
  and restarts (see :mod:`repro.store`),
* :class:`DescriptorSystem` / :class:`StateSpace` — system containers,
* :func:`shh_passivity_test` — the paper's O(n^3) structure-preserving test,
* :func:`lmi_passivity_test`, :func:`weierstrass_passivity_test`,
  :func:`gare_passivity_test`, :func:`sampling_passivity_check` — baselines,
* :func:`extract_proper_part` — the proper-part "sidetrack",
* the :mod:`repro.circuits` generators for RLC/MNA workloads.

See ``README.md`` for a quickstart (engine API first) and the layout table.
"""

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor import (
    AdditiveDecomposition,
    DescriptorSystem,
    PhiRealization,
    StateSpace,
    additive_decomposition,
    adjoint_system,
    build_phi_realization,
    count_modes,
    first_markov_parameter,
    markov_parameters,
    separate_finite_infinite,
    weierstrass_form,
)
from repro.passivity import (
    PassivityReport,
    ShhPassivityTest,
    extract_proper_part,
    gare_passivity_test,
    lmi_passivity_test,
    proper_positive_real_test,
    sampling_passivity_check,
    shh_passivity_test,
    sparse_shh_passivity_test,
    structural_passivity_certificate,
    weierstrass_passivity_test,
)
from repro.engine import (
    BatchOutcome,
    BatchResult,
    BatchRunner,
    CacheStats,
    DecompositionCache,
    MethodRegistry,
    MethodSpec,
    SystemProfile,
    UnknownMethodError,
    check_passivity,
    profile_system,
    register_method,
    select_method,
)
from repro.service import JobHandle, JobState, PassivityService, ServiceStats
from repro.store import DecompositionStore
from repro import circuits, descriptor, engine, linalg, passivity, sdp, service, store

__version__ = "1.8.0"

__all__ = [
    "__version__",
    "check_passivity",
    "select_method",
    "profile_system",
    "register_method",
    "BatchOutcome",
    "BatchResult",
    "BatchRunner",
    "CacheStats",
    "DecompositionCache",
    "MethodRegistry",
    "MethodSpec",
    "SystemProfile",
    "UnknownMethodError",
    "engine",
    "PassivityService",
    "ServiceStats",
    "JobHandle",
    "JobState",
    "service",
    "DecompositionStore",
    "store",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "DescriptorSystem",
    "StateSpace",
    "PhiRealization",
    "AdditiveDecomposition",
    "additive_decomposition",
    "adjoint_system",
    "build_phi_realization",
    "count_modes",
    "markov_parameters",
    "first_markov_parameter",
    "separate_finite_infinite",
    "weierstrass_form",
    "PassivityReport",
    "ShhPassivityTest",
    "shh_passivity_test",
    "sparse_shh_passivity_test",
    "structural_passivity_certificate",
    "lmi_passivity_test",
    "weierstrass_passivity_test",
    "gare_passivity_test",
    "sampling_passivity_check",
    "proper_positive_real_test",
    "extract_proper_part",
    "circuits",
    "descriptor",
    "linalg",
    "passivity",
    "sdp",
]
