"""Unified passivity engine: method registry, shared cache, batch runner.

The engine is the orchestration layer on top of the individual passivity
tests:

* :mod:`repro.engine.registry` — pluggable :class:`MethodSpec` table with
  capability metadata (cost class, order limits, admissibility requirements),
* :mod:`repro.engine.cache` — fingerprint-keyed :class:`DecompositionCache`
  sharing expensive intermediates (pencil spectral context, chain structure,
  Weierstrass form, admissible reduction, additive decomposition) across
  methods and calls,
* :mod:`repro.engine.runner` — :class:`BatchRunner` fanning systems x methods
  over a process/thread pool with per-task timeouts and telemetry,
* :mod:`repro.engine.executor` — :func:`run_cells`, the one process task,
  and the :class:`SupervisedPool` that runs it; every payload travels
  through the pool's pickle pipe,
* :mod:`repro.engine.api` — :func:`check_passivity`, the one-call entry point
  with ``method="auto"`` selection.
"""

from repro.engine.api import (
    SPARSE_AUTO_MAX_DENSITY,
    SPARSE_AUTO_MIN_ORDER,
    check_passivity,
    select_method,
)
from repro.engine.cache import (
    KNOWN_KINDS,
    PENCIL_SPECTRUM,
    CacheStats,
    DecompositionCache,
    SystemProfile,
    fingerprint_system,
    profile_system,
)
from repro.linalg.pencil import SpectralContext, compute_spectral_context
from repro.engine.registry import (
    COST_CUBIC,
    COST_SDP,
    COST_SPARSE,
    DEFAULT_REGISTRY,
    MethodRegistry,
    MethodSpec,
    UnknownMethodError,
    get_method,
    register_method,
)
from repro.engine.incremental import (
    DEFAULT_INCREMENTAL_CONFIG,
    DeltaFingerprint,
    IncrementalConfig,
    MatrixDelta,
    UpdateLineage,
    attempt_incremental,
    delta_distance,
    structured_delta,
)
from repro.engine.runner import BatchOutcome, BatchResult, BatchRunner

__all__ = [
    "check_passivity",
    "select_method",
    "SPARSE_AUTO_MIN_ORDER",
    "SPARSE_AUTO_MAX_DENSITY",
    "CacheStats",
    "DecompositionCache",
    "SystemProfile",
    "SpectralContext",
    "PENCIL_SPECTRUM",
    "KNOWN_KINDS",
    "compute_spectral_context",
    "fingerprint_system",
    "profile_system",
    "COST_CUBIC",
    "COST_SDP",
    "COST_SPARSE",
    "DEFAULT_REGISTRY",
    "MethodRegistry",
    "MethodSpec",
    "UnknownMethodError",
    "get_method",
    "register_method",
    "BatchOutcome",
    "BatchResult",
    "BatchRunner",
    "DEFAULT_INCREMENTAL_CONFIG",
    "DeltaFingerprint",
    "IncrementalConfig",
    "MatrixDelta",
    "UpdateLineage",
    "attempt_incremental",
    "delta_distance",
    "structured_delta",
]
