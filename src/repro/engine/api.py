"""Top-level passivity-checking API: ``check_passivity(system, method="auto")``.

This is the engine's front door.  It resolves the requested method in the
registry, enforces the method's capability metadata (order limits,
admissibility requirements), routes expensive intermediates through the shared
decomposition cache, and — for ``method="auto"`` — picks the right algorithm
from the cached structural profile of the system:

* **SHH** by default: the paper's O(n^3) structure-preserving test handles any
  square regular descriptor system.
* **GARE** when the system is already admissible (regular, stable,
  impulse-free): the Riccati certificate then applies directly, with no
  impulsive reductions to perform.
* **SHH-sparse** for large sparse-backed systems (order >=
  :data:`SPARSE_AUTO_MIN_ORDER` with pencil density <=
  :data:`SPARSE_AUTO_MAX_DENSITY`): the dense structural profile is O(n^3)
  and would densify the stamps, so the sparse method is chosen *before* any
  profiling and the densification never happens.
* **LMI** is never auto-selected: within its order limit the SHH test is
  already faster, and beyond it the LMI test is impractical (the paper's NIL
  entries).  It remains available by explicit request.

With a caller cache, a call first looks up its finished report — the
``verdict`` kind, keyed by :func:`verdict_key` — and returns a copy of it
without any other work; a computed report is cached the same way.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Optional

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.engine.cache import (
    DecompositionCache,
    SystemProfile,
    canonical_options,
    fingerprint_system,
    profile_system,
)
from repro.engine.registry import DEFAULT_REGISTRY, MethodRegistry, MethodSpec
from repro.obs.trace import trace_span
from repro.passivity.result import PassivityReport

__all__ = [
    "check_passivity",
    "select_method",
    "cached_verdict",
    "verdict_key",
    "VERDICT_FORMAT",
    "SPARSE_AUTO_MIN_ORDER",
    "SPARSE_AUTO_MAX_DENSITY",
]

#: ``method="auto"`` routes sparse-backed systems of at least this order to
#: the ``shh-sparse`` method (below it, the dense pipeline is already cheap
#: and its structural profile enables the GARE shortcut).
SPARSE_AUTO_MIN_ORDER = 256

#: ...provided the pencil stamps are actually sparse: above this fill
#: fraction (``nnz / 2n^2``) the dense pipeline wins and is selected instead.
SPARSE_AUTO_MAX_DENSITY = 0.25


def _auto_prefers_sparse(system: DescriptorSystem, registry: MethodRegistry) -> bool:
    """True when ``method="auto"`` should dispatch to the sparse backend."""
    return (
        "shh-sparse" in registry
        and system.is_sparse
        and system.order >= SPARSE_AUTO_MIN_ORDER
        and system.density <= SPARSE_AUTO_MAX_DENSITY
    )


def select_method(
    system: DescriptorSystem,
    tol: Optional[Tolerances] = None,
    cache: Optional[DecompositionCache] = None,
    registry: Optional[MethodRegistry] = None,
    profile: Optional[SystemProfile] = None,
) -> MethodSpec:
    """Pick the method ``check_passivity(system, method="auto")`` would run."""
    registry = registry or DEFAULT_REGISTRY
    # Large sparse systems are routed before (and instead of) the dense
    # structural profile, whose chain analysis would densify the stamps.
    if _auto_prefers_sparse(system, registry):
        return registry.resolve("shh-sparse")
    if profile is None:
        profile = profile_system(system, tol, cache=cache)
    if profile.is_admissible and "gare" in registry:
        return registry.resolve("gare")
    return registry.resolve("shh")


#: Version of the cached verdict's key and content.  Bump it when a change
#: could alter a report for the same system, method, runner and options;
#: every verdict cached before then misses.
VERDICT_FORMAT = 1

#: The methods ``method="auto"`` can dispatch to.
_AUTO_METHODS = ("shh", "gare", "shh-sparse")


def verdict_key(
    system: DescriptorSystem,
    method: str = "auto",
    tol: Optional[Tolerances] = None,
    registry: Optional[MethodRegistry] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Key of the finished report ``check_passivity`` caches for these arguments.

    A SHA-256 over :data:`VERDICT_FORMAT`, the system fingerprint (which
    covers ``tol``), the resolved method name, the runner identity
    (module and qualname; for ``"auto"``, those of every method it can pick)
    and the :func:`~repro.engine.cache.canonical_options` form of
    ``options``.  ``None`` when an option or a runner has no exact form:
    such a call is never cached.  The service uses the same key as its
    deduplication identity.

    Raises
    ------
    UnknownMethodError
        When ``method`` is neither ``"auto"`` nor registered.
    """
    registry = registry or DEFAULT_REGISTRY
    if method == "auto":
        specs = [registry.resolve(name) for name in _AUTO_METHODS if name in registry]
    else:
        specs = [registry.resolve(method)]
        method = specs[0].name
    runners = [
        [getattr(spec.runner, "__module__", None), getattr(spec.runner, "__qualname__", None)]
        for spec in specs
    ]
    form = canonical_options(options or {})
    if form is None or not all(module and qualname for module, qualname in runners):
        return None
    document = [VERDICT_FORMAT, fingerprint_system(system, tol), method, runners, form]
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def cached_verdict(
    cache: DecompositionCache, key: str, auto: bool
) -> Optional[PassivityReport]:
    """The report cached under verdict key ``key``, stamped as this call's answer.

    ``None`` on a miss.  A hit is a copy whose ``elapsed_seconds`` is the
    lookup's time and whose engine block keeps the resolved method but reads
    ``verdict_cached=True`` and ``factorizations=0``.
    """
    start = time.perf_counter()
    report = cache.verdict(key)
    if report is None:
        return None
    report.elapsed_seconds = time.perf_counter() - start
    engine = report.diagnostics.get("engine", {})
    _attach_engine_diagnostics(
        report, engine.get("method", report.method), auto,
        cached=True, skipped=False, factorizations=0, verdict_cached=True,
    )
    return report


#: Sentinel distinguishing "no order_limit override given" from an explicit None.
_UNSET = object()


def _attach_engine_diagnostics(
    report: PassivityReport,
    method: str,
    auto: bool,
    cached: bool,
    skipped: bool,
    factorizations: int,
    incremental: bool = False,
    verdict_cached: bool = False,
) -> None:
    """Record the dispatch decision under ``diagnostics["engine"]``.

    Every ``check_passivity`` exit — success, order-limit refusal,
    admissibility refusal — writes the *same* schema so downstream telemetry
    never has to guard for missing keys:

    * ``method`` / ``auto`` — the resolved method and whether auto-selection
      picked it,
    * ``cached`` — whether a persistent caller-supplied cache was in play,
    * ``skipped`` — True when the engine refused the cell without running it,
    * ``factorizations`` — decomposition computations this call actually
      performed (0 on a warm cache; best-effort when several threads share
      one cache concurrently),
    * ``incremental`` — True when the verdict was certified by the
      perturbation-aware update tier instead of the cold pipeline,
    * ``verdict_cached`` — True when the whole report was served from the
      ``verdict`` cache (then ``factorizations`` is 0).
    """
    report.diagnostics["engine"] = {
        "method": method,
        "auto": auto,
        "cached": cached,
        "skipped": skipped,
        "factorizations": factorizations,
        "incremental": incremental,
        "verdict_cached": verdict_cached,
    }


def _order_limit_report(
    spec: MethodSpec, system: DescriptorSystem, limit: int
) -> PassivityReport:
    reason = (
        f"skipped: order {system.order} exceeds the {spec.name} method's "
        f"order limit of {limit} (pass order_limit=None to force)"
    )
    report = PassivityReport(is_passive=False, method=spec.name, failure_reason=reason)
    report.add_step("order_limit", reason, passed=False)
    return report


def _not_admissible_report(spec: MethodSpec, profile: SystemProfile) -> PassivityReport:
    reasons = []
    if not profile.is_regular:
        reasons.append("the pencil s E - A is singular")
    if not profile.is_stable:
        reasons.append("the finite spectrum is not stable")
    if not profile.is_impulse_free:
        reasons.append(f"{profile.n_impulsive_chains} impulsive mode(s) present")
    reason = (
        f"the {spec.name} method requires an admissible (regular, stable, "
        f"impulse-free) descriptor system: " + "; ".join(reasons)
    )
    report = PassivityReport(is_passive=False, method=spec.name, failure_reason=reason)
    report.add_step("admissibility", reason, passed=False)
    return report


def check_passivity(
    system: DescriptorSystem,
    method: str = "auto",
    tol: Optional[Tolerances] = None,
    cache: Optional[DecompositionCache] = None,
    registry: Optional[MethodRegistry] = None,
    ancestor: Optional[Any] = None,
    **options: Any,
) -> PassivityReport:
    """Check passivity of a descriptor system through the engine.

    Parameters
    ----------
    system:
        The descriptor system under test.
    method:
        A registered method name or alias (``"shh"``/``"proposed"``,
        ``"lmi"``, ``"weierstrass"``, ``"gare"``, plus anything the caller has
        registered), or ``"auto"`` to select from the system's structural
        profile.
    tol:
        Tolerance bundle; also part of the cache key.
    cache:
        Optional :class:`DecompositionCache`.  When supplied, expensive
        intermediates (chain structure, Weierstrass form, admissible
        reduction) are computed once per system and shared across methods and
        repeated calls.  When omitted, an ephemeral per-call cache still
        shares intermediates *within* the call (e.g. the auto profile's chain
        analysis feeds the SHH test) but nothing persists across calls.
        On a cache miss the decomposition cost is paid during the adapter's
        fetch, before the method's own ``elapsed_seconds`` timer starts —
        time the whole ``check_passivity`` call when benchmarking.
    registry:
        Method registry; defaults to the process-wide registry.
    ancestor:
        Optional warm-start hint for the perturbation-aware tier: a nearby
        :class:`~repro.descriptor.system.DescriptorSystem` whose
        decompositions are already cached, or the string ``"auto"`` to look
        one up via :meth:`DecompositionCache.nearest`.  When the certified
        incremental update succeeds the cold pipeline is skipped entirely
        (``diagnostics["engine"]["incremental"]`` is True); when any
        validity bound fails, the call falls back to the cold path and
        counts a ``CacheStats.incremental_fallbacks`` — verdicts are never
        weaker than cold ones.  Only meaningful for ``method`` ``"auto"``
        or ``"gare"`` on dense systems.
    **options:
        Forwarded to the method runner (e.g. ``check_stability=False`` for the
        SHH test, ``order_limit=None`` to override an LMI refusal).

    Returns
    -------
    PassivityReport
        The report of the selected method; ``report.diagnostics["engine"]``
        records the dispatch decision.  With a ``cache``, a call whose
        :func:`verdict_key` is cached returns a copy of the earlier report
        before any other work (the incremental attempt included):
        ``elapsed_seconds`` is then the lookup's time and the engine block
        reads ``verdict_cached=True``, ``factorizations=0``.  Every computed
        report except a skipped one is cached under its key.
    """
    registry = registry or DEFAULT_REGISTRY
    tol = tol or DEFAULT_TOLERANCES
    key = None if cache is None else verdict_key(system, method, tol, registry, options)
    if key is not None:
        report = cached_verdict(cache, key, auto=method == "auto")
        if report is not None:
            return report
    report = _dispatch(system, method, tol, cache, registry, ancestor, options)
    if key is not None and not report.diagnostics["engine"]["skipped"]:
        cache.put_verdict(key, report)
    return report


def _dispatch(
    system: DescriptorSystem,
    method: str,
    tol: Tolerances,
    cache: Optional[DecompositionCache],
    registry: MethodRegistry,
    ancestor: Optional[Any],
    options: Dict[str, Any],
) -> PassivityReport:
    """Run one ``check_passivity`` call that the verdict cache did not answer."""
    persistent = cache is not None
    if cache is None:
        # Ephemeral cache: the auto profile, admissibility pre-screen and the
        # method itself share one structural analysis instead of recomputing
        # the O(n^3) decompositions within a single call.
        cache = DecompositionCache(maxsize=8)
    factorizations_baseline = cache.stats.factorizations

    def factorizations_delta() -> int:
        return cache.stats.factorizations - factorizations_baseline

    auto = method == "auto"

    if (
        ancestor is not None
        and method in ("auto", "gare")
        and not _auto_prefers_sparse(system, registry)
    ):
        from repro.engine.incremental import (
            DEFAULT_INCREMENTAL_CONFIG,
            attempt_incremental,
        )

        config = options.pop("incremental_config", None) or DEFAULT_INCREMENTAL_CONFIG
        report = attempt_incremental(system, ancestor, cache, tol, config)
        if report is not None:
            _attach_engine_diagnostics(
                report,
                "gare",
                auto,
                persistent,
                skipped=False,
                factorizations=factorizations_delta(),
                incremental=True,
            )
            return report
    else:
        options.pop("incremental_config", None)

    profile: Optional[SystemProfile] = None
    if auto:
        if _auto_prefers_sparse(system, registry):
            # Skip the dense profile entirely: profiling a large sparse
            # system would densify its stamps and run the O(n^3) chain
            # analysis the sparse method exists to avoid.
            spec = registry.resolve("shh-sparse")
        else:
            profile = profile_system(system, tol, cache=cache)
            spec = select_method(
                system, tol, cache=cache, registry=registry, profile=profile
            )
    else:
        spec = registry.resolve(method)

    # The order limit is an engine-level control for every method: the
    # override is consumed here, never forwarded to runners (most of which
    # have no such parameter).
    override = options.pop("order_limit", _UNSET)
    limit = spec.order_limit if override is _UNSET else override
    if limit is not None and system.order > limit:
        report = _order_limit_report(spec, system, limit)
        _attach_engine_diagnostics(
            report, spec.name, auto, persistent, skipped=True,
            factorizations=factorizations_delta(),
        )
        return report

    if spec.requires_admissible:
        # Pre-screen against the cached profile: the chain analysis and the
        # pencil spectrum are shared with the method itself, so a refusal
        # costs no extra decompositions.
        if profile is None:
            profile = profile_system(system, tol, cache=cache)
        if not profile.is_admissible:
            # Not "skipped": the admissibility pre-screen *is* the method's
            # own first step, and the refusal is its (non-passive) verdict.
            report = _not_admissible_report(spec, profile)
            _attach_engine_diagnostics(
                report, spec.name, auto, persistent, skipped=False,
                factorizations=factorizations_delta(),
            )
            return report

    with trace_span(
        "engine.dispatch", method=spec.name, auto=auto, order=system.order
    ):
        report = spec.run(system, tol=tol, cache=cache, **options)
    _attach_engine_diagnostics(
        report, spec.name, auto, persistent, skipped=False,
        factorizations=factorizations_delta(),
    )
    return report
