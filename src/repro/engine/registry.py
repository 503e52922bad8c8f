"""Pluggable registry of passivity-test methods with capability metadata.

Callers used to hand-dispatch the four test methods through ``if/elif`` chains
(``"lmi"/"proposed"/"weierstrass"``) sprinkled across the bench harness, the
applications and the examples.  The registry replaces those chains with a
single lookup table whose entries carry capability metadata — cost class,
order limits, admissibility requirements — so dispatch, validation and
auto-selection all read from one place and new backends (sparse, sampled,
multi-process) can plug in without touching the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple

from repro.config import Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.engine.cache import PENCIL_SPECTRUM
from repro.exceptions import NotAdmissibleError, ReproError
from repro.passivity.gare_test import gare_passivity_test
from repro.passivity.lmi_test import lmi_passivity_test
from repro.passivity.result import PassivityReport
from repro.passivity.shh_test import shh_passivity_test
from repro.passivity.sparse_shh import sparse_shh_passivity_test
from repro.passivity.weierstrass_test import weierstrass_passivity_test

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cache import DecompositionCache

__all__ = [
    "COST_CUBIC",
    "COST_SDP",
    "COST_SPARSE",
    "DEFAULT_REGISTRY",
    "MethodRegistry",
    "MethodSpec",
    "UnknownMethodError",
    "get_method",
    "register_method",
]

#: Cost classes: dense O(n^3) pipelines vs. the O(n^5)-O(n^6) interior-point
#: LMI vs. the sparse backend whose cost scales with the stored nonzeros.
COST_CUBIC = "O(n^3)"
COST_SDP = "O(n^5)-O(n^6)"
COST_SPARSE = "O(nnz)"

#: Runner signature: ``runner(system, tol, cache, **options) -> PassivityReport``.
MethodRunner = Callable[..., PassivityReport]


class UnknownMethodError(ReproError, ValueError):
    """The requested passivity-test method is not registered."""


@dataclass(frozen=True)
class MethodSpec:
    """One registered passivity method and its capability metadata.

    Attributes
    ----------
    name:
        Canonical method name (``report.method`` of the produced reports).
    runner:
        ``runner(system, tol, cache, **options) -> PassivityReport``.  The
        cache argument may be ``None`` (caching disabled); runners that can
        share intermediates should fetch them through it.
    description:
        One-line human-readable summary.
    cost:
        Cost class (:data:`COST_CUBIC` or :data:`COST_SDP`).
    order_limit:
        Default highest model order the method is practical for; ``None``
        means unlimited.  The engine refuses larger systems unless the caller
        overrides the limit explicitly.
    requires_admissible:
        True when the method is only valid for admissible (regular, stable,
        impulse-free) systems; the engine pre-screens such methods against the
        cached system profile.
    uses_spectral_cache:
        True when the method's runner consults the cached pencil spectral
        context (the dense SHH/GARE/Weierstrass adapters do); the batch
        runner only hoists a system's context out of the workers when some
        requested method would actually read it.
    aliases:
        Alternative lookup names (e.g. ``"proposed"`` for the SHH test,
        matching the paper's Table-1 column label).
    """

    name: str
    runner: MethodRunner
    description: str
    cost: str = COST_CUBIC
    order_limit: Optional[int] = None
    requires_admissible: bool = False
    uses_spectral_cache: bool = True
    aliases: Tuple[str, ...] = ()

    def run(
        self,
        system: DescriptorSystem,
        tol: Optional[Tolerances] = None,
        cache: Optional["DecompositionCache"] = None,
        **options: Any,
    ) -> PassivityReport:
        """Invoke the method on ``system``."""
        return self.runner(system, tol, cache, **options)


class MethodRegistry:
    """Name -> :class:`MethodSpec` table with alias resolution."""

    def __init__(self) -> None:
        self._specs: Dict[str, MethodSpec] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, spec: MethodSpec, replace: bool = False) -> MethodSpec:
        """Register ``spec`` under its canonical name and aliases.

        Raises
        ------
        ValueError
            If any of the names is already taken and ``replace`` is false.
        """
        names = (spec.name, *spec.aliases)
        for name in names:
            if not replace and (name in self._specs or name in self._aliases):
                raise ValueError(f"method name {name!r} is already registered")
        for alias in spec.aliases:
            owner = self._specs.get(alias)
            if owner is not None and owner.name != spec.name:
                # Aliases resolve before canonical names, so this would leave
                # `owner` listed but unreachable; replace cannot do that.
                raise ValueError(
                    f"alias {alias!r} would shadow the registered method "
                    f"{owner.name!r}; unregister it first"
                )
        # Drop stale aliases of a spec being replaced, and any old alias that
        # would otherwise shadow one of the new spec's names (aliases resolve
        # before canonical names).
        previous = self._specs.get(spec.name)
        if previous is not None:
            for alias in previous.aliases:
                self._aliases.pop(alias, None)
        for name in names:
            self._aliases.pop(name, None)
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    def unregister(self, name: str) -> None:
        """Remove a method (and its aliases) from the registry."""
        spec = self.resolve(name)
        del self._specs[spec.name]
        for alias in spec.aliases:
            # Only drop aliases still owned by this spec; a replace=True
            # registration may have reassigned one to another method.
            if self._aliases.get(alias) == spec.name:
                del self._aliases[alias]

    def resolve(self, name: str) -> MethodSpec:
        """Look up a method by canonical name or alias.

        Raises
        ------
        UnknownMethodError
            When no method answers to ``name``; the message lists the known
            names so a typo'd sweep fails with an actionable error.
        """
        canonical = self._aliases.get(name, name)
        spec = self._specs.get(canonical)
        if spec is None:
            known = ", ".join(sorted(self.known_names()))
            raise UnknownMethodError(
                f"unknown method {name!r}; registered methods: {known}"
            )
        return spec

    get = resolve

    def names(self) -> Tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._specs)

    def known_names(self) -> Tuple[str, ...]:
        """Every name that resolves (canonical names plus aliases)."""
        return tuple(self._specs) + tuple(self._aliases)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[MethodSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


# ----------------------------------------------------------------------
# Built-in runners: thin adapters that route the expensive intermediates
# through the shared decomposition cache when one is supplied.
# ----------------------------------------------------------------------
def _fetch_spectral(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
):
    """The cached spectral context, or ``None`` when unavailable.

    Decomposition errors (e.g. a malformed pencil) are swallowed so each
    test's own validation produces its graceful failure report instead of the
    adapter leaking the error.
    """
    if cache is None:
        return None
    try:
        return cache.spectral(system, tol)
    except ReproError:
        return None


def _run_shh(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    chain_data = options.pop("chain_data", None)
    if chain_data is None and cache is not None:
        try:
            chain_data = cache.chain_data(system, tol)
        except ReproError:
            # Let the test's own validation produce the graceful failure
            # report instead of leaking the decomposition error.
            chain_data = None
    context = options.pop("spectral_context", None)
    # SHH reads only regularity and stability: it reuses a cached context
    # (e.g. the auto profile's) but never pays for the ordered QZ itself.
    cached = cache is not None and cache.contains(system, PENCIL_SPECTRUM, tol)
    if context is None and cached:
        context = _fetch_spectral(system, tol, cache)
    return shh_passivity_test(
        system,
        tol=tol,
        chain_data=chain_data,
        spectral_context=context,
        **options,
    )


def _run_weierstrass(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    form = options.pop("form", None)
    if form is None and cache is not None:
        try:
            form = cache.weierstrass(system, tol)
        except ReproError:
            # E.g. a singular pencil: the test validates the system itself
            # and must report is_passive=False, exactly as without a cache.
            form = None
    context = options.pop("context", None)
    if context is None:
        context = _fetch_spectral(system, tol, cache)
    return weierstrass_passivity_test(
        system, tol=tol, form=form, context=context, **options
    )


def _run_shh_sparse(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    # The sparse test routes its deflation intermediate through the cache
    # itself (the certificate path needs no decomposition at all, so nothing
    # is prefetched here).
    return sparse_shh_passivity_test(system, tol=tol, cache=cache, **options)


def _run_sampling(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    from repro.passivity.sampling import sampling_passivity_check

    return sampling_passivity_check(system, tol=tol, **options)


def _run_lmi(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    return lmi_passivity_test(system, tol=tol, **options)


def _run_gare(
    system: DescriptorSystem,
    tol: Optional[Tolerances],
    cache: Optional["DecompositionCache"],
    **options: Any,
) -> PassivityReport:
    state_space = options.pop("state_space", None)
    if state_space is None and cache is not None:
        try:
            state_space = cache.gare_state_space(system, tol)
        except NotAdmissibleError as error:
            # Cached refusal: reproduce the test's admissibility-failure
            # report without redoing the spectral analysis.
            report = PassivityReport(
                is_passive=False, method="gare", failure_reason=str(error)
            )
            report.add_step("admissibility", str(error), passed=False)
            return report
        # The Riccati solve is deterministic per (system, tol) under the
        # default regularization choice, so it is a cache (and store) kind
        # too; an explicit regularization= or certificate= opts out.
        if (
            "certificate" not in options
            and "regularization" not in options
        ):
            options["certificate"] = cache.gare_certificate(system, tol)
    context = options.pop("context", None)
    if context is None and state_space is None:
        context = _fetch_spectral(system, tol, cache)
    return gare_passivity_test(
        system, tol=tol, state_space=state_space, context=context, **options
    )


#: Process-wide default registry holding the four built-in methods.
DEFAULT_REGISTRY = MethodRegistry()

DEFAULT_REGISTRY.register(
    MethodSpec(
        name="shh",
        runner=_run_shh,
        description=(
            "the paper's structure-preserving skew-Hamiltonian/Hamiltonian "
            "test (Figure 1 flow)"
        ),
        cost=COST_CUBIC,
        aliases=("proposed",),
    )
)
DEFAULT_REGISTRY.register(
    MethodSpec(
        name="lmi",
        runner=_run_lmi,
        description="extended positive-real-lemma LMI test (Freund & Jarre)",
        cost=COST_SDP,
        # Mirrors the paper's Table 1, where the LMI test hits the machine's
        # limits beyond order ~60-70 (the NIL entries).
        order_limit=60,
        uses_spectral_cache=False,
    )
)
DEFAULT_REGISTRY.register(
    MethodSpec(
        name="weierstrass",
        runner=_run_weierstrass,
        description="decomposition baseline via the (quasi-)Weierstrass form",
        cost=COST_CUBIC,
    )
)
DEFAULT_REGISTRY.register(
    MethodSpec(
        name="gare",
        runner=_run_gare,
        description="generalized-ARE certificate, admissible systems only",
        cost=COST_CUBIC,
        requires_admissible=True,
    )
)
DEFAULT_REGISTRY.register(
    MethodSpec(
        name="shh-sparse",
        runner=_run_shh_sparse,
        description=(
            "sparsity-aware test for large MNA models: O(nnz) structural "
            "LMI certificate, permutation-based deflation, half-size "
            "Hamiltonian test"
        ),
        cost=COST_SPARSE,
        # No order limit: lifting the dense caps is the point of the method.
        order_limit=None,
        uses_spectral_cache=False,
        aliases=("sparse",),
    )
)


DEFAULT_REGISTRY.register(
    MethodSpec(
        name="sampling",
        runner=_run_sampling,
        description=(
            "frequency-grid sampling heuristic (band-limited scans for "
            "frequency_sweep scenarios; never auto-selected)"
        ),
        cost=COST_CUBIC,
        uses_spectral_cache=False,
    )
)


def register_method(spec: MethodSpec, replace: bool = False) -> MethodSpec:
    """Register a method in the process-wide default registry."""
    return DEFAULT_REGISTRY.register(spec, replace=replace)


def get_method(name: str) -> MethodSpec:
    """Resolve a method name (or alias) in the default registry."""
    return DEFAULT_REGISTRY.resolve(name)
