"""Result containers for the passivity tests.

Every passivity test in the library (the proposed SHH test and all baselines)
returns a :class:`PassivityReport` so that callers, examples and the benchmark
harness can treat them interchangeably.  The report also carries a list of
:class:`TestStep` entries mirroring the boxes of the paper's Figure 1, which
makes the decision trail auditable.

:func:`report_to_jsonable` / :func:`report_from_jsonable` are the one JSON
form of a report, shared by the service's wire and job records and by the
store's ``verdict`` entries.  JSON has no complex or non-finite numbers, so
complex scalars travel as ``{"__complex__": [re, im]}`` and non-finite
floats as ``{"__float__": "inf"}``; both revive losslessly.  NumPy arrays
become nested lists and NumPy scalars Python scalars: numeric content
survives, array-ness does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.exceptions import SerializationError

__all__ = [
    "TestStep",
    "PassivityReport",
    "report_to_jsonable",
    "report_from_jsonable",
]

#: The ``"kind"`` tag of a report's JSON-able document.
REPORT_KIND = "passivity_report"


@dataclass
class TestStep:
    """One step of a passivity-test flow.

    Attributes
    ----------
    name:
        Short machine-friendly identifier (e.g. ``"impulse_free_check"``).
    description:
        Human-readable explanation of what was checked or computed.
    passed:
        ``True``/``False`` for decision steps, ``None`` for purely
        computational steps.
    details:
        Free-form numeric diagnostics attached to the step.
    """

    #: Tell pytest not to collect this class despite the ``Test`` prefix.
    __test__ = False

    name: str
    description: str
    passed: Optional[bool] = None
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PassivityReport:
    """Outcome of a passivity test.

    Attributes
    ----------
    is_passive:
        The verdict.  ``False`` may mean "proved non-passive" or "the test's
        assumptions were violated" — consult :attr:`failure_reason`.
    method:
        Name of the algorithm that produced the verdict (``"shh"``, ``"lmi"``,
        ``"weierstrass"``, ``"gare"``, ``"sampling"``).
    failure_reason:
        ``None`` for passive systems; otherwise a sentence describing the
        first stage at which the test failed.
    steps:
        Ordered list of the executed steps (Figure 1 boxes for the SHH test).
    diagnostics:
        Aggregate numeric diagnostics (mode counts, extracted ``M1``
        eigenvalues, subspace dimensions, solver statistics, ...).
    elapsed_seconds:
        Wall-clock time spent inside the test, measured by the test itself.
    """

    is_passive: bool
    method: str
    failure_reason: Optional[str] = None
    steps: List[TestStep] = field(default_factory=list)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def add_step(
        self,
        name: str,
        description: str,
        passed: Optional[bool] = None,
        **details: Any,
    ) -> TestStep:
        """Append a step to the trail and return it."""
        step = TestStep(name=name, description=description, passed=passed, details=dict(details))
        self.steps.append(step)
        return step

    @property
    def step_names(self) -> List[str]:
        """Names of the executed steps, in order (for quick assertions)."""
        return [step.name for step in self.steps]

    def summary(self) -> str:
        """Multi-line human-readable summary of the test run."""
        lines = [
            f"method          : {self.method}",
            f"passive         : {self.is_passive}",
            f"elapsed seconds : {self.elapsed_seconds:.6f}",
        ]
        if self.failure_reason:
            lines.append(f"failure reason  : {self.failure_reason}")
        for step in self.steps:
            status = "-" if step.passed is None else ("ok" if step.passed else "FAIL")
            lines.append(f"  [{status:4s}] {step.name}: {step.description}")
        return "\n".join(lines)


def _plain_float(value: float) -> Any:
    """A float as a JSON-safe scalar: non-finite values become strings.

    Strict JSON has no ``Infinity``/``NaN`` tokens (``json.dumps`` would
    emit them anyway and break standards-compliant clients), so non-finite
    values travel as the strings ``"inf"``/``"-inf"``/``"nan"`` that
    ``float()`` parses back.
    """
    return value if math.isfinite(value) else str(value)


def _plain(value: Any) -> Any:
    """Recursively convert a value to *strict* JSON primitives.

    Complex scalars are tagged (``{"__complex__": [re, im]}``), non-finite
    floats are tagged (``{"__float__": "inf"}``) — both revive losslessly.
    """
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, complex):
        return {
            "__complex__": [
                _plain_float(float(value.real)),
                _plain_float(float(value.imag)),
            ]
        }
    if isinstance(value, np.generic):
        return _plain(value.item())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"__float__": str(value)}
    # Last resort for exotic diagnostics payloads: keep a readable trace
    # instead of refusing the whole report.
    return repr(value)


def _revive(value: Any) -> Any:
    """Inverse of :func:`_plain` (revives tagged complex/non-finite scalars)."""
    if isinstance(value, dict):
        if set(value) == {"__complex__"}:
            real, imag = value["__complex__"]
            return complex(float(real), float(imag))
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {key: _revive(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_revive(item) for item in value]
    return value




def report_to_jsonable(report: PassivityReport) -> Dict[str, Any]:
    """Serialize a :class:`~repro.passivity.PassivityReport` to a dict.

    Steps and diagnostics are normalized to JSON primitives: NumPy arrays
    become nested lists, complex scalars become tagged pairs (see the module
    docstring); the schema-unified ``diagnostics["engine"]`` block travels
    as-is.
    """
    if not isinstance(report, PassivityReport):
        raise SerializationError(
            f"expected a PassivityReport, got {type(report).__name__}"
        )
    return {
        "kind": REPORT_KIND,
        "is_passive": bool(report.is_passive),
        "method": report.method,
        "failure_reason": report.failure_reason,
        "elapsed_seconds": float(report.elapsed_seconds),
        "steps": [
            {
                "name": step.name,
                "description": step.description,
                "passed": step.passed,
                "details": _plain(step.details),
            }
            for step in report.steps
        ],
        "diagnostics": _plain(report.diagnostics),
    }


def report_from_jsonable(payload: Dict[str, Any]) -> PassivityReport:
    """Rebuild a :class:`~repro.passivity.PassivityReport` from its dict form.

    Numeric content is preserved (complex tags are revived); diagnostics
    that were NumPy arrays return as plain lists.

    Raises
    ------
    SerializationError
        When the payload is not a well-formed report document.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a report document (dict), got {type(payload).__name__}"
        )
    if payload.get("kind") != REPORT_KIND:
        raise SerializationError(
            f"expected kind {REPORT_KIND!r}, got {payload.get('kind')!r}"
        )
    try:
        report = PassivityReport(
            is_passive=bool(payload["is_passive"]),
            method=str(payload["method"]),
            failure_reason=payload.get("failure_reason"),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            diagnostics=_revive(payload.get("diagnostics", {})),
        )
        for step in payload.get("steps", []):
            report.steps.append(
                TestStep(
                    name=str(step["name"]),
                    description=str(step["description"]),
                    passed=step.get("passed"),
                    details=_revive(step.get("details", {})),
                )
            )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed report payload: {type(error).__name__}: {error}"
        ) from error
    return report
