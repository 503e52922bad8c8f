"""First-class *scenario* jobs: one submission, many streamed verdicts.

The ROADMAP's "millions of users" front door is not one check at a time —
it is one sweep submission fanning out into thousands of nearby per-corner
verdicts.  This module turns that workload into a first-class service
citizen:

* :class:`ScenarioSpec` describes a whole sweep — a multiplicative
  *corner family* of one base system (the incremental tier's canonical
  workload), an explicit *portfolio* of systems, or a *frequency sweep*
  partitioned into sampling bands — in one JSON-able document
  (:func:`scenario_to_jsonable` / :func:`scenario_from_jsonable`).
* :meth:`ScenarioSpec.expand` turns the spec into per-corner
  :class:`ScenarioCell` work items **server-side**; the service dispatches
  them through its existing priority queue (so dedup and the process pool
  apply unchanged) with
  *incremental ancestor chaining*: the family root runs cold first, and
  every other corner warm-starts from it through the perturbation-aware
  incremental tier.
* Results are **pushed**, not polled: every terminal corner emits a
  ``corner`` event (verdict, violation bands, timing) followed by a
  ``progress`` event (done/total, ETA), and the scenario closes with a
  terminal ``summary`` (or ``cancelled``) event.  Events carry monotonic
  per-scenario ids, are retained in a bounded history for
  ``Last-Event-ID`` resume, and reach subscribers through bounded
  per-subscriber buffers with drop-to-snapshot backpressure
  (:class:`ScenarioSubscription`).

The HTTP front-end (:mod:`repro.service.http`) maps this onto Server-Sent
Events over stdlib chunked responses — ``POST /scenarios``,
``GET /scenarios/<id>/events`` — and the deterministic async/streaming
test harness (``tests/service/harness.py``) drives the same subscription
objects in-process, no sockets or sleeps required.
"""

from __future__ import annotations

import enum
import itertools
import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from repro.descriptor.system import DescriptorSystem
from repro.exceptions import DimensionError, SerializationError
from repro.passivity.result import PassivityReport
from repro.service.jobs import JobState
from repro.service.serialization import (
    _plain,
    _revive,
    system_from_jsonable,
    system_to_jsonable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import PassivityService

__all__ = [
    "ScenarioSpec",
    "ScenarioCell",
    "ScenarioState",
    "ScenarioStatus",
    "ScenarioEvent",
    "ScenarioSubscription",
    "ScenarioHandle",
    "Scenario",
    "scenario_to_jsonable",
    "scenario_from_jsonable",
    "format_sse_event",
    "extract_violations",
    "SCENARIO_KIND",
]

SCENARIO_KIND = "scenario"

#: Scenario families the expansion understands.
FAMILIES = ("corners", "portfolio", "frequency_sweep")

#: Default per-scenario bounded event history (``Last-Event-ID`` replay window).
DEFAULT_EVENT_HISTORY = 1024

#: Default bounded per-subscriber buffer (drop-to-snapshot beyond it).
DEFAULT_SUBSCRIBER_BUFFER = 256

#: Default bound on concurrent subscribers per scenario (503 + Retry-After
#: beyond it — the slow-consumer backpressure's admission-control sibling).
DEFAULT_MAX_SUBSCRIBERS = 64


# ----------------------------------------------------------------------
# Specification and expansion
# ----------------------------------------------------------------------
@dataclass
class ScenarioCell:
    """One server-side expanded work item of a scenario.

    Attributes
    ----------
    index / label:
        Position and human-readable name inside the scenario (``nominal``,
        ``corner-7``, ``band-3``...).
    system:
        The descriptor system this cell certifies.
    method / options:
        Forwarded to the engine exactly like a plain job submission.
    ancestor:
        Index of the cell whose completed system warm-starts this one
        through the incremental tier (``None`` for cold cells and roots).
    defer:
        True when the cell must not dispatch until its ancestor completed —
        the chaining that turns an N-corner sweep into one cold
        factorization plus N-1 certified updates.
    """

    index: int
    label: str
    system: DescriptorSystem
    method: str = "auto"
    options: Dict[str, Any] = field(default_factory=dict)
    ancestor: Optional[int] = None
    defer: bool = False


@dataclass
class ScenarioSpec:
    """Declarative description of one streaming scenario.

    Three families are understood:

    ``"corners"``
        ``n_corners`` multiplicative perturbation corners of ``system``
        (:func:`~repro.circuits.perturb_system` semantics: ``scale``,
        ``seed``, ``pattern``), the nominal system first.  The nominal cell
        is the family root; every corner chains off it incrementally.
    ``"portfolio"``
        An explicit list of ``systems`` checked independently.  When every
        member shares the five matrix shapes, the expansion picks a family
        root (:func:`~repro.engine.incremental.choose_family_root`) and
        chains the rest off it; otherwise all cells run cold.
    ``"frequency_sweep"``
        The ``sampling`` method applied to ``system`` over ``n_bands``
        logarithmically spaced bands of ``[omega_min, omega_max]``
        (``points_per_band`` grid points each) — per-band violation events
        stream out as the bands finish.

    ``method``/``options``/``priority``/``timeout`` apply to every expanded
    cell (the frequency sweep forces ``method="sampling"``).
    """

    family: str
    system: Optional[DescriptorSystem] = None
    systems: Optional[List[DescriptorSystem]] = None
    n_corners: int = 8
    scale: float = 2e-4
    seed: int = 0
    pattern: str = "a"
    omega_min: float = 1e-4
    omega_max: float = 1e4
    n_bands: int = 8
    points_per_band: int = 64
    method: str = "auto"
    options: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    timeout: Optional[float] = None
    #: Opt-in: emit a per-cell ``trace`` event (the job's span tree) right
    #: after each ``corner`` event.  Off by default so existing consumers'
    #: pinned event sequences are unchanged.
    trace: bool = False

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.DimensionError` on a bad spec."""
        if self.family not in FAMILIES:
            raise DimensionError(
                f"unknown scenario family {self.family!r}; "
                f"expected one of {', '.join(FAMILIES)}"
            )
        if self.family == "portfolio":
            if not self.systems:
                raise DimensionError("a portfolio scenario needs 'systems'")
            for member in self.systems:
                if not isinstance(member, DescriptorSystem):
                    raise DimensionError(
                        "portfolio members must be DescriptorSystem instances"
                    )
        else:
            if not isinstance(self.system, DescriptorSystem):
                raise DimensionError(
                    f"a {self.family} scenario needs a base 'system'"
                )
        if self.family == "corners" and self.n_corners < 1:
            raise DimensionError("n_corners must be at least 1")
        if self.timeout is not None and not self.timeout > 0:
            # ``not > 0`` rejects NaN too.
            raise DimensionError(
                f"timeout must be positive (or None), got {self.timeout!r}"
            )
        if self.family == "frequency_sweep":
            if self.n_bands < 1:
                raise DimensionError("n_bands must be at least 1")
            if self.points_per_band < 2:
                raise DimensionError("points_per_band must be at least 2")
            if not 0 < self.omega_min < self.omega_max:
                raise DimensionError(
                    "the frequency sweep needs 0 < omega_min < omega_max"
                )

    @property
    def n_cells(self) -> int:
        """Number of cells :meth:`expand` will produce."""
        if self.family == "corners":
            return self.n_corners
        if self.family == "portfolio":
            return len(self.systems or [])
        return self.n_bands

    def expand(self) -> List[ScenarioCell]:
        """Expand the spec into its per-corner cells (server-side).

        Corner families come back nominal-first with every corner chained
        off cell 0 (``defer=True``); shape-uniform portfolios chain off the
        :func:`~repro.engine.incremental.choose_family_root` pick; frequency
        sweeps partition the band and force the ``sampling`` method.
        """
        self.validate()
        if self.family == "corners":
            from repro.circuits import corner_family

            systems = corner_family(
                self.system,
                self.n_corners,
                scale=self.scale,
                seed=self.seed,
                pattern=self.pattern,
            )
            cells = [
                ScenarioCell(0, "nominal", systems[0], self.method, dict(self.options))
            ]
            for index, corner in enumerate(systems[1:], start=1):
                cells.append(
                    ScenarioCell(
                        index,
                        f"corner-{index}",
                        corner,
                        self.method,
                        dict(self.options),
                        ancestor=0,
                        defer=True,
                    )
                )
            return cells
        if self.family == "portfolio":
            systems = list(self.systems)
            root = self._portfolio_root(systems)
            cells = []
            for index, member in enumerate(systems):
                chained = root is not None and index != root
                cells.append(
                    ScenarioCell(
                        index,
                        f"member-{index}",
                        member,
                        self.method,
                        dict(self.options),
                        ancestor=root if chained else None,
                        defer=chained,
                    )
                )
            if root is not None and root != 0:
                # The root dispatches first regardless of its position.
                cells.insert(0, cells.pop(root))
            return cells
        # frequency_sweep: log-spaced band edges, one sampling cell per band.
        edges = np.logspace(
            np.log10(self.omega_min), np.log10(self.omega_max), self.n_bands + 1
        )
        cells = []
        for index in range(self.n_bands):
            options = dict(self.options)
            options.update(
                omega_min=float(edges[index]),
                omega_max=float(edges[index + 1]),
                n_samples=int(self.points_per_band),
                include_zero=index == 0,
            )
            cells.append(
                ScenarioCell(
                    index,
                    f"band-{index}",
                    self.system,
                    "sampling",
                    options,
                )
            )
        return cells

    @staticmethod
    def _portfolio_root(systems: List[DescriptorSystem]) -> Optional[int]:
        """Family-root index for a shape-uniform portfolio, else ``None``."""
        if len(systems) < 2:
            return None
        from repro.engine.incremental import choose_family_root, family_key

        shapes = {family_key(member) for member in systems}
        if len(shapes) != 1 or any(member.is_sparse for member in systems):
            return None

        try:
            return choose_family_root(systems)
        except Exception:  # noqa: BLE001 - chaining is an optimization only
            return None


def scenario_to_jsonable(spec: ScenarioSpec) -> Dict[str, Any]:
    """Serialize a :class:`ScenarioSpec` to its JSON-able wire document.

    Base systems travel as :func:`~repro.service.system_to_jsonable`
    documents (dense or CSR — fingerprints survive), so a journaled
    scenario replays on byte-identical matrices.
    """
    if not isinstance(spec, ScenarioSpec):
        raise SerializationError(
            f"expected a ScenarioSpec, got {type(spec).__name__}"
        )
    spec.validate()
    document: Dict[str, Any] = {
        "kind": SCENARIO_KIND,
        "family": spec.family,
        "method": spec.method,
        "options": _plain(dict(spec.options)),
        "priority": spec.priority,
        "timeout": spec.timeout,
        "trace": bool(spec.trace),
    }
    if spec.family == "portfolio":
        document["systems"] = [system_to_jsonable(s) for s in spec.systems]
    else:
        document["system"] = system_to_jsonable(spec.system)
    if spec.family == "corners":
        document.update(
            n_corners=spec.n_corners,
            scale=spec.scale,
            seed=spec.seed,
            pattern=spec.pattern,
        )
    if spec.family == "frequency_sweep":
        document.update(
            omega_min=spec.omega_min,
            omega_max=spec.omega_max,
            n_bands=spec.n_bands,
            points_per_band=spec.points_per_band,
        )
    return document


def scenario_from_jsonable(payload: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from :func:`scenario_to_jsonable`.

    Raises
    ------
    SerializationError
        When the payload is not a well-formed scenario document.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a scenario document (dict), got {type(payload).__name__}"
        )
    if payload.get("kind") != SCENARIO_KIND:
        raise SerializationError(
            f"expected kind {SCENARIO_KIND!r}, got {payload.get('kind')!r}"
        )
    family = payload.get("family")
    if family not in FAMILIES:
        raise SerializationError(
            f"unknown scenario family {family!r}; "
            f"expected one of {', '.join(FAMILIES)}"
        )
    options = _revive(payload.get("options") or {})
    if not isinstance(options, dict):
        raise SerializationError("scenario 'options' must be a JSON object")
    try:
        spec = ScenarioSpec(
            family=family,
            method=str(payload.get("method", "auto")),
            options=options,
            priority=int(payload.get("priority", 0)),
            timeout=(
                None
                if payload.get("timeout") is None
                else float(payload["timeout"])
            ),
            trace=bool(payload.get("trace", False)),
        )
        if family == "portfolio":
            members = payload.get("systems")
            if not isinstance(members, list) or not members:
                raise SerializationError(
                    "a portfolio scenario document needs a 'systems' list"
                )
            spec.systems = [system_from_jsonable(doc) for doc in members]
        else:
            spec.system = system_from_jsonable(payload.get("system"))
        if family == "corners":
            spec.n_corners = int(payload.get("n_corners", 8))
            spec.scale = float(payload.get("scale", 2e-4))
            spec.seed = int(payload.get("seed", 0))
            spec.pattern = str(payload.get("pattern", "a"))
        if family == "frequency_sweep":
            spec.omega_min = float(payload.get("omega_min", 1e-4))
            spec.omega_max = float(payload.get("omega_max", 1e4))
            spec.n_bands = int(payload.get("n_bands", 8))
            spec.points_per_band = int(payload.get("points_per_band", 64))
        spec.validate()
    except SerializationError:
        raise
    except Exception as error:  # noqa: BLE001 - malformed documents -> typed
        raise SerializationError(
            f"malformed scenario payload: {type(error).__name__}: {error}"
        ) from error
    return spec


# ----------------------------------------------------------------------
# Events and subscriptions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioEvent:
    """One pushed scenario event.

    ``event_id`` is the per-scenario monotonic id (``None`` for transient
    per-subscriber events — drop-recovery and resume-gap snapshots — which
    deliberately do not advance the client's ``Last-Event-ID``); ``event``
    is the taxonomy name (``corner`` / ``progress`` / ``snapshot`` /
    ``summary`` / ``cancelled``); ``data`` the JSON-able payload.
    """

    event_id: Optional[int]
    event: str
    data: Dict[str, Any]
    at: float = 0.0

    @property
    def terminal(self) -> bool:
        """True for the stream-closing events (``summary`` / ``cancelled``)."""
        return self.event in ("summary", "cancelled")


def format_sse_event(event: ScenarioEvent) -> bytes:
    """Render one event as a Server-Sent-Events frame (UTF-8 bytes).

    The wire shape the golden-transcript tests pin::

        id: 7\\n
        event: corner\\n
        data: {"index": 3, ...}\\n
        \\n

    Transient events (``event_id is None``) omit the ``id:`` line so they
    never advance the client's ``Last-Event-ID``.
    """
    lines = []
    if event.event_id is not None:
        lines.append(f"id: {event.event_id}")
    lines.append(f"event: {event.event}")
    lines.append("data: " + json.dumps(event.data, separators=(",", ":")))
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class ScenarioSubscription:
    """Bounded per-subscriber event buffer with drop-to-snapshot backpressure.

    The service's loop thread pushes events; the consumer (an HTTP request
    thread, or the test harness's in-process client) pops them with
    :meth:`get`.  When the consumer falls behind and the buffer fills, the
    queued backlog is **dropped** (counted in ``dropped``) and the next
    delivered event is a transient ``snapshot`` carrying the full current
    scenario state — the consumer loses intermediate events, never
    correctness.  Terminal events are never dropped.
    """

    def __init__(self, scenario_id: str, buffer: int = DEFAULT_SUBSCRIBER_BUFFER) -> None:
        if buffer < 2:
            raise ValueError("subscriber buffer must hold at least 2 events")
        self.scenario_id = scenario_id
        self.buffer = int(buffer)
        self._queue: "queue.Queue[Optional[ScenarioEvent]]" = queue.Queue(
            maxsize=self.buffer
        )
        #: Events discarded from this subscriber's buffer (slow consumer).
        self.dropped = 0
        #: Set once the terminal event (or an unsubscribe) was enqueued.
        self.closed = False
        #: Highest numbered event id delivered into the buffer.
        self.last_event_id = 0

    # -- producer side (service loop thread) ---------------------------
    def _offer(self, event: ScenarioEvent) -> bool:
        """Enqueue one event; False when the buffer was full (nothing queued)."""
        if self.closed:
            return True
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            return False
        if event.event_id is not None:
            self.last_event_id = event.event_id
        return True

    def _drop_backlog(self) -> int:
        """Discard every buffered event; returns the number dropped."""
        cleared = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                cleared += 1
        self.dropped += cleared
        return cleared

    def _force(self, event: Optional[ScenarioEvent]) -> int:
        """Enqueue dropping backlog as needed (terminal events, sentinels)."""
        cleared = 0
        while True:
            try:
                self._queue.put_nowait(event)
                break
            except queue.Full:
                cleared += self._drop_backlog()
        if event is not None and event.event_id is not None:
            self.last_event_id = event.event_id
        return cleared

    def _close(self) -> None:
        """Terminate the subscription (idempotent): wake blocked consumers."""
        if self.closed:
            return
        self.closed = True
        self._force(None)

    # -- consumer side -------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Optional[ScenarioEvent]:
        """Pop the next event, blocking up to ``timeout`` seconds.

        Returns ``None`` on timeout *and* on end-of-stream; distinguish via
        :attr:`closed` (the HTTP front-end sends a heartbeat comment on
        timeout and closes the response on end-of-stream).
        """
        try:
            event = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        return event

    def events(self, timeout: Optional[float] = None):
        """Iterate events until the stream closes (terminal event included)."""
        while True:
            event = self.get(timeout=timeout)
            if event is None:
                if self.closed and self._queue.empty():
                    return
                if timeout is not None:
                    return
                continue
            yield event
            if event.terminal:
                return


# ----------------------------------------------------------------------
# Scenario state
# ----------------------------------------------------------------------
class ScenarioState(str, enum.Enum):
    """Lifecycle states of a scenario (``str`` mixin: JSON-friendly)."""

    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        """True once the scenario will emit no further events."""
        return self is not ScenarioState.RUNNING


@dataclass
class ScenarioStatus:
    """Immutable snapshot of one scenario's progress (JSON-able)."""

    scenario_id: str
    state: ScenarioState
    family: str
    n_cells: int
    n_done: int
    n_failed: int
    n_cancelled: int
    n_timed_out: int
    n_passive: int
    created_at: float
    finished_at: Optional[float]
    last_event_id: int
    subscribers: int
    cells: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_terminal(self) -> int:
        """Cells that reached a terminal state."""
        return self.n_done + self.n_failed + self.n_cancelled + self.n_timed_out

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of the snapshot for transport front-ends."""
        return {
            "scenario_id": self.scenario_id,
            "state": self.state.value,
            "family": self.family,
            "n_cells": self.n_cells,
            "n_done": self.n_done,
            "n_failed": self.n_failed,
            "n_cancelled": self.n_cancelled,
            "n_timed_out": self.n_timed_out,
            "n_passive": self.n_passive,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "last_event_id": self.last_event_id,
            "subscribers": self.subscribers,
            "cells": list(self.cells),
        }


@dataclass
class Scenario:
    """Service-internal record of one streaming scenario (loop thread only).

    Holds the expanded cell table, the bounded numbered-event history the
    ``Last-Event-ID`` resume replays from, the live subscriber list, and
    the deferred (held) corner jobs waiting for the family root.  All
    mutation happens on the service's event-loop thread; ``done_event`` is
    the only cross-thread signal.
    """

    scenario_id: str
    family: str
    n_cells: int
    priority: int = 0
    state: ScenarioState = ScenarioState.RUNNING
    created_at: float = 0.0
    started_monotonic: float = 0.0
    finished_at: Optional[float] = None
    #: cell index -> {"label", "job_id", "state", "is_passive", ...}.
    cells: List[Dict[str, Any]] = field(default_factory=list)
    #: Held corner jobs (service ``Job`` objects) awaiting the family root.
    deferred: List[Any] = field(default_factory=list)
    #: Index of the family-root cell whose completion releases ``deferred``.
    root_index: Optional[int] = None
    #: The root's completed system (the ancestor handed to chained cells).
    root_system: Optional[DescriptorSystem] = None
    n_done: int = 0
    n_failed: int = 0
    n_cancelled: int = 0
    n_timed_out: int = 0
    n_passive: int = 0
    #: Cells whose job reached a terminal state (counts suppressed ones).
    n_terminal: int = 0
    #: Opt-in per-cell ``trace`` events (mirrors ``ScenarioSpec.trace``).
    trace: bool = False
    events: deque = field(default_factory=lambda: deque(maxlen=DEFAULT_EVENT_HISTORY))
    next_event_id: Any = None
    last_event_id: int = 0
    subscribers: List[ScenarioSubscription] = field(default_factory=list)
    done_event: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        if self.next_event_id is None:
            self.next_event_id = itertools.count(1)

    def snapshot(self) -> ScenarioStatus:
        """Build the public :class:`ScenarioStatus` view of this record."""
        return ScenarioStatus(
            scenario_id=self.scenario_id,
            state=self.state,
            family=self.family,
            n_cells=self.n_cells,
            n_done=self.n_done,
            n_failed=self.n_failed,
            n_cancelled=self.n_cancelled,
            n_timed_out=self.n_timed_out,
            n_passive=self.n_passive,
            created_at=self.created_at,
            finished_at=self.finished_at,
            last_event_id=self.last_event_id,
            subscribers=len(self.subscribers),
            cells=[dict(cell) for cell in self.cells],
        )


class ScenarioHandle:
    """Client-side view of a submitted scenario.

    Returned by :meth:`~repro.service.PassivityService.submit_scenario`;
    wraps the scenario id together with the owning service so callers can
    poll progress, stream events, wait for the terminal summary and cancel
    without touching service internals.
    """

    def __init__(self, service: "PassivityService", scenario_id: str) -> None:
        self._service = service
        self.scenario_id = scenario_id

    def status(self) -> ScenarioStatus:
        """Current :class:`ScenarioStatus` snapshot."""
        return self._service.scenario_status(self.scenario_id)

    @property
    def done(self) -> bool:
        """True once the scenario reached a terminal state."""
        return self.status().state.is_terminal

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the scenario is terminal; True when it finished."""
        return self._service.wait_scenario(self.scenario_id, timeout=timeout)

    def subscribe(
        self,
        last_event_id: Optional[int] = None,
        buffer: int = DEFAULT_SUBSCRIBER_BUFFER,
    ) -> ScenarioSubscription:
        """Open a push subscription (the in-process form of the SSE feed)."""
        return self._service.subscribe_scenario(
            self.scenario_id, last_event_id=last_event_id, buffer=buffer
        )

    def cancel(self) -> bool:
        """Cancel the scenario; True when it transitioned to ``cancelled``."""
        return self._service.cancel_scenario(self.scenario_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScenarioHandle({self.scenario_id!r})"


# ----------------------------------------------------------------------
# Verdict post-processing
# ----------------------------------------------------------------------
def extract_violations(report: Optional[PassivityReport]) -> List[Dict[str, Any]]:
    """Extract JSON-able violation bands from a passivity report.

    Two shapes are understood: Hamiltonian/SHH imaginary-axis crossings
    (step details carrying ``imaginary_eigenvalues`` — consecutive
    crossings pair into ``[omega_lo, omega_hi]`` bands, an odd tail opens
    an unbounded band), and sampling-grid minima (``min_eigenvalue`` /
    ``argmin_omega`` step details on non-passive reports).  Passive
    reports yield an empty list.
    """
    if report is None or report.is_passive:
        return []
    bands: List[Dict[str, Any]] = []
    for step in report.steps:
        details = step.details or {}
        crossings = details.get("imaginary_eigenvalues")
        if crossings is not None:
            omegas = sorted(
                {abs(float(np.imag(w)) or float(np.real(w))) for w in np.atleast_1d(crossings)}
            )
            for lo, hi in zip(omegas[0::2], omegas[1::2]):
                bands.append({"omega_lo": lo, "omega_hi": hi})
            if len(omegas) % 2:
                bands.append({"omega_lo": omegas[-1], "omega_hi": None})
        elif "min_eigenvalue" in details and details.get("passed") is not True:
            min_eig = details.get("min_eigenvalue")
            argmin = details.get("argmin_omega")
            if min_eig is not None and float(min_eig) < 0:
                bands.append(
                    {
                        "omega": None if argmin is None else float(argmin),
                        "min_eigenvalue": float(min_eig),
                    }
                )
    if not bands and report.failure_reason:
        bands.append({"reason": report.failure_reason})
    return bands


def cell_event_data(
    scenario: Scenario,
    cell: Dict[str, Any],
    state: JobState,
    report: Optional[PassivityReport],
    error: Optional[str],
) -> Dict[str, Any]:
    """Assemble the ``corner`` event payload for one terminal cell."""
    data: Dict[str, Any] = {
        "scenario_id": scenario.scenario_id,
        "index": cell["index"],
        "label": cell["label"],
        "job_id": cell["job_id"],
        "state": state.value,
        "is_passive": None if report is None else bool(report.is_passive),
        "violations": extract_violations(report),
        "error": error,
    }
    if report is not None:
        engine = report.diagnostics.get("engine", {})
        data["method"] = report.method
        data["seconds"] = float(report.elapsed_seconds)
        data["incremental"] = bool(engine.get("incremental"))
    return data


def trace_event_data(
    scenario: Scenario, cell: Dict[str, Any], spans: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble the opt-in ``trace`` event payload for one terminal cell.

    ``spans`` is the job's span forest in the
    :meth:`~repro.obs.JobTrace.to_jsonable` wire shape — the same tree
    ``GET /jobs/<id>/trace`` serves.
    """
    return {
        "scenario_id": scenario.scenario_id,
        "index": cell["index"],
        "label": cell["label"],
        "job_id": cell["job_id"],
        "spans": spans,
    }


def progress_event_data(scenario: Scenario, elapsed: float) -> Dict[str, Any]:
    """Assemble the ``progress`` event payload (done/total, ETA)."""
    done = scenario.n_terminal
    total = scenario.n_cells
    eta: Optional[float] = None
    if 0 < done < total and elapsed > 0:
        eta = elapsed / done * (total - done)
    return {
        "scenario_id": scenario.scenario_id,
        "done": done,
        "total": total,
        "failed": scenario.n_failed,
        "cancelled": scenario.n_cancelled,
        "timed_out": scenario.n_timed_out,
        "passive": scenario.n_passive,
        "elapsed_seconds": elapsed,
        "eta_seconds": eta,
    }


def summary_event_data(scenario: Scenario, elapsed: float) -> Dict[str, Any]:
    """Assemble the terminal ``summary`` event payload."""
    return {
        "scenario_id": scenario.scenario_id,
        "state": scenario.state.value,
        "n_cells": scenario.n_cells,
        "n_done": scenario.n_done,
        "n_passive": scenario.n_passive,
        "n_nonpassive": scenario.n_done - scenario.n_passive,
        "n_failed": scenario.n_failed,
        "n_cancelled": scenario.n_cancelled,
        "n_timed_out": scenario.n_timed_out,
        "elapsed_seconds": elapsed,
    }


def snapshot_event_data(scenario: Scenario, dropped: int) -> Dict[str, Any]:
    """Assemble a ``snapshot`` payload (drop recovery / resume gap fill).

    ``through_id`` names the highest numbered event the snapshot covers:
    a consumer that resumes with it as ``Last-Event-ID`` misses nothing.
    """
    status = scenario.snapshot()
    return {
        "scenario_id": scenario.scenario_id,
        "dropped": dropped,
        "through_id": scenario.last_event_id,
        "scenario": status.to_jsonable(),
    }


#: Type of the injectable time source (the test harness passes a fake).
Clock = Callable[[], float]


def default_clock() -> float:
    """The service's default wall-clock time source (``time.time``)."""
    return time.time()
