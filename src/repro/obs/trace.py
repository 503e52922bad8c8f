"""Span-based tracing: per-job stage trees riding the engine's return paths.

The tracer is the per-job half of the observability plane (the process-wide
half is :mod:`repro.obs.metrics`).  Code on the hot path wraps each stage in
:func:`trace_span`::

    with trace_span("cache.pencil_spectrum", order=system.order) as span:
        context = compute()
        span.set(outcome="computed")

Every span records wall time (``perf_counter``), CPU time (``thread_time``
where available) and free-form attributes, and **always** feeds the global
:data:`~repro.obs.metrics.METRICS` stage histogram — so ``GET /metrics``
sees every stage in every thread.  When a :class:`JobTrace` is *active* on
the current thread (see :func:`use_trace`), the span additionally attaches
to the trace's tree, nesting under the enclosing span.  With the plane
disabled (:func:`set_enabled`), :func:`trace_span` degenerates to a shared
no-op context manager so instrumented code pays only a flag check.

Cross-process propagation is by value, not by magic: a worker begins a
trace, runs the cell, and returns ``trace.to_jsonable()`` alongside its
``CacheStats`` delta on the pool's pickle return path; the parent
rebuilds the tree with :meth:`JobTrace.from_jsonable` and merges it into
the job's parent-side trace (queue wait) with
:meth:`JobTrace.merge`.

Spans slower than the slow-op threshold (``REPRO_SLOW_OP_SECONDS``,
default 1 s) are reported through the structured logger — see
:mod:`repro.obs.log`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "JobTrace",
    "trace_span",
    "use_trace",
    "current_trace",
    "record_span",
    "set_enabled",
    "obs_enabled",
    "SLOW_OP_ENV",
    "slow_op_threshold",
    "set_slow_op_threshold",
]

#: Environment variable overriding the slow-op logging threshold (seconds).
SLOW_OP_ENV = "REPRO_SLOW_OP_SECONDS"

_DEFAULT_SLOW_OP_SECONDS = 1.0

_enabled = True

if hasattr(time, "thread_time"):  # pragma: no branch - CPython everywhere
    _cpu_clock = time.thread_time
else:  # pragma: no cover - exotic platforms without per-thread clocks
    _cpu_clock = time.process_time


def set_enabled(flag: bool) -> bool:
    """Switch the tracing/metrics plane on or off; returns the prior state.

    With the plane off, :func:`trace_span` returns a shared no-op context
    manager and :func:`record_span` does nothing — the cost of leaving the
    instrumentation in place is one module-global check per call site.
    The benchmark gate (``benchmarks/bench_obs.py``) measures exactly this
    off/on delta.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def obs_enabled() -> bool:
    """True while the tracing/metrics plane is on (the default)."""
    return _enabled


_slow_op_cached: Optional[float] = None


def slow_op_threshold() -> float:
    """Seconds above which a finished span is logged as a slow operation.

    ``REPRO_SLOW_OP_SECONDS`` is read once (this sits on the span-close
    hot path; an environment lookup per span is measurable) and cached;
    malformed values fall back to the 1-second default.  Flip it at
    runtime with :func:`set_slow_op_threshold`.
    """
    global _slow_op_cached
    threshold = _slow_op_cached
    if threshold is None:
        raw = os.environ.get(SLOW_OP_ENV)
        try:
            threshold = _DEFAULT_SLOW_OP_SECONDS if raw is None else float(raw)
        except ValueError:
            threshold = _DEFAULT_SLOW_OP_SECONDS
        _slow_op_cached = threshold
    return threshold


def set_slow_op_threshold(seconds: Optional[float]) -> None:
    """Override the slow-op threshold (``None`` re-reads the environment)."""
    global _slow_op_cached
    _slow_op_cached = None if seconds is None else float(seconds)


class Span:
    """One timed stage: name, wall/CPU seconds, attributes, child spans.

    Spans are built by :func:`trace_span` (or synthesized by
    :func:`record_span` for stages measured externally, like queue wait)
    and serialized with :meth:`to_jsonable` so a worker process can return
    its tree to the parent by value.
    """

    __slots__ = ("name", "attrs", "started_at", "wall", "cpu", "children")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        started_at: float = 0.0,
        wall: float = 0.0,
        cpu: float = 0.0,
        children: Optional[List["Span"]] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.started_at = started_at
        self.wall = wall
        self.cpu = cpu
        self.children: List[Span] = list(children or [])

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (e.g. the cache outcome once known)."""
        self.attrs.update(attrs)
        return self

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form (recursive) for the wire and the HTTP trace."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "wall": self.wall,
            "cpu": self.cpu,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_jsonable() for child in self.children]
        return payload

    @classmethod
    def from_jsonable(cls, document: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_jsonable` output."""
        return cls(
            name=str(document.get("name", "?")),
            attrs=dict(document.get("attrs") or {}),
            started_at=float(document.get("started_at", 0.0)),
            wall=float(document.get("wall", 0.0)),
            cpu=float(document.get("cpu", 0.0)),
            children=[
                cls.from_jsonable(child)
                for child in document.get("children") or []
            ],
        )

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, wall={self.wall:.6f}, children={len(self.children)})"


class _NullSpan:
    """Shared no-op span handed out while the plane is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        """Discard attributes (disabled-plane counterpart of :meth:`Span.set`)."""
        return self


class JobTrace:
    """The span tree of one job: roots plus merge/serialize plumbing.

    A trace is *activated* on a thread with :func:`use_trace`; every
    :func:`trace_span` on that thread then attaches to it.  Worker-side
    traces travel back as ``to_jsonable()`` documents and are grafted onto
    the parent-side trace (queue wait, shipping spans) with :meth:`merge`.
    """

    __slots__ = ("spans",)

    def __init__(self, spans: Optional[List[Span]] = None) -> None:
        self.spans: List[Span] = list(spans or [])

    def add(self, span: Span) -> None:
        """Append one root span (synthesized stages like queue wait)."""
        self.spans.append(span)

    def merge(self, other: Optional["JobTrace"]) -> "JobTrace":
        """Graft another trace's roots onto this one (parent + worker)."""
        if other is not None:
            self.spans.extend(other.spans)
        return self

    def walk(self) -> Iterator[Span]:
        """Yield every span in the tree, depth-first over all roots."""
        for root in self.spans:
            for span in root.walk():
                yield span

    def span_names(self) -> List[str]:
        """Names of every span in the tree (test/report convenience)."""
        return [span.name for span in self.walk()]

    def to_jsonable(self) -> List[Dict[str, Any]]:
        """Plain-list form of the root spans for the wire and HTTP."""
        return [span.to_jsonable() for span in self.spans]

    @classmethod
    def from_jsonable(cls, documents: Optional[List[Dict[str, Any]]]) -> "JobTrace":
        """Rebuild a trace from :meth:`to_jsonable` output (None → empty)."""
        return cls([Span.from_jsonable(doc) for doc in documents or []])

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())


class _TraceState(threading.local):
    """Per-thread tracer state: the active trace and the open-span stack."""

    def __init__(self) -> None:
        self.trace: Optional[JobTrace] = None
        self.stack: List[Span] = []


_STATE = _TraceState()
_NULL = _NullSpan()


def current_trace() -> Optional[JobTrace]:
    """The :class:`JobTrace` active on this thread, or ``None``."""
    return _STATE.trace


class use_trace:
    """Context manager activating ``trace`` on the current thread.

    Nested activations restore the previous trace on exit, so a worker
    thread serving many jobs never leaks spans across jobs::

        trace = JobTrace()
        with use_trace(trace):
            run_cell(...)          # every trace_span lands in `trace`
    """

    __slots__ = ("trace", "_previous", "_previous_stack")

    def __init__(self, trace: JobTrace) -> None:
        self.trace = trace

    def __enter__(self) -> JobTrace:
        self._previous = _STATE.trace
        self._previous_stack = _STATE.stack
        _STATE.trace = self.trace
        _STATE.stack = []
        return self.trace

    def __exit__(self, *exc_info: Any) -> None:
        _STATE.trace = self._previous
        _STATE.stack = self._previous_stack


class _SpanContext:
    """The live context manager behind :func:`trace_span`."""

    __slots__ = ("span", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.span = Span(name, attrs)

    def __enter__(self) -> Span:
        trace = _STATE.trace
        if trace is not None:
            stack = _STATE.stack
            if stack:
                stack[-1].children.append(self.span)
            else:
                trace.spans.append(self.span)
            stack.append(self.span)
        self.span.started_at = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = _cpu_clock()
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        span = self.span
        span.wall = time.perf_counter() - self._wall0
        span.cpu = _cpu_clock() - self._cpu0
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        if _STATE.trace is not None and _STATE.stack and _STATE.stack[-1] is span:
            _STATE.stack.pop()
        _observe_finished_span(span)


class _NullContext:
    """Shared no-op context manager handed out while the plane is off."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


_metrics_registry = None


def _observe_finished_span(span: Span) -> None:
    """Feed a closed span to the metrics plane and the slow-op logger."""
    # Imported lazily (repro.obs.metrics is a sibling; importing at module
    # scope would pin the package import order) then cached — this runs on
    # every span close.
    global _metrics_registry
    if _metrics_registry is None:
        from repro.obs.metrics import METRICS

        _metrics_registry = METRICS
    _metrics_registry.observe_stage(span.name, span.wall)
    if span.wall >= slow_op_threshold():
        from repro.obs.log import get_logger

        get_logger("repro.obs").warning(
            "slow_op", stage=span.name, wall=span.wall, cpu=span.cpu,
            **span.attrs,
        )


def trace_span(name: str, **attrs: Any):
    """Open one timed span named ``name`` around a pipeline stage.

    Returns a context manager yielding the live :class:`Span` (so callers
    can ``span.set(outcome=...)`` once the outcome is known).  The span
    always lands in the process-wide stage histogram; it joins the
    current thread's :class:`JobTrace` tree only when one is active.  While
    the plane is disabled the shared no-op context is returned instead.
    """
    if not _enabled:
        return _NULL_CONTEXT
    return _SpanContext(name, attrs)


def record_span(
    name: str,
    wall: float,
    cpu: float = 0.0,
    started_at: Optional[float] = None,
    trace: Optional[JobTrace] = None,
    **attrs: Any,
) -> Optional[Span]:
    """Synthesize a span for a stage measured externally (e.g. queue wait).

    The span feeds the stage histogram like a live one; it is appended to
    ``trace`` when given (otherwise to the thread's active trace, if any).
    Returns the span, or ``None`` while the plane is disabled.
    """
    if not _enabled:
        return None
    span = Span(
        name,
        attrs,
        started_at=time.time() - wall if started_at is None else started_at,
        wall=float(wall),
        cpu=float(cpu),
    )
    target = trace if trace is not None else _STATE.trace
    if target is not None:
        target.add(span)
    _observe_finished_span(span)
    return span
