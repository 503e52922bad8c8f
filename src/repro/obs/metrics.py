"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregate half of the observability plane (the per-job
half is :mod:`repro.obs.trace`).  One process-global instance,
:data:`METRICS`, collects:

* **counters** — monotonically increasing totals (jobs completed, cache
  outcomes),
* **gauges** — last-written values (queue depth, journal lag),
* **histograms** — fixed-bucket latency distributions with a running sum
  and count, from which :meth:`Histogram.quantile` estimates p50/p95/p99.

Every finished :func:`~repro.obs.trace.trace_span` lands in the
``repro_stage_seconds`` histogram family (one series per stage name), so
``GET /metrics`` exposes per-stage latency without any trace being active.
Worker processes collect into their own registry; their span trees return
to the parent by value and are replayed into the parent's registry with
:func:`observe_span_tree` — the same merge-at-the-parent discipline as
``CacheStats``.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain nested dicts that
merge associatively (:meth:`MetricsRegistry.merge_snapshot`), mirroring the
``CacheStats.snapshot()/merge()`` idiom, and
:meth:`MetricsRegistry.render_prometheus` serializes the registry in the
Prometheus text exposition format (version 0.0.4).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "STAGE_HISTOGRAM",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "observe_span_tree",
]

#: Default latency buckets (seconds): 100 µs to 10 s, roughly logarithmic.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Histogram family every finished span observes into (label: ``stage``).
STAGE_HISTOGRAM = "repro_stage_seconds"

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-text number: integers bare, floats via repr, inf as +Inf."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(key: _LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in pairs
    )
    return "{" + body + "}"


class Histogram:
    """One fixed-bucket histogram series: cumulative counts, sum, count.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative internally; cumulated at render time), with one final
    overflow slot for observations beyond the last bound (the ``+Inf``
    bucket).  Not thread-safe on its own — the owning registry locks.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (0..1) by linear bucket interpolation.

        Standard Prometheus-style estimation: find the bucket holding the
        target rank and interpolate within it (the overflow bucket reports
        its lower bound — the estimate is then a floor, not a fabrication).
        Returns 0.0 for an empty histogram.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        lower = 0.0
        for position, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[position]
            if seen + in_bucket >= rank and in_bucket > 0:
                fraction = (rank - seen) / in_bucket
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            seen += in_bucket
            lower = bound
        return self.bounds[-1] if self.bounds else 0.0

    def to_jsonable(self) -> Dict[str, Any]:
        """Snapshot form: bounds, per-bucket counts, sum, count."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "sum": self.total,
            "count": self.count,
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`to_jsonable` snapshot with identical bounds in."""
        if tuple(snapshot.get("bounds", ())) != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for position, count in enumerate(snapshot.get("buckets", [])):
            self.bucket_counts[position] += int(count)
        self.total += float(snapshot.get("sum", 0.0))
        self.count += int(snapshot.get("count", 0))


class MetricsRegistry:
    """Thread-safe registry of counter/gauge/histogram families.

    Families are created on first write; a family's type is fixed by that
    first write (a later write of a different type raises ``ValueError`` —
    a programming error worth failing loudly on).  Series within a family
    are keyed by their sorted label pairs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, Histogram]] = {}
        # stage name -> Histogram shortcut for observe_stage (the one call
        # on the span-close hot path); invalidated by reset().
        self._stage_fast: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def _declare(self, name: str, kind: str, help_text: Optional[str]) -> None:
        declared = self._types.get(name)
        if declared is None:
            self._types[name] = kind
            if help_text:
                self._help[name] = help_text
        elif declared != kind:
            raise ValueError(
                f"metric {name!r} already declared as {declared}, not {kind}"
            )

    def counter(
        self, name: str, value: float = 1.0, help: Optional[str] = None,
        **labels: Any,
    ) -> None:
        """Add ``value`` (default 1) to the counter series ``name{labels}``."""
        with self._lock:
            self._declare(name, "counter", help)
            series = self._counters.setdefault(name, {})
            key = _label_key(labels)
            series[key] = series.get(key, 0.0) + float(value)

    def gauge(
        self, name: str, value: float, help: Optional[str] = None,
        **labels: Any,
    ) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        with self._lock:
            self._declare(name, "gauge", help)
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        help: Optional[str] = None,
        **labels: Any,
    ) -> None:
        """Record one observation into the histogram series ``name{labels}``."""
        with self._lock:
            self._declare(name, "histogram", help)
            series = self._histograms.setdefault(name, {})
            key = _label_key(labels)
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = Histogram(buckets)
            histogram.observe(value)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Shorthand for the per-stage latency family every span feeds.

        This is the one registry call on the span-close hot path, so the
        series' :class:`Histogram` is cached per stage name — the generic
        declare/label-key machinery runs only on a stage's first
        observation.
        """
        with self._lock:
            histogram = self._stage_fast.get(stage)
            if histogram is None:
                self._declare(
                    STAGE_HISTOGRAM,
                    "histogram",
                    "wall seconds per pipeline stage (one series per span "
                    "name)",
                )
                series = self._histograms.setdefault(STAGE_HISTOGRAM, {})
                key = (("stage", str(stage)),)
                histogram = series.get(key)
                if histogram is None:
                    histogram = series[key] = Histogram(DEFAULT_BUCKETS)
                self._stage_fast[stage] = histogram
            histogram.observe(seconds)

    # ------------------------------------------------------------------
    def stage_quantiles(
        self, quantiles: Iterable[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 (and count) per stage from the stage histogram family.

        The ``GET /stats`` enrichment: a plain dict
        ``{stage: {"count", "p50", "p95", "p99"}}``, empty when nothing has
        been observed yet.
        """
        with self._lock:
            series = self._histograms.get(STAGE_HISTOGRAM, {})
            result: Dict[str, Dict[str, float]] = {}
            for key, histogram in series.items():
                labels = dict(key)
                stage = labels.get("stage", "?")
                entry: Dict[str, float] = {"count": float(histogram.count)}
                for q in quantiles:
                    entry[f"p{int(round(q * 100))}"] = histogram.quantile(q)
                result[stage] = entry
            return result

    def quantile(self, name: str, q: float, **labels: Any) -> float:
        """Quantile estimate of one histogram series (0.0 when absent)."""
        with self._lock:
            histogram = self._histograms.get(name, {}).get(_label_key(labels))
            return histogram.quantile(q) if histogram is not None else 0.0

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0.0 when absent)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Current value of one gauge series (0.0 when absent)."""
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels), 0.0)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Mergeable plain-dict snapshot of every family (CacheStats idiom)."""
        with self._lock:
            return {
                "counters": {
                    name: {key: value for key, value in series.items()}
                    for name, series in self._counters.items()
                },
                "gauges": {
                    name: {key: value for key, value in series.items()}
                    for name, series in self._gauges.items()
                },
                "histograms": {
                    name: {
                        key: histogram.to_jsonable()
                        for key, histogram in series.items()
                    }
                    for name, series in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges overwrite."""
        with self._lock:
            for name, series in snapshot.get("counters", {}).items():
                self._types.setdefault(name, "counter")
                target = self._counters.setdefault(name, {})
                for key, value in series.items():
                    key = tuple(tuple(pair) for pair in key)
                    target[key] = target.get(key, 0.0) + float(value)
            for name, series in snapshot.get("gauges", {}).items():
                self._types.setdefault(name, "gauge")
                target = self._gauges.setdefault(name, {})
                for key, value in series.items():
                    target[tuple(tuple(pair) for pair in key)] = float(value)
            for name, series in snapshot.get("histograms", {}).items():
                self._types.setdefault(name, "histogram")
                target = self._histograms.setdefault(name, {})
                for key, document in series.items():
                    key = tuple(tuple(pair) for pair in key)
                    histogram = target.get(key)
                    if histogram is None:
                        histogram = target[key] = Histogram(
                            tuple(document.get("bounds", DEFAULT_BUCKETS))
                        )
                    histogram.merge(document)

    def reset(self) -> None:
        """Drop every family (test isolation helper)."""
        with self._lock:
            self._types.clear()
            self._help.clear()
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._stage_fast.clear()

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Serialize the registry in the Prometheus text format (0.0.4).

        Families render sorted by name; histogram series expand into the
        cumulative ``_bucket{le=...}`` ladder plus ``_sum`` and ``_count``.
        """
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._types):
                kind = self._types[name]
                help_text = self._help.get(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                if kind == "counter":
                    for key in sorted(self._counters.get(name, {})):
                        value = self._counters[name][key]
                        lines.append(
                            f"{name}{_format_labels(key)} {_format_value(value)}"
                        )
                elif kind == "gauge":
                    for key in sorted(self._gauges.get(name, {})):
                        value = self._gauges[name][key]
                        lines.append(
                            f"{name}{_format_labels(key)} {_format_value(value)}"
                        )
                else:
                    for key in sorted(self._histograms.get(name, {})):
                        histogram = self._histograms[name][key]
                        cumulative = 0
                        bounds = histogram.bounds + (math.inf,)
                        for position, bound in enumerate(bounds):
                            cumulative += histogram.bucket_counts[position]
                            le = (("le", _format_value(bound)),)
                            lines.append(
                                f"{name}_bucket{_format_labels(key, le)} "
                                f"{cumulative}"
                            )
                        lines.append(
                            f"{name}_sum{_format_labels(key)} "
                            f"{_format_value(histogram.total)}"
                        )
                        lines.append(
                            f"{name}_count{_format_labels(key)} {histogram.count}"
                        )
            return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry every span and service counter feeds.
METRICS = MetricsRegistry()


def observe_span_tree(registry: MetricsRegistry, trace: Any) -> None:
    """Replay a worker-returned span tree into ``registry``.

    In-process spans feed :data:`METRICS` directly as they close; spans
    recorded inside a *worker process* only exist as a returned tree, so
    the parent replays them here — once per returned tree, mirroring the
    exactly-one-``CacheStats``-merge-per-task rule.  Accepts a
    :class:`~repro.obs.trace.JobTrace` or ``None`` (no-op).
    """
    if trace is None:
        return
    for span in trace.walk():
        registry.observe_stage(span.name, span.wall)
