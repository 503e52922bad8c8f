"""Unified observability plane: tracing, metrics and structured logging.

Three small, dependency-free modules instrument the engine's five
performance-critical layers (queue → dispatch → cache/incremental tier →
factorization → verdict):

* :mod:`repro.obs.trace` — span-based tracer.  :func:`trace_span` wraps a
  pipeline stage; spans form per-job :class:`JobTrace` trees that ride the
  process pool's pickle return path out of worker processes and
  surface as ``GET /jobs/<id>/trace``.
* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms with mergeable snapshots)
  behind the ``GET /metrics`` Prometheus text endpoint; every finished
  span feeds the per-stage latency histogram.
* :mod:`repro.obs.log` — structured JSON logging with a slow-operation
  threshold logger, replacing ad-hoc stderr prints.

The whole plane switches off with :func:`set_enabled` (benchmarked to
< 3 % overhead by ``benchmarks/bench_obs.py``); see
``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    STAGE_HISTOGRAM,
    Histogram,
    MetricsRegistry,
    observe_span_tree,
)
from repro.obs.trace import (
    JobTrace,
    Span,
    current_trace,
    obs_enabled,
    record_span,
    set_enabled,
    set_slow_op_threshold,
    slow_op_threshold,
    trace_span,
    use_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "JobTrace",
    "METRICS",
    "MetricsRegistry",
    "STAGE_HISTOGRAM",
    "Span",
    "StructuredLogger",
    "configure",
    "current_trace",
    "get_logger",
    "observe_span_tree",
    "obs_enabled",
    "record_span",
    "set_enabled",
    "set_slow_op_threshold",
    "slow_op_threshold",
    "trace_span",
    "use_trace",
]
