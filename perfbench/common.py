"""Shared helpers of the benchmark: statistics, process-tree memory, results.

Nothing here imports ``repro`` or numpy, so ``run.py`` can pin the BLAS
thread count before either is loaded.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Scratch directory inside the checkout (service store and journal, and
#: ``TMPDIR`` for the driver and its workers); ignored by git.
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench_tmp")

#: The tail percentile is the highest one with at least this many samples
#: beyond it, so the tail rests on enough ops to repeat between runs.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sequence)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n_beyond)`` of the latency tail.

    The value is the sample with exactly :data:`TAIL_SAMPLES` samples above
    it in sorted order; its percentile is the share of samples at or below
    it.  With too few samples for that, the tail is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return median(ordered), 50.0, n // 2
    index = n - TAIL_SAMPLES - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, TAIL_SAMPLES


def _vm_hwm_kb(pid: str) -> int:
    """Peak resident set (``VmHWM``) of one process in KiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids(pid: str) -> List[str]:
    """Direct children of ``pid`` across all of its threads."""
    found: List[str] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(handle.read().split())
        except OSError:
            continue
    return found


class TreeMemory:
    """Peak RSS of this process plus every worker process it starts.

    ``getrusage(RUSAGE_CHILDREN)`` only sees children that were reaped and
    reports the largest single one, so worker pools are read from ``/proc``
    instead: :meth:`sample` reads the ``VmHWM`` of every live descendant and
    must be called while a pool is still up.  The peak is the largest sum of
    the driver's and its live descendants' high-water marks over all samples.
    """

    def __init__(self) -> None:
        self.peak_kb = 0

    def sample(self) -> int:
        """Read the tree now; returns the current sum in KiB."""
        me = str(os.getpid())
        total = _vm_hwm_kb(me)
        pending = child_pids(me)
        seen = set()
        while pending:
            pid = pending.pop()
            if pid in seen:
                continue
            seen.add(pid)
            total += _vm_hwm_kb(pid)
            pending.extend(child_pids(pid))
        self.peak_kb = max(self.peak_kb, total)
        return total

    @property
    def peak_mb(self) -> float:
        """The peak in MB (10^6 bytes)."""
        return self.peak_kb * 1024 / 1e6


class Spans:
    """In-memory span recorder used by the traced runs.

    A span is ``(name, start, end)`` measured around one call into a layer
    from the benchmark's own code; :meth:`durations` groups them by name.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float]] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record one finished span."""
        self.records.append((name, start, end))

    def durations(self) -> Dict[str, List[float]]:
        """Span durations by name, in recording order."""
        out: Dict[str, List[float]] = {}
        for name, start, end in self.records:
            out.setdefault(name, []).append(end - start)
        return out


@dataclass
class Outcome:
    """What one workload's timed phase produced.

    ``latencies`` holds one entry per completed op; ``failures`` one line
    per failed op (wrong verdict, error or timeout); ``layers`` the
    per-layer metrics of a traced run; ``notes`` free-form facts printed
    on the info line (never counted as failures).
    """

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed op with its reason."""
        self.failures.append(message)

