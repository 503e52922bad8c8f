"""Job records, states and handles of the passivity service.

A submission to :class:`~repro.service.PassivityService` becomes a
:class:`Job` — the service-internal record holding the system, the requested
method, the scheduling parameters and, once the job ran, its outcome.  The
caller never sees the record directly: ``submit()`` returns a
:class:`JobHandle` (a thin client-side view that can poll, wait, fetch and
cancel), and ``status()`` returns :class:`JobStatus` snapshots that are
plain data and safe to serialize.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.passivity.result import PassivityReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.descriptor.system import DescriptorSystem
    from repro.service.service import PassivityService

__all__ = ["JobState", "JobStatus", "JobHandle"]


class JobState(str, enum.Enum):
    """Lifecycle states of a service job.

    A job moves ``QUEUED -> RUNNING -> one of the terminal states``; a
    coalesced duplicate stays ``QUEUED`` until its primary finishes and then
    adopts the primary's terminal state.  The ``str`` mixin makes the states
    JSON-friendly (``state.value`` is the wire form).
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"

    @property
    def is_terminal(self) -> bool:
        """True when the job will never change state again."""
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        )


@dataclass
class JobStatus:
    """Immutable snapshot of one job's scheduling state.

    Attributes
    ----------
    job_id:
        The service-assigned identifier.
    state:
        Current :class:`JobState`.
    method:
        The requested method name (``"auto"`` before dispatch; the resolved
        method is recorded on the report's engine diagnostics).
    priority:
        Scheduling priority (lower runs first).
    fingerprint:
        The system's cache fingerprint — jobs sharing it share
        decompositions (and, with deduplication on, the whole execution).
    deduplicated:
        True when this job was coalesced onto an identical in-flight job and
        never executed on its own.
    submitted_at / started_at / finished_at:
        Unix timestamps; ``None`` until the corresponding transition.
    retries:
        Times the job was re-queued after its process-pool dispatch died
        with the pool (0 for the common case; bounded by the service's
        ``max_retries`` budget).
    error:
        Failure description for ``FAILED`` / ``TIMED_OUT`` / ``CANCELLED``
        jobs, ``None`` otherwise.
    """

    job_id: str
    state: JobState
    method: str
    priority: int
    fingerprint: str
    deduplicated: bool = False
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    retries: int = 0
    error: Optional[str] = None

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of the snapshot for transport front-ends."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "method": self.method,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "deduplicated": self.deduplicated,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "retries": self.retries,
            "error": self.error,
        }


@dataclass
class Job:
    """Service-internal record of one submission (not part of the public API).

    All mutation happens on the service's event-loop thread; the
    ``done_event`` is the only cross-thread signal (set exactly once, when
    the job reaches a terminal state).  Terminal jobs rehydrated from a
    persistent store carry ``system=None`` — they exist only to serve
    ``status()``/``result()`` polling and never run.
    """

    job_id: str
    system: Optional["DescriptorSystem"]
    method: str
    options: Dict[str, Any]
    priority: int
    timeout: Optional[float]
    fingerprint: str
    key: Tuple[str, str, str]
    seq: int
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    report: Optional[PassivityReport] = None
    error: Optional[str] = None
    coalesced_into: Optional[str] = None
    followers: List[str] = field(default_factory=list)
    #: Re-queues consumed from the broken-pool retry budget.
    retries: int = 0
    #: Owning scenario id and cell index for scenario-expanded cells
    #: (``None`` for plain submissions).  Scenario cells bypass dedup
    #: coalescing so every cell resolves through the scenario hooks.
    scenario_id: Optional[str] = None
    cell_index: Optional[int] = None
    #: Explicit warm-start ancestor (the scenario family root's system),
    #: taking precedence over the service's family-latest tracking.
    ancestor_system: Optional["DescriptorSystem"] = None
    #: True while the cell is registered but deliberately *not* queued —
    #: deferred corners waiting for their family root to complete.
    held: bool = False
    #: The job's pipeline trace: the :meth:`~repro.obs.JobTrace.to_jsonable`
    #: span forest (queue wait, worker-side stages), assembled by
    #: the dispatching worker and served by ``GET /jobs/<id>/trace``.
    trace: Optional[List[Dict[str, Any]]] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> JobStatus:
        """Build the public :class:`JobStatus` view of this record."""
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            method=self.method,
            priority=self.priority,
            fingerprint=self.fingerprint,
            deduplicated=self.coalesced_into is not None,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            retries=self.retries,
            error=self.error,
        )


class JobHandle:
    """Client-side view of a submitted job.

    Returned by :meth:`~repro.service.PassivityService.submit`; wraps the job
    id together with the owning service so callers can poll, block, fetch the
    report and cancel without holding a reference to the internal record.
    """

    def __init__(self, service: "PassivityService", job_id: str) -> None:
        self._service = service
        self.job_id = job_id

    def status(self) -> JobStatus:
        """Current :class:`JobStatus` snapshot of the job."""
        return self._service.status(self.job_id)

    @property
    def done(self) -> bool:
        """True when the job reached a terminal state."""
        return self.status().state.is_terminal

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True when it finished in time."""
        return self._service.wait(self.job_id, timeout=timeout)

    def result(self, timeout: Optional[float] = None) -> PassivityReport:
        """Block until the job finishes and return its report.

        Unlike the poll-style :meth:`PassivityService.result` (whose default
        is non-blocking), the handle waits: ``timeout=None`` waits forever.

        Raises
        ------
        JobNotReadyError
            When ``timeout`` expires before the job finishes.
        JobCancelledError
            When the job was cancelled.
        JobFailedError
            When the job raised or timed out on the service side.
        """
        return self._service.result(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when it was cancelled."""
        return self._service.cancel(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.job_id!r})"
