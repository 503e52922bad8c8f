"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch every failure mode of the passivity machinery with a single ``except``
clause while still being able to distinguish the individual causes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class DimensionError(ReproError, ValueError):
    """Matrix or system dimensions are inconsistent."""


class StructureError(ReproError, ValueError):
    """A matrix does not have the structure required by an algorithm.

    Raised, for example, when a matrix passed to a Hamiltonian-only routine is
    not Hamiltonian within the requested tolerance, or when a pencil expected
    to be skew-Hamiltonian/Hamiltonian is not.
    """


class SingularPencilError(ReproError, ValueError):
    """The matrix pencil ``s E - A`` is singular (not regular).

    A regular pencil is a standing assumption of every passivity test in the
    paper; a singular pencil means the transfer function is not even uniquely
    defined.
    """


class NotStableError(ReproError, ValueError):
    """The descriptor system has finite dynamic modes outside the open LHP."""


class NotAdmissibleError(ReproError, ValueError):
    """The descriptor system is not admissible (regular, stable, impulse-free).

    Only raised by algorithms whose validity requires admissibility, such as
    the generalized-ARE baseline test.
    """


class ReductionError(ReproError, RuntimeError):
    """A structure-preserving reduction step could not be completed.

    In the proposed test this typically signals a non-passive input system
    (the paper: "if the transformation and reduction fail somewhere in the
    flow, then it can be concluded that the initial DS is not passive"), but it
    is also raised when numerical rank decisions become ambiguous.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver (SDP interior point, Riccati refinement) failed."""


class NotImplementedForSystemError(ReproError, NotImplementedError):
    """The requested operation is not defined for this kind of system."""


class SerializationError(ReproError, ValueError):
    """A payload could not be converted to or from its JSON-able form.

    Raised by the :mod:`repro.service.serialization` layer when an incoming
    document is malformed (unknown ``kind`` tag, missing fields, inconsistent
    shapes) or when an object contains values that cannot be represented.
    """


class StoreError(ReproError):
    """The persistent verdict store was misconfigured or misused.

    Raised by :class:`~repro.store.DecompositionStore` for *setup* problems —
    an unusable root directory, a non-positive size budget, a malformed
    verdict key, a failed write.  Runtime blob corruption is
    deliberately **not** an error: corrupt or truncated blobs are treated as
    cache misses (and removed), so a damaged store degrades to recomputation
    instead of failing requests.
    """


class ServiceError(ReproError):
    """Base class of the :mod:`repro.service` job-queue errors.

    Every error raised by :class:`~repro.service.PassivityService` (unknown
    job ids, premature result fetches, cancelled or failed jobs) derives from
    this class, so a transport front-end can map the whole family to error
    responses with one ``except`` clause.
    """


class JournalError(ServiceError):
    """The write-ahead job journal was misconfigured or misused.

    Raised by :class:`~repro.service.JobJournal` for *setup* problems — an
    unusable journal path, an invalid compaction threshold, appends after
    ``close()``.  Runtime damage is deliberately **not** an error: corrupt
    or truncated journal lines are skipped (and counted) during replay, so
    a torn journal degrades to replaying fewer jobs instead of failing the
    service start.
    """


class QueueFullError(ServiceError):
    """The service's bounded submission queue is at capacity.

    Raised by :meth:`~repro.service.PassivityService.submit` when
    ``max_queue`` is set and the backlog is full — the backpressure signal
    the HTTP front-end translates to ``429 Too Many Requests``.  Coalesced
    duplicates of an in-flight job are never rejected (they consume no queue
    slot).  Clients should retry after a delay.
    """


class UnknownJobError(ServiceError, KeyError):
    """No job with the requested id exists in the service.

    Subclasses :class:`KeyError` for backward compatibility with callers that
    treated the job table as a plain mapping, but service code should catch
    the typed class.
    """

    def __str__(self) -> str:
        # KeyError.__str__ shows repr(args[0]); keep the readable message.
        return self.args[0] if self.args else ""


class UnknownScenarioError(ServiceError, KeyError):
    """No scenario with the requested id exists in the service.

    The scenario sibling of :class:`UnknownJobError` — raised by the
    streaming endpoints (``GET /scenarios/<id>``, the SSE feed) and mapped
    to ``404``.
    """

    def __str__(self) -> str:
        # KeyError.__str__ shows repr(args[0]); keep the readable message.
        return self.args[0] if self.args else ""


class JobNotReadyError(ServiceError):
    """The job exists but has not produced a report yet.

    Raised by ``result()`` when the job is still queued or running (and, for
    the blocking variant, the wait timed out).  Poll ``status()`` or wait on
    the :class:`~repro.service.JobHandle` instead.
    """


class JobCancelledError(ServiceError):
    """The job was cancelled before it produced a report."""


class JobFailedError(ServiceError):
    """The job ran but did not produce a report.

    Covers both a method raising inside the worker (the original error
    message is preserved) and a per-job timeout expiring.
    """
