"""Serving layer: an async job-queue front-end over the passivity engine.

The package turns the batch-oriented engine into a long-lived service for
heavy concurrent traffic:

* :mod:`repro.service.service` — :class:`PassivityService`, the asyncio
  job queue: ``submit(system, method="auto") -> JobHandle``, poll-style
  ``status()`` / ``result()`` / ``stats()``, priorities, per-job timeouts,
  cancellation, and fingerprint-level deduplication of identical concurrent
  submissions through the engine's shared decomposition cache,
* :mod:`repro.service.jobs` — :class:`JobHandle`, :class:`JobStatus` and
  the :class:`JobState` lifecycle,
* :mod:`repro.service.scenario` — first-class streaming sweep jobs:
  ``submit_scenario(ScenarioSpec(...)) -> ScenarioHandle`` expands a
  corner family, portfolio or frequency sweep server-side, chains the
  corners to their family root through the incremental tier, and *pushes*
  per-corner verdicts, progress/ETA and the terminal summary to
  subscribers (in-process :class:`ScenarioSubscription` queues, or the
  ``GET /scenarios/<id>/events`` Server-Sent-Events feed) with bounded
  buffers, drop-to-snapshot backpressure and ``Last-Event-ID`` resume,
* :mod:`repro.service.journal` — :class:`JobJournal`, the fsynced
  write-ahead journal that makes accepted-but-unfinished work survive a
  ``kill -9`` (the service replays it on restart),
* :mod:`repro.service.serialization` — lossless JSON-able wire forms of
  dense and sparse :class:`~repro.DescriptorSystem` objects and
  :class:`~repro.PassivityReport` results,
* :mod:`repro.service.http` — the reference stdlib JSON-over-HTTP
  front-end (``python -m repro.service``).

With a :class:`~repro.store.DecompositionStore` attached
(``PassivityService(store=...)``) the service gains restart persistence of
completed results and, under ``executor="process"``, a process-pool mode
whose workers share finished verdicts fleet-wide through the on-disk L2 tier;
``max_queue`` bounds the backlog and surfaces overflow as
:class:`~repro.exceptions.QueueFullError` (HTTP ``429``).

See ``docs/architecture.md`` for where the service sits in the stack and
``docs/api.md`` for the frozen public API.
"""

from repro.service.jobs import JobHandle, JobState, JobStatus
from repro.service.journal import JobJournal
from repro.service.scenario import (
    ScenarioEvent,
    ScenarioHandle,
    ScenarioSpec,
    ScenarioState,
    ScenarioStatus,
    ScenarioSubscription,
    format_sse_event,
    scenario_from_jsonable,
    scenario_to_jsonable,
)
from repro.service.serialization import (
    from_jsonable,
    job_record_from_jsonable,
    job_record_to_jsonable,
    report_from_jsonable,
    report_to_jsonable,
    system_from_jsonable,
    system_to_jsonable,
    to_jsonable,
)
from repro.service.service import PassivityService, ServiceStats
from repro.service.http import PassivityHTTPServer, PassivityRequestHandler, serve

__all__ = [
    "PassivityService",
    "ServiceStats",
    "JobJournal",
    "JobHandle",
    "JobState",
    "JobStatus",
    "ScenarioSpec",
    "ScenarioHandle",
    "ScenarioState",
    "ScenarioStatus",
    "ScenarioSubscription",
    "ScenarioEvent",
    "scenario_to_jsonable",
    "scenario_from_jsonable",
    "format_sse_event",
    "system_to_jsonable",
    "system_from_jsonable",
    "report_to_jsonable",
    "report_from_jsonable",
    "job_record_to_jsonable",
    "job_record_from_jsonable",
    "to_jsonable",
    "from_jsonable",
    "PassivityHTTPServer",
    "PassivityRequestHandler",
    "serve",
]
