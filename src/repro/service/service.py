"""The asyncio job-queue service over :class:`~repro.engine.BatchRunner`.

:class:`PassivityService` is the serving layer the ROADMAP's heavy-traffic
north star asks for: clients submit descriptor systems and poll reports,
while the service schedules the actual passivity tests on a bounded worker
pool.  The design is two-level parallel — concurrent *jobs* fan out over the
pool, and within each job the engine's shared :class:`DecompositionCache`
fans the expensive intermediates across methods — so duplicate traffic
(many clients posting the same macromodel) degenerates to a single
factorization.

Architecture
------------
* An :mod:`asyncio` event loop runs on a dedicated daemon thread; all
  scheduling state (job table, priority queue, dedup index) is mutated only
  on that thread, so the service needs no locks of its own.
* ``max_workers`` worker coroutines pull jobs off an
  :class:`asyncio.PriorityQueue` (priority, then submission order) and
  execute them on a bounded pool: the engine's
  :class:`~repro.engine.executor.SupervisedPool`, running the same task
  (:func:`~repro.engine.executor.run_cells`) the batch runner uses.  Every
  dispatch is one job in a one-cell task.  With ``executor="thread"`` (default) the pool holds
  threads and the task runs on the runner's shared cache — NumPy releases
  the GIL in the O(n^3) kernels, so threads overlap well.  With
  ``executor="process"`` the workers boot with a worker-local
  :class:`~repro.engine.DecompositionCache` backed by the service's
  persistent store: a system solved by *any* worker — or any prior run
  sharing the store — reads its verdict back from disk and costs
  zero factorizations fleet-wide.  A crashed worker breaks the pool; the
  pool is healed and the interrupted jobs are re-queued within their retry
  budget.  ``close()`` joins the workers when no dispatch is running.
* **Backpressure**: with ``max_queue`` set, submissions beyond the queue
  bound raise :class:`~repro.exceptions.QueueFullError` (the HTTP
  front-end answers ``429``); coalesced duplicates are never rejected —
  they consume no queue slot.
* **Restart persistence**: with a ``store``, completed jobs are written to
  it and rehydrated on the next start, so ``result()`` (and
  ``GET /jobs/<id>/result``) survives a service restart.
* **Fingerprint-level deduplication**: a submission whose verdict key
  (:func:`~repro.engine.api.verdict_key`: fingerprint, method, runner and
  the exact form of the options) matches an in-flight job is *coalesced* —
  it never executes; it adopts the primary's report when the primary
  finishes.  One that matches a *finished* job whose verdict is cached (in
  the runner cache or the store) is answered at ``submit``: it is ``DONE``
  when ``submit`` returns, and is never queued, dispatched or journaled.
  Options with no exact form are neither coalesced nor answered.  Distinct
  methods on the same system still share
  decompositions through the runner's cache (whose per-key locks guarantee
  each intermediate — in particular the one ordered QZ of the
  :class:`~repro.linalg.pencil.SpectralContext` — is computed once even when
  duplicate jobs race on different workers).
* **Per-job timeouts** are best-effort, exactly like the batch runner's: an
  expired job is reported ``TIMED_OUT`` and its worker slot freed, but the
  abandoned thread cannot be killed and keeps running in the background.
* **Cancellation** affects queued (and coalesced) jobs; a running test
  cannot be interrupted.  Cancelling a primary promotes its first live
  follower to a fresh queue entry, so coalesced clients never lose work
  they are still waiting for.

The service is transport-agnostic: pair it with
:mod:`repro.service.serialization` to move systems and reports as JSON, and
see :mod:`repro.service.http` for the reference stdlib HTTP front-end.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
import time
import uuid
from collections import deque
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.config import Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.engine.api import cached_verdict, verdict_key
from repro.engine.cache import CacheStats, DecompositionCache, fingerprint_system
from repro.engine.executor import (
    CellTask,
    SupervisedPool,
    apply_task_return,
    init_worker,
    run_cells,
)
from repro.engine.incremental import family_key
from repro.engine.registry import MethodRegistry
from repro.engine.runner import BatchRunner
from repro.exceptions import (
    JobCancelledError,
    JobFailedError,
    JobNotReadyError,
    QueueFullError,
    ServiceError,
    UnknownJobError,
    UnknownScenarioError,
)
from repro.obs.log import get_logger
from repro.obs.metrics import METRICS
from repro.obs.trace import JobTrace, record_span, trace_span, use_trace
from repro.passivity.result import PassivityReport, _plain, _revive
from repro.service.jobs import Job, JobHandle, JobState, JobStatus
from repro.service.journal import JobJournal
from repro.service.scenario import (
    DEFAULT_EVENT_HISTORY,
    DEFAULT_MAX_SUBSCRIBERS,
    DEFAULT_SUBSCRIBER_BUFFER,
    Scenario,
    ScenarioEvent,
    ScenarioHandle,
    ScenarioSpec,
    ScenarioState,
    ScenarioStatus,
    ScenarioSubscription,
    cell_event_data,
    progress_event_data,
    scenario_from_jsonable,
    scenario_to_jsonable,
    snapshot_event_data,
    summary_event_data,
    trace_event_data,
)
from repro.service.serialization import (
    job_record_from_jsonable,
    job_record_to_jsonable,
    system_from_jsonable,
    system_to_jsonable,
)
from repro.store import DecompositionStore

__all__ = ["PassivityService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Telemetry snapshot returned by :meth:`PassivityService.stats`.

    Attributes
    ----------
    workers:
        Size of the worker pool.
    queue_depth:
        Jobs currently waiting in the priority queue.
    running:
        Jobs currently executing on the pool.
    submitted / completed / failed / cancelled / timed_out:
        Lifetime job counters (``completed`` means a report was produced).
    deduplicated:
        Submissions coalesced onto an identical in-flight job — the
        fingerprint-level dedup the service exists for.
    rejected:
        Submissions refused by the bounded queue
        (:class:`~repro.exceptions.QueueFullError` / HTTP 429) — the
        backpressure counter; always 0 without a ``max_queue``.
    uptime_seconds:
        Seconds since the service started.
    throughput_per_second:
        ``completed / uptime`` — the sustained job completion rate.
    executor:
        The execution mode, ``"thread"`` or ``"process"``.
    queue_capacity:
        The configured ``max_queue`` bound (``None`` when unbounded).
    batches / batched_jobs / batch_occupancy / shm_bytes:
        Always 0: every dispatch carries one job, and every process payload
        rides the pickle pipe.  Kept because the benchmark reads them on
        every run and ``GET /stats`` serves them.
    pool_restarts:
        Times the supervised process pool was torn down and rebuilt after a
        worker crash (:class:`~concurrent.futures.process.BrokenProcessPool`);
        always 0 for the thread executor.
    retried:
        Jobs re-queued after their dispatch died with the pool (bounded by
        the per-job ``max_retries`` budget).
    replayed:
        Jobs re-queued from the write-ahead journal at startup — accepted
        work a previous incarnation never finished.
    incremental_hits / incremental_fallbacks / update_residual_max:
        Perturbation-aware tier counters (sweep-aware dispatch): jobs whose
        verdict was certified by an incremental update of a family
        ancestor's decompositions, attempted updates whose validity bounds
        failed (the job then ran the cold path — verdicts never weaken),
        and the largest certified update residual seen.  Aggregated across
        the shared runner cache and the process-mode worker caches, exactly
        like the ``cache`` counters.
    scenarios:
        Scenario jobs accepted (``submit_scenario`` / ``POST /scenarios``),
        each expanding into many cells.
    streamed_events:
        Numbered scenario events appended to ring buffers (and offered to
        every live subscriber) — the SSE feed volume.
    dropped_events:
        Events a slow subscriber lost to the bounded-buffer backpressure
        policy; every drop burst is covered by a ``snapshot`` event, so
        consumers lose granularity, never the final truth.
    queue_wait_max:
        Seconds the oldest currently-queued job has been waiting, 0.0 with
        an empty queue.  Recomputed from the job table at snapshot time
        (like ``queue_depth`` — it is a property of the queue *now*, not a
        running tally), so it reflects held scenario corners too.
    journal_lag:
        Dead (compactable) lines in the write-ahead journal at snapshot
        time — the same quantity ``GET /healthz`` reports under
        ``journal.lag``; always 0 without a journal.
    stages:
        Per-stage latency quantiles from the process-wide observability
        plane: ``{stage: {"count", "p50", "p95", "p99"}}`` over every span
        the tracer recorded (``queue.wait``, ``cache.*``, ``qz.ordered``,
        ``journal.fsync``, ...), estimated from the fixed-bucket stage
        histograms that also back ``GET /metrics``.
    cache:
        Plain-dict snapshot of the decomposition cache counters since
        service start (``hits`` / ``misses`` / ``factorizations``, the L2
        store tier's ``l2_hits`` / ``l2_misses`` / ``l2_evictions``, and the
        per-kind split), aggregated across the shared runner cache and —
        in process mode — the worker-local caches; ``factorizations`` is
        the "how many expensive decompositions did this traffic actually
        pay for" number the dedup acceptance tests assert on.
    """

    workers: int
    queue_depth: int
    running: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    timed_out: int
    deduplicated: int
    rejected: int
    uptime_seconds: float
    throughput_per_second: float
    executor: str = "thread"
    queue_capacity: Optional[int] = None
    batches: int = 0
    batched_jobs: int = 0
    batch_occupancy: float = 0.0
    shm_bytes: int = 0
    pool_restarts: int = 0
    retried: int = 0
    replayed: int = 0
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    update_residual_max: float = 0.0
    scenarios: int = 0
    streamed_events: int = 0
    dropped_events: int = 0
    queue_wait_max: float = 0.0
    journal_lag: int = 0
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of the snapshot for transport front-ends."""
        return asdict(self)


#: Lifetime job tallies; each is a :class:`ServiceStats` field and a
#: ``repro_jobs_<name>`` gauge.
_JOB_TALLIES = (
    "submitted", "completed", "failed", "cancelled", "timed_out",
    "deduplicated", "rejected", "retried", "replayed",
)
#: Every lifetime tally the service keeps, in one mapping of these names.
_TALLIES = _JOB_TALLIES + ("scenarios", "streamed_events", "dropped_events")
#: The tally each terminal state bumps.
_TERMINAL_TALLIES = {
    JobState.DONE: "completed",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
    JobState.TIMED_OUT: "timed_out",
}
#: The :class:`~repro.engine.CacheStats` aggregates ``ServiceStats.cache`` serves.
_CACHE_FIELDS = (
    "hits", "misses", "factorizations", "hit_rate", "l2_hits", "l2_misses", "l2_evictions",
)
#: ``GET /metrics`` gauges: :class:`ServiceStats` field (``cache.<name>`` for
#: an entry of its ``cache`` dict) -> (family, help).
_GAUGES: Dict[str, Tuple[str, str]] = {
    "queue_depth": ("repro_queue_depth",
                    "Jobs waiting in the priority queue (held corners included)."),
    "running": ("repro_jobs_running", "Jobs currently executing on the worker pool."),
    "queue_wait_max": ("repro_queue_wait_max_seconds",
                       "Seconds the oldest currently-queued job has been waiting."),
    "journal_lag": ("repro_journal_lag",
                    "Dead (compactable) lines in the write-ahead job journal."),
    "uptime_seconds": ("repro_uptime_seconds", "Seconds since the service started."),
    **{name: (f"repro_jobs_{name}", f"Lifetime count of {name.replace('_', ' ')} jobs.")
       for name in _JOB_TALLIES},
    "scenarios": ("repro_scenarios", "Scenario sweeps accepted since service start."),
    "streamed_events": ("repro_streamed_events",
                        "Numbered scenario events pushed to subscribers."),
    "dropped_events": ("repro_dropped_events",
                       "Events lost to slow-subscriber backpressure."),
    "pool_restarts": ("repro_pool_restarts",
                      "Process-pool teardown/rebuild cycles after worker crashes."),
    **{f"cache.{name}": (f"repro_cache_{name}",
                         f"Decomposition cache {name.replace('_', ' ')} since service "
                         f"start (workers included).")
       for name in ("hits", "misses", "factorizations", "l2_hits", "l2_misses")},
}


class PassivityService:
    """Async job-queue front-end over the passivity engine.

    Parameters
    ----------
    runner:
        The :class:`~repro.engine.BatchRunner` executing the cells; its
        registry, tolerance bundle and (crucially) its shared
        :class:`~repro.engine.DecompositionCache` are what concurrent jobs
        share.  Built from the remaining parameters when omitted.
    max_workers:
        Bound of the worker pool (default 2).
    default_timeout:
        Per-job timeout in seconds, positive, applied when ``submit`` does
        not override it (``None`` disables).
    dedup:
        When true (default), identical submissions — same system
        fingerprint, method and options — are coalesced onto one execution
        while one is in flight, and answered from the cached verdict at
        ``submit`` once one has finished.  False turns both off.
    max_history:
        Terminal jobs kept for ``status()``/``result()`` polling; the oldest
        are evicted beyond this bound (evicted ids raise
        :class:`~repro.exceptions.UnknownJobError`).  ``None`` keeps all.
    executor:
        ``"thread"`` (default) runs jobs on a thread pool through the
        shared runner cache; ``"process"`` runs them on a
        :class:`~concurrent.futures.ProcessPoolExecutor` whose workers hold
        worker-local caches backed by the ``store`` — the mode for
        CPU-saturating traffic, where the GIL-free workers and the shared
        on-disk tier keep every verdict compute-once fleet-wide.
        Systems, options and (custom) registries must be picklable in this
        mode, and a crashed worker surfaces as a ``FAILED`` job.
    max_queue:
        Bound on the number of *queued* (not yet running) jobs.  A
        submission beyond it raises
        :class:`~repro.exceptions.QueueFullError` — the backpressure the
        HTTP front-end maps to ``429``.  Coalesced duplicates bypass the
        bound.  ``None`` (default) leaves the queue unbounded.
    store:
        Persistent :class:`~repro.store.DecompositionStore` (or a path,
        which opens one).  Attached as the L2 tier of the runner cache and
        of every process-mode worker cache, and used to persist completed
        jobs: on construction the service rehydrates its terminal-job
        history from the store, so results survive a restart.
    incremental:
        Sweep-aware dispatch (default False).  When on, the service tracks
        the most recent *completed* system of each perturbation family
        (same matrix shapes) and hands it to later same-family jobs as
        their warm-start ancestor, so sweeps and enforcement loops
        submitted job-by-job certify through the perturbation-aware
        incremental tier instead of re-running the cold pipeline.  In
        thread mode the ancestor's decompositions sit in the shared runner
        cache; in process mode the ancestor system rides the dispatch's
        payload to the worker, which warm-starts when its local (or
        store-backed) cache holds the ancestor's context and falls back
        cold otherwise — verdicts are never weaker than cold ones.  Hit/fallback counters surface in :meth:`stats`
        and ``GET /stats``.
    journal:
        Write-ahead job journal (see :class:`~repro.service.JobJournal`).
        ``True`` places ``journal.jsonl`` under the store root (requires
        ``store``); a path or :class:`JobJournal` instance uses it as-is;
        ``None``/``False`` (default) disables journaling.  With a journal,
        every accepted submission that ``submit`` did not already answer
        from a cached verdict is fsynced to disk before ``submit``
        returns, and on construction the service replays
        accepted-but-unfinished entries back into the queue — so a
        ``kill -9`` loses no accepted work.
    max_retries:
        Times one job may be re-queued after its process-pool dispatch died
        with the pool (default 1).  Beyond the budget the job fails with
        the broken-pool error.  The pool itself is always rebuilt.
    probe_interval:
        Seconds between the supervision loop's no-op probe pings of the
        process pool (default 5).  Each answered probe — and each completed
        process dispatch — refreshes the executor heartbeat that
        :meth:`health` (and ``GET /healthz``) reports.
    dead_after:
        Heartbeat staleness, in seconds, past which :meth:`health` reports
        the service ``dead`` (HTTP 503).  Default
        ``max(3 * probe_interval, 15.0)``.
    clock:
        Time source (``() -> float``) stamping scenario events, progress
        and ETA figures (default :func:`time.time`).  Injectable so the
        streaming test harness can drive scenarios on a fake clock; job
        scheduling itself always uses wall time.
    scenario_event_history:
        Ring-buffer length of each scenario's numbered event history — the
        replay window of ``Last-Event-ID`` resumption (default 1024).  A
        resume pointing before the window gets a ``snapshot`` instead.
    max_subscribers:
        Most concurrent event subscribers one scenario may have (default
        64); beyond it ``subscribe_scenario`` raises
        :class:`~repro.exceptions.QueueFullError` (HTTP 503 + Retry-After
        on the SSE endpoint).
    registry / tol / cache:
        Forwarded to the constructed runner when ``runner`` is omitted
        (ignored otherwise).

    Examples
    --------
    >>> from repro.circuits import rlc_ladder
    >>> from repro.service import PassivityService
    >>> with PassivityService(max_workers=2) as service:
    ...     handle = service.submit(rlc_ladder(4).system)
    ...     report = handle.result(timeout=60.0)
    >>> bool(report.is_passive)
    True
    """

    def __init__(
        self,
        runner: Optional[BatchRunner] = None,
        *,
        max_workers: int = 2,
        default_timeout: Optional[float] = None,
        dedup: bool = True,
        max_history: Optional[int] = 1024,
        executor: str = "thread",
        max_queue: Optional[int] = None,
        store: Optional[Any] = None,
        incremental: bool = False,
        journal: Any = None,
        max_retries: int = 1,
        probe_interval: float = 5.0,
        dead_after: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        scenario_event_history: int = DEFAULT_EVENT_HISTORY,
        max_subscribers: int = DEFAULT_MAX_SUBSCRIBERS,
        registry: Optional[MethodRegistry] = None,
        tol: Optional[Tolerances] = None,
        cache: Optional[DecompositionCache] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None for unbounded)")
        if default_timeout is not None and not default_timeout > 0:
            raise ValueError(
                f"default_timeout must be positive (or None), got {default_timeout!r}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if dead_after is not None and dead_after <= 0:
            raise ValueError("dead_after must be positive (or None for default)")
        if scenario_event_history < 1:
            raise ValueError("scenario_event_history must be at least 1")
        if max_subscribers < 1:
            raise ValueError("max_subscribers must be at least 1")
        if isinstance(store, (str, os.PathLike)):
            store = DecompositionStore(store)
        self._store = store
        if isinstance(journal, JobJournal):
            self._journal: Optional[JobJournal] = journal
        elif journal is True:
            if store is None:
                raise ServiceError(
                    "journal=True places the journal under the store root; "
                    "pass a store, or give journal an explicit path"
                )
            self._journal = JobJournal(Path(store.root) / "journal.jsonl")
        elif journal:
            self._journal = JobJournal(journal)
        else:
            self._journal = None
        if runner is None:
            if cache is None:
                cache = DecompositionCache(store=store)
            elif store is not None and cache.store is None:
                cache.attach_store(store)
            runner = BatchRunner(
                registry=registry, cache=cache, tol=tol, backend="thread"
            )
        elif store is not None and runner.cache.store is None:
            runner.cache.attach_store(store)
        self._runner = runner
        self._max_workers = int(max_workers)
        self._default_timeout = default_timeout
        self._dedup = bool(dedup)
        self._max_history = max_history
        self._executor_kind = executor
        self._max_queue = max_queue
        self._incremental = bool(incremental)
        #: family key -> most recent *completed* system: the warm-start
        #: ancestor handed to later same-family jobs (loop thread only).
        self._family_latest: Dict[Tuple[Tuple[int, ...], ...], Any] = {}
        self._max_retries = int(max_retries)
        self._probe_interval = float(probe_interval)
        self._dead_after = (
            max(3.0 * self._probe_interval, 15.0)
            if dead_after is None
            else float(dead_after)
        )

        self._clock: Callable[[], float] = clock if clock is not None else time.time
        self._scenario_event_history = int(scenario_event_history)
        self._max_subscribers = int(max_subscribers)

        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}
        self._history: List[str] = []
        self._scenarios: Dict[str, Scenario] = {}
        self._scenario_history: List[str] = []
        self._seq = itertools.count()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: Supervised thread (``executor="thread"``) or process
        #: (``executor="process"``) pool; built at startup.
        self._pool: Optional[SupervisedPool] = None
        self._queue: Optional["asyncio.PriorityQueue"] = None
        self._worker_tasks: List["asyncio.Task"] = []
        self._probe_task: Optional["asyncio.Task"] = None
        #: Wall-clock of the last proof the executor is alive: pool
        #: creation, an answered probe ping, or a completed process
        #: dispatch.  Read lock-free by :meth:`health`.
        self._last_heartbeat: Optional[float] = None
        self._closed = False
        self._started_at: Optional[float] = None
        self._cache_baseline = self._runner.cache.stats_since()
        #: Worker-side cache counter deltas (process mode), merged per job.
        self._worker_stats = CacheStats()
        #: Lifetime tallies, by :class:`ServiceStats` field name.
        self._tally: Dict[str, int] = dict.fromkeys(_TALLIES, 0)
        #: QUEUED, non-coalesced jobs awaiting a worker.  This — not
        #: ``queue.qsize()`` — is what ``max_queue`` bounds: a cancelled
        #: job's tuple lingers in the asyncio queue as a ghost until a
        #: worker pops and skips it, and ghosts must not cause rejections.
        self._n_queued = 0

        #: Jobs rebuilt from the journal, waiting for :meth:`_startup` to
        #: queue them (construction runs before the loop exists).
        self._replayed_jobs: List[Job] = []
        #: Scenario specs rebuilt from the journal: (scenario_id, spec),
        #: re-expanded and resubmitted by :meth:`_startup`.  Expansion is
        #: deterministic (seeded perturbations), so a crashed scenario's
        #: cells come back identical to the originals.
        self._replayed_scenarios: List[Tuple[str, ScenarioSpec]] = []

        if self._store is not None:
            self._restore_history()
        if self._journal is not None:
            self._replay_journal()

    # ------------------------------------------------------------------
    # Restart persistence
    # ------------------------------------------------------------------
    def _restore_history(self) -> None:
        """Rehydrate terminal jobs from the store (construction time only).

        Runs before the event loop exists, so plain mutation is safe.
        Records that fail to revive are skipped (the store already
        quarantines unparseable files); restored jobs re-enter the pollable
        history — and its ``max_history`` bound — but not the lifetime
        counters, which describe *this* incarnation's traffic.
        """
        try:
            records = self._store.load_job_records()
        except Exception:  # noqa: BLE001 - persistence is best-effort
            return
        for record in records:
            try:
                job = self._job_from_record(record)
            except Exception:  # noqa: BLE001 - skip undecodable records
                continue
            if job.job_id in self._jobs:
                continue
            self._jobs[job.job_id] = job
            self._history.append(job.job_id)
        if self._max_history is not None:
            while len(self._history) > self._max_history:
                evicted = self._history.pop(0)
                self._jobs.pop(evicted, None)
                self._store.delete_job_record(evicted)

    def _job_from_record(self, record: Dict[str, Any]) -> Job:
        """Build a terminal in-memory job from a persisted record."""
        record = job_record_from_jsonable(record)
        state = JobState(record["state"])
        if not state.is_terminal:
            raise ValueError(f"persisted job in non-terminal state {state!r}")
        job = Job(
            job_id=record["job_id"],
            system=None,  # the system itself is not persisted with the job
            method=record["method"],
            options={},
            priority=int(record.get("priority", 0)),
            timeout=None,
            fingerprint=record["fingerprint"],
            key=None,
            seq=-1,
            state=state,
        )
        job.submitted_at = record.get("submitted_at") or job.submitted_at
        job.started_at = record.get("started_at")
        job.finished_at = record.get("finished_at")
        job.report = record.get("report")
        job.error = record.get("error")
        job.done_event.set()
        return job

    def _persist_job(self, job: Job) -> None:
        """Write one completed job's record to the store (best-effort)."""
        try:
            self._store.save_job_record(
                job_record_to_jsonable(job.snapshot(), job.report)
            )
        except Exception:  # noqa: BLE001 - a full/broken disk must not fail jobs
            pass

    # ------------------------------------------------------------------
    # Write-ahead journal
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        """Rebuild unfinished journaled jobs (construction time only).

        Every pending ``submitted`` record becomes a fresh :class:`Job`
        carrying its **original** id, so handles persisted by clients keep
        resolving after the restart.  Records that no longer decode (e.g.
        a method since unregistered) are marked ``unreplayable`` in the
        journal so compaction clears them; a job the store already knows as
        terminal is marked finished instead of re-run.  The rebuilt jobs
        are queued by :meth:`_startup` once the loop exists.
        """
        journal = self._journal
        for record in journal.pending():
            job_id = record.get("job_id")
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state.is_terminal:
                # Crashed after persisting the result but before the
                # journal's finished append: close the journal's book.
                try:
                    journal.record_finished(job_id, existing.state.value)
                except Exception:  # noqa: BLE001 - journal is best-effort
                    pass
                continue
            if "scenario" in record:
                # A scenario parent: replay the *spec*, not the cells — the
                # seeded expansion regenerates them (same ids, same corners)
                # once the loop exists.
                try:
                    spec = scenario_from_jsonable(record["scenario"])
                    spec.validate()
                except Exception:  # noqa: BLE001 - damaged records skip
                    try:
                        journal.record_finished(job_id, "unreplayable")
                    except Exception:  # noqa: BLE001 - journal is best-effort
                        pass
                else:
                    self._replayed_scenarios.append((job_id, spec))
                continue
            try:
                system = system_from_jsonable(record["system"])
                method = record.get("method", "auto")
                if method != "auto":
                    method = self._runner.registry.resolve(method).name
                options = _revive(record.get("options") or {})
                if not isinstance(options, dict):
                    raise ValueError("journaled options are not a dict")
                timeout = record.get("timeout")
                fingerprint = fingerprint_system(system, self._runner.tol)
            except Exception:  # noqa: BLE001 - damaged records must not block start
                try:
                    journal.record_finished(job_id, "unreplayable")
                except Exception:  # noqa: BLE001 - journal is best-effort
                    pass
                continue
            job = Job(
                job_id=job_id,
                system=system,
                method=method,
                options=options,
                priority=int(record.get("priority", 0)),
                timeout=None if timeout is None else float(timeout),
                fingerprint=fingerprint,
                key=verdict_key(
                    system, method, self._runner.tol, self._runner.registry, options
                ),
                seq=next(self._seq),
            )
            job.submitted_at = record.get("submitted_at") or job.submitted_at
            self._replayed_jobs.append(job)
        if self._replayed_jobs or self._replayed_scenarios:
            get_logger("repro.service").info(
                "journal_replay",
                jobs=len(self._replayed_jobs),
                scenarios=len(self._replayed_scenarios),
                path=str(journal.path),
            )
        try:
            journal.compact()
        except Exception:  # noqa: BLE001 - journal is best-effort
            pass

    def _journal_submitted(self, job: Job, payload: Optional[Dict[str, Any]]) -> None:
        """Append the write-ahead record of one accepted submission."""
        if self._journal is None or payload is None:
            return
        try:
            self._journal.record_submitted(job.job_id, payload)
        except Exception:  # noqa: BLE001 - journal I/O must not fail jobs
            pass

    def _journal_started(self, job: Job) -> None:
        """Append the RUNNING marker of one dispatched job."""
        if self._journal is None:
            return
        try:
            self._journal.record_started(job.job_id)
        except Exception:  # noqa: BLE001 - journal I/O must not fail jobs
            pass

    def _journal_finished(
        self, job_id: str, state: Union[JobState, ScenarioState]
    ) -> None:
        """Append a job's (or scenario's) terminal record (idempotent)."""
        if self._journal is None:
            return
        try:
            self._journal.record_finished(job_id, state.value)
        except Exception:  # noqa: BLE001 - journal I/O must not fail jobs
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._loop is not None and not self._closed

    @property
    def runner(self) -> BatchRunner:
        """The underlying batch runner (shared cache, registry, tolerances)."""
        return self._runner

    @property
    def store(self) -> Optional[DecompositionStore]:
        """The persistent verdict/job store (``None`` when detached)."""
        return self._store

    def start(self) -> "PassivityService":
        """Start the event loop thread and the worker pool.

        Thread-safe and idempotent: ``submit`` auto-starts through it, so
        concurrent first submissions must not race two loops into existence.
        """
        with self._start_lock:
            if self._closed:
                raise ServiceError("service has been closed; create a new one")
            if self._loop is not None:
                return self
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="repro-service-loop", daemon=True
            )
            thread.start()
            asyncio.run_coroutine_threadsafe(self._startup(), loop).result()
            self._thread = thread
            self._started_at = time.time()
            # Publish last: other threads treat a non-None loop as "ready".
            self._loop = loop
        return self

    async def _startup(self) -> None:
        """Create the queue, executor and worker tasks (loop thread)."""
        self._queue = asyncio.PriorityQueue()
        if self._executor_kind == "process":
            # Every worker process boots one cache backed by the service's
            # store; a rebuilt pool re-runs the same initializer.
            self._pool = SupervisedPool(
                max_workers=self._max_workers,
                initializer=init_worker,
                initargs=(self._store, self._runner.cache.maxsize),
            )
        else:
            self._pool = SupervisedPool(
                max_workers=self._max_workers,
                executor=functools.partial(
                    ThreadPoolExecutor, thread_name_prefix="repro-service"
                ),
            )
        self._last_heartbeat = time.time()
        # Journal replay: accepted-but-unfinished jobs of the previous
        # incarnation re-enter the queue (bypassing the max_queue bound —
        # they were already accepted once) before any new traffic arrives.
        # A job whose worker persisted its verdict before the crash is
        # answered from the store instead of running again.
        for job in self._replayed_jobs:
            try:
                cached = None
                if self._dedup and job.key is not None:
                    cached = self._cached_answer(job)
                await self._submit(job, replay=True, cached=cached)
                self._tally["replayed"] += 1
            except Exception:  # noqa: BLE001 - replay is best-effort
                continue
        self._replayed_jobs = []
        for scenario_id, spec in self._replayed_scenarios:
            try:
                scenario, jobs = self._build_scenario(spec, scenario_id=scenario_id)
                await self._submit_scenario(scenario, jobs, replay=True)
                self._tally["replayed"] += 1
            except Exception:  # noqa: BLE001 - replay is best-effort
                continue
        self._replayed_scenarios = []
        loop = asyncio.get_running_loop()
        self._worker_tasks = [
            loop.create_task(self._worker()) for _ in range(self._max_workers)
        ]
        if self._executor_kind == "process":
            self._probe_task = loop.create_task(self._probe_loop())

    @property
    def _executor(self) -> Optional[Any]:
        """The live executor: the current thread or process pool."""
        return self._pool.pool if self._pool is not None else None

    @property
    def _pool_restarts(self) -> int:
        """Broken pools torn down so far (0 for threads)."""
        return self._pool.restarts if self._pool is not None else 0

    def _heal(self, pool: Any) -> None:
        """Tear down a broken pool (loop thread only).

        :meth:`SupervisedPool.heal` is idempotent per pool, so when several
        dispatches observe the same corpse only the first counts a restart.
        The replacement is built at the next dispatch.
        """
        if not self._pool.heal(pool):
            return
        get_logger("repro.service").warning(
            "pool_restart", restarts=self._pool.restarts, executor=self._executor_kind
        )
        # The service is healing, not dead: restart the staleness clock.
        self._last_heartbeat = time.time()

    def _retry_or_fail(self, job: Job, message: str) -> None:
        """Re-queue a job whose dispatch died with the pool, or fail it.

        The retry budget (``max_retries``) is per job: within it the job
        returns to the queue (keeping its priority, seq and coalesced
        followers); beyond it the job fails with the broken-pool error so
        a poison payload that kills every worker cannot crash-loop the
        pool forever.
        """
        if job.retries < self._max_retries:
            job.retries += 1
            self._tally["retried"] += 1
            job.state = JobState.QUEUED
            job.started_at = None
            self._n_queued += 1
            self._queue.put_nowait((job.priority, job.seq, job.job_id))
        else:
            self._finish(
                job,
                JobState.FAILED,
                error=f"worker pool broken: {message}; retry budget exhausted",
            )

    async def _probe_loop(self) -> None:
        """Supervision coroutine: ping the process pool, refresh heartbeat.

        A periodic ``os.getpid`` call proves the pool can still answer; a broken
        pool found here is torn down exactly like one found by a job
        dispatch, so the service heals even when idle.  An unanswered
        (but unbroken) probe just leaves the heartbeat stale — sustained
        staleness is what :meth:`health` reports as ``dead``.
        """
        while True:
            await asyncio.sleep(self._probe_interval)
            pool_future, pool = self._pool.submit(os.getpid)
            future = asyncio.wrap_future(pool_future)
            done, pending = await asyncio.wait({future}, timeout=self._dead_after)
            if pending:
                future.add_done_callback(_ignore_outcome)
                continue
            try:
                future.result()
            except BrokenExecutor:
                self._heal(pool)
            except Exception:  # noqa: BLE001 - probing must not kill supervision
                pass
            else:
                self._last_heartbeat = time.time()

    def close(self, wait: bool = True) -> None:
        """Stop the workers and the loop; cancel every unfinished job.

        Queued and coalesced jobs become ``CANCELLED``; a job already running
        on the pool also resolves as ``CANCELLED`` (its worker thread cannot
        be interrupted and is abandoned, exactly like a batch-runner
        timeout).  ``wait=True`` joins the loop thread before returning.
        Idempotent.
        """
        with self._start_lock:
            if self._loop is None or self._closed:
                self._closed = True
                if self._journal is not None:
                    self._journal.close()
                return
            self._closed = True
            loop = self._loop
        asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        if wait and self._thread is not None:
            self._thread.join(timeout=10.0)
            if not self._thread.is_alive():
                # Release the loop's selector fd and self-pipe; skipped when
                # the join timed out (closing a running loop would raise).
                loop.close()
        if self._pool is not None:
            # Joins the workers only when no dispatch is still running: a
            # timed-out job's worker cannot be killed and is not waited for.
            self._pool.shutdown()
        if self._journal is not None:
            self._journal.close()

    async def _shutdown(self) -> None:
        """Cancel workers and resolve unfinished jobs (loop thread)."""
        if self._probe_task is not None:
            self._probe_task.cancel()
        for task in self._worker_tasks:
            task.cancel()
        # Finalize open scenarios *first*: once a scenario is terminal, the
        # cell cancellations below resolve silently (no post-terminal
        # events — the stream contract) and its subscribers drain cleanly.
        for scenario in list(self._scenarios.values()):
            if not scenario.state.is_terminal:
                scenario.deferred = []
                self._finalize_scenario(scenario, ScenarioState.CANCELLED)
        for job in list(self._jobs.values()):
            if not job.state.is_terminal:
                if job.state is JobState.QUEUED and job.held:
                    job.held = False  # held cells never counted in _n_queued
                self._finish(job, JobState.CANCELLED, error="service closed")

    def __enter__(self) -> "PassivityService":
        """Start the service on entry (context-manager form)."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Close the service on exit."""
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        system: DescriptorSystem,
        method: str = "auto",
        *,
        priority: int = 0,
        timeout: Optional[float] = None,
        **options: Any,
    ) -> JobHandle:
        """Queue a passivity check and return a :class:`JobHandle`.

        Thread-safe; auto-starts the service on first use.

        Parameters
        ----------
        system:
            The descriptor system to test (dense or sparse-backed).
        method:
            Registry name/alias or ``"auto"``; validated here, so a typo
            raises :class:`~repro.engine.UnknownMethodError` at submission
            time, not inside a worker.
        priority:
            Lower values run first; ties run in submission order.
        timeout:
            Per-job timeout in seconds, positive, overriding the service
            default.
        **options:
            Forwarded to the method runner (e.g. ``order_limit=None``).

        Returns
        -------
        JobHandle
            Handle for polling, waiting, fetching and cancelling.  With
            ``dedup`` on, a repeat of a finished job whose verdict is cached
            is already ``DONE`` (answered here, never queued or journaled).

        Raises
        ------
        QueueFullError
            When ``max_queue`` is set and the submission queue is at
            capacity (coalesced duplicates of an in-flight job are exempt —
            they consume no queue slot).
        """
        if not isinstance(system, DescriptorSystem):
            raise TypeError(
                f"submit() expects a DescriptorSystem, got {type(system).__name__}"
            )
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            # Validated here, not in the worker: a bad timeout reaching
            # asyncio.wait would kill the worker coroutine for good.
            raise TypeError(
                f"timeout must be a number of seconds or None, "
                f"got {type(timeout).__name__}"
            )
        if timeout is not None and not timeout > 0:
            # ``not > 0`` rejects NaN too.
            raise ValueError(f"timeout must be positive (or None), got {timeout!r}")
        if method != "auto":
            # Resolve eagerly so unknown methods fail the submission, and
            # coalesce aliases onto the canonical name for dedup identity.
            method = self._runner.registry.resolve(method).name
        self.start()
        # Fingerprinting is O(nnz) hashing — done on the caller's thread to
        # keep the loop thread scheduling-only.
        fingerprint = fingerprint_system(system, self._runner.tol)
        job = Job(
            job_id="job-" + uuid.uuid4().hex[:12],
            system=system,
            method=method,
            options=dict(options),
            priority=int(priority),
            timeout=self._default_timeout if timeout is None else timeout,
            fingerprint=fingerprint,
            key=verdict_key(
                system, method, self._runner.tol, self._runner.registry, options
            ),
            seq=next(self._seq),
        )
        cached: Optional[PassivityReport] = None
        if self._dedup and job.key is not None and job.key not in self._inflight:
            # A repeat of a finished job: answered here, before the journal
            # payload (O(system) JSON) is ever built.  A repeat of a job
            # still in flight coalesces onto it instead, so it finishes with
            # its primary, in order (a racy read of the loop's table: a
            # stale answer either way only picks the other correct path).
            cached = self._cached_answer(job)
        journal_payload: Optional[Dict[str, Any]] = None
        if self._journal is not None and cached is None:
            # Serialization is O(system) work — done on the caller's thread,
            # like fingerprinting; the loop thread only appends the line.
            journal_payload = {
                "system": system_to_jsonable(system),
                "method": method,
                "options": _plain(dict(options)),
                "priority": job.priority,
                "timeout": job.timeout,
                "submitted_at": job.submitted_at,
            }
        self._call(self._submit(job, journal_payload=journal_payload, cached=cached))
        return JobHandle(self, job.job_id)

    def _cached_answer(self, job: Job) -> Optional[PassivityReport]:
        """The job's cached verdict, or ``None``; a hit's lookup is its trace."""
        trace = JobTrace()
        with use_trace(trace):
            cached = cached_verdict(
                self._runner.cache, job.key, auto=job.method == "auto"
            )
        if cached is not None:
            job.trace = trace.to_jsonable()
        return cached

    async def _submit(
        self,
        job: Job,
        journal_payload: Optional[Dict[str, Any]] = None,
        replay: bool = False,
        cached: Optional[PassivityReport] = None,
    ) -> None:
        """Insert the job into the table and queue (loop thread).

        Coalescing is checked before the queue bound — a duplicate of a
        finished job (``cached``, its verdict) resolves ``DONE`` at once and
        is never journaled, a duplicate of an in-flight job never occupies
        a slot, so dedup keeps absorbing traffic even when the queue is
        full.  A rejected job is never
        registered (no handle state leaks), bumps the ``rejected`` counter,
        and is never journaled.  Accepted jobs journal their write-ahead
        record before ``submit`` returns; replayed jobs (``replay=True``)
        are already journaled and bypass the queue bound — they were
        accepted once.
        """
        if self._dedup and job.key is not None:
            if cached is not None:
                self._jobs[job.job_id] = job
                self._tally["submitted"] += 1
                self._finish(job, JobState.DONE, report=cached)
                return
            primary_id = self._inflight.get(job.key)
            if primary_id is not None:
                primary = self._jobs.get(primary_id)
                if primary is not None and not primary.state.is_terminal:
                    self._jobs[job.job_id] = job
                    self._tally["submitted"] += 1
                    job.coalesced_into = primary_id
                    primary.followers.append(job.job_id)
                    self._tally["deduplicated"] += 1
                    self._journal_submitted(job, journal_payload)
                    return
        if (
            not replay
            and self._max_queue is not None
            and self._n_queued >= self._max_queue
        ):
            self._tally["rejected"] += 1
            raise QueueFullError(
                f"submission queue is full ({self._max_queue} queued job(s)); "
                f"retry later"
            )
        self._jobs[job.job_id] = job
        self._tally["submitted"] += 1
        if self._dedup and job.key is not None:
            self._inflight[job.key] = job.job_id
        self._journal_submitted(job, journal_payload)
        self._n_queued += 1
        await self._queue.put((job.priority, job.seq, job.job_id))

    # ------------------------------------------------------------------
    # Scenarios (streaming sweep jobs)
    # ------------------------------------------------------------------
    def submit_scenario(
        self, spec: Union[ScenarioSpec, Dict[str, Any]]
    ) -> ScenarioHandle:
        """Queue a multi-corner scenario and return a :class:`ScenarioHandle`.

        The spec (a :class:`~repro.service.ScenarioSpec` or its wire-form
        dict, as posted to ``POST /scenarios``) is expanded **server-side**
        into per-corner cells that ride the ordinary job queue: the family
        root (nominal corner / portfolio medoid) dispatches first, and the
        perturbed corners are *held* until it completes so every corner
        warm-starts from the root's decompositions through the incremental
        tier.  Per-corner verdicts, progress and the terminal summary are
        pushed to subscribers (:meth:`subscribe_scenario`, or the SSE feed
        ``GET /scenarios/<id>/events``) as they land.

        Thread-safe; auto-starts the service.  Scenario cells deliberately
        bypass dedup coalescing — every cell resolves through the scenario
        event hooks.

        Raises
        ------
        SerializationError
            When a wire-form spec is malformed.
        DimensionError
            When the spec's parameters are out of range.
        QueueFullError
            When ``max_queue`` is set and the whole expansion does not fit
            the submission queue (scenarios are admitted atomically —
            all cells or none).
        """
        if isinstance(spec, dict):
            spec = scenario_from_jsonable(spec)
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"submit_scenario() expects a ScenarioSpec or its wire dict, "
                f"got {type(spec).__name__}"
            )
        self.start()
        # Expansion (seeded perturbations) and fingerprinting are O(cells)
        # numeric work — done on the caller's thread, like submit().
        scenario, jobs = self._build_scenario(spec)
        journal_payload: Optional[Dict[str, Any]] = None
        if self._journal is not None:
            journal_payload = {
                "scenario": scenario_to_jsonable(spec),
                "submitted_at": scenario.created_at,
            }
        self._call(self._submit_scenario(scenario, jobs, journal_payload))
        return ScenarioHandle(self, scenario.scenario_id)

    def _build_scenario(
        self, spec: ScenarioSpec, scenario_id: Optional[str] = None
    ) -> Tuple[Scenario, List[Job]]:
        """Expand a spec into the scenario record and its cell jobs.

        Pure construction (no service state touched): safe on the caller's
        thread.  Cell job ids are derived from the scenario id
        (``<scenario>-c<index>``), so a journal replay under the original
        id regenerates the original handles.
        """
        spec.validate()
        cells = spec.expand()
        scenario_id = scenario_id or ("scn-" + uuid.uuid4().hex[:12])
        now = self._clock()
        scenario = Scenario(
            scenario_id=scenario_id,
            family=spec.family,
            n_cells=len(cells),
            priority=int(spec.priority),
            created_at=now,
            events=deque(maxlen=self._scenario_event_history),
            trace=bool(spec.trace),
        )
        scenario.cells = [{} for _ in cells]
        jobs: List[Job] = []
        for cell in cells:
            method = cell.method
            if method != "auto":
                method = self._runner.registry.resolve(method).name
            fingerprint = fingerprint_system(cell.system, self._runner.tol)
            timeout = (
                self._default_timeout if spec.timeout is None else spec.timeout
            )
            job = Job(
                job_id=f"{scenario_id}-c{cell.index}",
                system=cell.system,
                method=method,
                options=dict(cell.options),
                priority=int(spec.priority),
                timeout=timeout,
                fingerprint=fingerprint,
                key=None,  # cells bypass dedup
                seq=next(self._seq),
                scenario_id=scenario_id,
                cell_index=cell.index,
                held=bool(cell.defer),
            )
            jobs.append(job)
            scenario.cells[cell.index] = {
                "index": cell.index,
                "label": cell.label,
                "job_id": job.job_id,
                "state": JobState.QUEUED.value,
                "is_passive": None,
            }
            if cell.ancestor is not None:
                scenario.root_index = cell.ancestor
        return scenario, jobs

    async def _submit_scenario(
        self,
        scenario: Scenario,
        jobs: List[Job],
        journal_payload: Optional[Dict[str, Any]] = None,
        replay: bool = False,
    ) -> None:
        """Register a scenario and queue its cells (loop thread).

        Admission is atomic against the queue bound: either every cell fits
        (held corners count — they *will* occupy slots once released) or
        the whole scenario is rejected with nothing registered.  Cells skip
        the dedup table so each resolves through the scenario hooks.
        """
        if (
            not replay
            and self._max_queue is not None
            and self._n_queued + len(jobs) > self._max_queue
        ):
            self._tally["rejected"] += 1
            raise QueueFullError(
                f"scenario of {len(jobs)} cell(s) does not fit the "
                f"submission queue ({self._max_queue} slot(s)); retry later"
            )
        self._scenarios[scenario.scenario_id] = scenario
        self._tally["scenarios"] += 1
        if journal_payload is not None and self._journal is not None:
            try:
                self._journal.record_submitted(
                    scenario.scenario_id, journal_payload
                )
            except Exception:  # noqa: BLE001 - journal I/O must not fail jobs
                pass
        for job in jobs:
            self._jobs[job.job_id] = job
            self._tally["submitted"] += 1
            if job.held:
                # Deferred corner: registered (pollable, cancellable) but
                # not queued until the family root completes.
                scenario.deferred.append(job)
                continue
            self._n_queued += 1
            await self._queue.put((job.priority, job.seq, job.job_id))
        self._emit_scenario_event(
            scenario, "progress", progress_event_data(scenario, 0.0)
        )

    def _emit_scenario_event(
        self,
        scenario: Scenario,
        name: str,
        data: Dict[str, Any],
        force: bool = False,
    ) -> None:
        """Number an event, ring-buffer it, push to subscribers (loop thread).

        Every emitted event gets the next gapless monotonic id and enters
        the bounded replay history.  ``force`` (terminal events) evicts a
        full subscriber's backlog rather than dropping the event — a
        consumer may lose intermediate corners, never the terminal truth.
        """
        event = ScenarioEvent(
            event_id=next(scenario.next_event_id),
            event=name,
            data=data,
            at=self._clock(),
        )
        scenario.last_event_id = event.event_id
        scenario.events.append(event)
        self._tally["streamed_events"] += 1
        subscribers = list(scenario.subscribers)
        if not subscribers:
            return
        with trace_span("sse.push", event=name, subscribers=len(subscribers)):
            for subscription in subscribers:
                self._deliver_event(scenario, subscription, event, force=force)

    def _deliver_event(
        self,
        scenario: Scenario,
        subscription: ScenarioSubscription,
        event: ScenarioEvent,
        force: bool = False,
    ) -> None:
        """Offer one event to one subscriber, applying backpressure.

        A full buffer marks the consumer slow: its backlog is dropped
        (counted) and replaced by a single **transient** ``snapshot`` event
        carrying the scenario's current truth through the just-emitted id.
        The snapshot has no event id, so it never advances the consumer's
        ``Last-Event-ID`` — a later resume replays the numbered events the
        snapshot papered over (while the ring still holds them).
        """
        if subscription.closed:
            return
        if force:
            self._tally["dropped_events"] += subscription._force(event)
            return
        if subscription._offer(event):
            return
        dropped = subscription._drop_backlog()
        self._tally["dropped_events"] += dropped
        snapshot = ScenarioEvent(
            event_id=None,
            event="snapshot",
            data=snapshot_event_data(scenario, dropped),
            at=self._clock(),
        )
        subscription._offer(snapshot)

    def _scenario_on_finish(
        self,
        job: Job,
        state: JobState,
        report: Optional[PassivityReport],
        error: Optional[str],
    ) -> None:
        """Scenario hook of :meth:`_finish` (loop thread only).

        Updates the owning scenario's cell table and counters, streams the
        per-corner verdict and a progress/ETA tick, releases the held
        corners when the family root resolves (chaining them to its system
        as their warm-start ancestor), and finalizes the scenario when the
        last cell lands.  A terminal scenario emits nothing — cells still
        resolving after a cancellation do so silently.
        """
        scenario = self._scenarios.get(job.scenario_id)
        if scenario is None or job.cell_index is None:
            return
        cell = scenario.cells[job.cell_index]
        cell["state"] = state.value
        cell["is_passive"] = (
            None if report is None else bool(report.is_passive)
        )
        if error is not None:
            cell["error"] = error
        scenario.n_terminal += 1
        if state is JobState.DONE:
            scenario.n_done += 1
            if report is not None and report.is_passive:
                scenario.n_passive += 1
        elif state is JobState.FAILED:
            scenario.n_failed += 1
        elif state is JobState.CANCELLED:
            scenario.n_cancelled += 1
        elif state is JobState.TIMED_OUT:
            scenario.n_timed_out += 1
        if not scenario.state.is_terminal:
            self._emit_scenario_event(
                scenario,
                "corner",
                cell_event_data(scenario, cell, state, report, error),
            )
            if scenario.trace and job.trace:
                # Opt-in (spec trace=True): the cell's span forest follows
                # its corner verdict on the stream.
                self._emit_scenario_event(
                    scenario,
                    "trace",
                    trace_event_data(scenario, cell, job.trace),
                )
            elapsed = max(0.0, self._clock() - scenario.created_at)
            self._emit_scenario_event(
                scenario, "progress", progress_event_data(scenario, elapsed)
            )
        if job.cell_index == scenario.root_index and scenario.deferred:
            # The family root resolved: release the held corners, chained
            # to the root's system when it certified (ancestor=None — cold
            # dispatch — when the root failed; verdicts never weaken).
            ancestor = job.system if state is JobState.DONE else None
            deferred, scenario.deferred = scenario.deferred, []
            if not scenario.state.is_terminal:
                scenario.root_system = ancestor
                for held in deferred:
                    held.held = False
                    held.ancestor_system = ancestor
                    self._n_queued += 1
                    self._queue.put_nowait(
                        (held.priority, held.seq, held.job_id)
                    )
        if scenario.n_terminal >= scenario.n_cells:
            if not scenario.state.is_terminal:
                self._finalize_scenario(scenario, ScenarioState.DONE)

    def _finalize_scenario(
        self, scenario: Scenario, state: ScenarioState
    ) -> None:
        """Transition a scenario to its terminal state (loop thread only).

        Emits the forced terminal event (``summary`` or ``cancelled``),
        closes the journal's book on the scenario, drains and closes every
        subscriber, releases the cross-thread waiters and moves the record
        into the bounded pollable history.
        """
        scenario.state = state
        scenario.finished_at = self._clock()
        elapsed = max(0.0, scenario.finished_at - scenario.created_at)
        name = (
            "cancelled" if state is ScenarioState.CANCELLED else "summary"
        )
        self._emit_scenario_event(
            scenario, name, summary_event_data(scenario, elapsed), force=True
        )
        self._journal_finished(scenario.scenario_id, state)
        for subscription in scenario.subscribers:
            subscription._close()
        scenario.subscribers = []
        scenario.done_event.set()
        self._remember_scenario(scenario)

    def _remember_scenario(self, scenario: Scenario) -> None:
        """Keep the terminal scenario pollable, evicting beyond the bound."""
        self._scenario_history.append(scenario.scenario_id)
        if self._max_history is None:
            return
        while len(self._scenario_history) > self._max_history:
            evicted = self._scenario_history.pop(0)
            self._scenarios.pop(evicted, None)

    def _get_scenario(self, scenario_id: str) -> Scenario:
        """Look up a scenario or raise :class:`UnknownScenarioError`."""
        scenario = self._scenarios.get(scenario_id)
        if scenario is None:
            raise UnknownScenarioError(
                f"unknown scenario id {scenario_id!r} (never submitted, or "
                f"evicted from the history)"
            )
        return scenario

    def scenario_status(self, scenario_id: str) -> ScenarioStatus:
        """Snapshot a scenario's progress (``GET /scenarios/<id>``).

        Raises
        ------
        UnknownScenarioError
            When no scenario with this id exists (or it was evicted).
        """
        if self._loop is not None and not self._closed:
            return self._call(self._scenario_status(scenario_id))
        # Closed service: records are frozen, read directly.
        return self._get_scenario(scenario_id).snapshot()

    async def _scenario_status(self, scenario_id: str) -> ScenarioStatus:
        return self._get_scenario(scenario_id).snapshot()

    def wait_scenario(
        self, scenario_id: str, timeout: Optional[float] = None
    ) -> bool:
        """Block until the scenario is terminal; True when it made it."""
        return self._get_scenario(scenario_id).done_event.wait(timeout)

    def subscribe_scenario(
        self,
        scenario_id: str,
        last_event_id: Optional[int] = None,
        buffer: int = DEFAULT_SUBSCRIBER_BUFFER,
    ) -> ScenarioSubscription:
        """Attach an event subscription to a scenario (the SSE backend).

        ``last_event_id`` resumes a dropped stream: numbered events after
        it still held by the ring buffer are replayed in order (no gaps,
        no duplicates); a resume pointing before the ring's window gets one
        transient ``snapshot`` carrying the current truth instead.
        Subscribing to an already-terminal scenario replays and closes
        immediately.

        Raises
        ------
        UnknownScenarioError
            When no scenario with this id exists (or it was evicted).
        QueueFullError
            When the scenario already has ``max_subscribers`` live
            subscribers (HTTP 503 + Retry-After on the SSE endpoint).
        """
        return self._call(
            self._subscribe_scenario(scenario_id, last_event_id, buffer)
        )

    async def _subscribe_scenario(
        self,
        scenario_id: str,
        last_event_id: Optional[int],
        buffer: int,
    ) -> ScenarioSubscription:
        scenario = self._get_scenario(scenario_id)
        if (
            not scenario.state.is_terminal
            and len(scenario.subscribers) >= self._max_subscribers
        ):
            raise QueueFullError(
                f"scenario {scenario_id} already has "
                f"{self._max_subscribers} subscriber(s); retry later"
            )
        subscription = ScenarioSubscription(scenario_id, buffer=buffer)
        since = int(last_event_id) if last_event_id else 0
        history = list(scenario.events)
        oldest = history[0].event_id if history else None
        if since and oldest is not None and oldest > since + 1:
            # The resume point fell off the bounded ring: replaying would
            # leave a gap, so hand over one snapshot of the current truth.
            subscription._offer(
                ScenarioEvent(
                    event_id=None,
                    event="snapshot",
                    data=snapshot_event_data(scenario, 0),
                    at=self._clock(),
                )
            )
        else:
            for event in history:
                if event.event_id is not None and event.event_id > since:
                    self._deliver_event(scenario, subscription, event)
        if scenario.state.is_terminal:
            subscription._close()
        else:
            scenario.subscribers.append(subscription)
        return subscription

    def unsubscribe_scenario(
        self, scenario_id: str, subscription: ScenarioSubscription
    ) -> None:
        """Detach a subscription (idempotent; safe on a closed service)."""
        try:
            self._call(
                self._unsubscribe_scenario(scenario_id, subscription)
            )
        except ServiceError:
            # Service already closed: nothing to detach from.
            subscription._close()

    async def _unsubscribe_scenario(
        self, scenario_id: str, subscription: ScenarioSubscription
    ) -> None:
        scenario = self._scenarios.get(scenario_id)
        if scenario is not None:
            try:
                scenario.subscribers.remove(subscription)
            except ValueError:
                pass
        subscription._close()

    def cancel_scenario(self, scenario_id: str) -> bool:
        """Cancel a scenario, reaping its queued and held cells.

        Queued and deferred cells become ``CANCELLED`` immediately; cells
        already running on the pool cannot be interrupted and resolve
        silently (no events escape past the terminal ``cancelled`` event).
        Returns True when this call performed the cancellation, False when
        the scenario was already terminal.

        Raises
        ------
        UnknownScenarioError
            When no scenario with this id exists (or it was evicted).
        """
        return self._call(self._cancel_scenario(scenario_id))

    async def _cancel_scenario(self, scenario_id: str) -> bool:
        scenario = self._get_scenario(scenario_id)
        if scenario.state.is_terminal:
            return False
        # Mark terminal *before* finishing cells: _scenario_on_finish emits
        # nothing for a terminal scenario, so the stream stays silent
        # between here and the forced `cancelled` event below.
        scenario.state = ScenarioState.CANCELLED
        scenario.deferred = []
        for cell in scenario.cells:
            job = self._jobs.get(cell.get("job_id"))
            if job is None or job.state is not JobState.QUEUED:
                continue  # running cells resolve silently; terminal stay put
            if not job.held:
                # A queued cell occupied a slot (its queue tuple lives on
                # as a ghost a worker will skip); a held cell never did.
                self._n_queued -= 1
            job.held = False
            self._finish(job, JobState.CANCELLED, error="scenario cancelled")
        self._finalize_scenario(scenario, ScenarioState.CANCELLED)
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ancestor(self, job: Job) -> Any:
        """Warm-start hint for a dispatch (loop thread only).

        Returns a scenario corner's explicit family root, else the job
        family's latest completed cold-run system, or ``None`` when the
        sweep-aware mode is off or the family is new.  Whether the hint
        actually warm-starts is decided where the task runs: its cache (the
        runner cache for threads, a worker's local or store-backed cache
        for processes) must hold the ancestor's decompositions, else the
        attempt is counted as a fallback and the job runs cold.
        """
        if job.ancestor_system is not None:
            return job.ancestor_system
        if not self._incremental:
            return None
        return self._family_latest.get(family_key(job.system))

    async def _run_job(self, job: Job) -> None:
        """Dispatch one job to the pool as a one-cell task and resolve it.

        The job travels as one :func:`~repro.engine.executor.run_cells`
        task.  A thread task runs on the runner cache, whose counters and
        spans it updates at the source.  A process task is pickled to a
        worker and returns its cache-counter delta and the cell's span tree,
        merged and replayed here exactly once.  The dispatch is waited on
        for ``job.timeout``; a dispatch that dies is handled by
        :meth:`_dispatch_failed`.
        """
        remote = self._executor_kind == "process"
        pool: Any = None
        try:
            # Parent-side trace: the queue wait.  Assigned before the
            # dispatch so the timeout path still serves a (partial) trace.
            parent_trace = JobTrace()
            if job.started_at is not None:
                record_span(
                    "queue.wait",
                    max(0.0, job.started_at - job.submitted_at),
                    started_at=job.submitted_at,
                    trace=parent_trace,
                )
            job.trace = parent_trace.to_jsonable()
            # The pool future (not just its asyncio wrapper) is what a
            # timeout cancels when the dispatch has not started yet.
            # No cache config rides the payload: a process worker runs the
            # cache init_worker installed (unpickling a store re-reads its
            # index, which would cost every dispatch).
            pool_future, pool = self._pool.submit(
                run_cells,
                CellTask(
                    [job.system],
                    [(0, job.method, dict(job.options), self._ancestor(job))],
                    self._runner.tol,
                    self._runner.registry,
                ),
                None if remote else self._runner.cache,
            )
            future = asyncio.wrap_future(pool_future)
            done, pending = await asyncio.wait({future}, timeout=job.timeout)
        except Exception as error:  # noqa: BLE001 - keep worker alive
            self._dispatch_failed(job, pool, error)
            return
        if pending:
            # A started dispatch cannot be killed: swallow its outcome
            # and cancel it in case it never started.
            future.add_done_callback(_ignore_outcome)
            pool_future.cancel()
            self._finish(
                job, JobState.TIMED_OUT, error=f"timed out after {job.timeout:.3g} s"
            )
            return
        try:
            ((report, _seconds, error_message, cell_tree),) = apply_task_return(
                future.result(), self._worker_stats if remote else None
            )
        except Exception as error:  # noqa: BLE001 - the job must resolve
            self._dispatch_failed(job, pool, error)
            return
        self._last_heartbeat = time.time()
        job.trace = parent_trace.merge(cell_tree).to_jsonable()
        if error_message is not None:
            self._finish(job, JobState.FAILED, error=error_message)
            return
        if remote and job.key is not None and not report.diagnostics["engine"]["skipped"]:
            # The worker persisted the verdict; give this process's L1 a
            # copy so the next repeat is answered at submit.
            self._runner.cache.put_verdict(job.key, report, persist=False)
        self._finish(job, JobState.DONE, report=report)

    def _dispatch_failed(self, job: Job, pool: Any, error: Exception) -> None:
        """Resolve a job whose dispatch returned no cell.

        A broken pool is healed, then the job is retried within its budget
        (:meth:`_retry_or_fail`); any other failure (an unpicklable
        payload, ...) fails the job.
        """
        message = f"{type(error).__name__}: {error}"
        if isinstance(error, BrokenExecutor):
            self._heal(pool)
            self._retry_or_fail(job, message)
        else:
            self._finish(job, JobState.FAILED, error=message)

    async def _worker(self) -> None:
        """One worker coroutine: pull jobs, execute on the pool, resolve.

        Every dispatch goes through :meth:`_run_job`.  A dispatch that dies
        with :class:`~concurrent.futures.BrokenExecutor` (a SIGKILLed or
        crashed pool worker takes the whole pool down) heals the pool and
        re-queues its job; the next dispatch rebuilds the pool with the
        same worker bootstrap.
        """
        while True:
            _, _, job_id = await self._queue.get()
            try:
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.QUEUED:
                    continue  # ghost: cancelled (or evicted) while waiting
                self._n_queued -= 1
                job.state = JobState.RUNNING
                job.started_at = time.time()
                self._journal_started(job)
                await self._run_job(job)
            finally:
                self._queue.task_done()

    def _finish(
        self,
        job: Job,
        state: JobState,
        report: Optional[PassivityReport] = None,
        error: Optional[str] = None,
    ) -> None:
        """Resolve a job (and its coalesced followers) — loop thread only."""
        job.state = state
        job.finished_at = time.time()
        job.report = report
        job.error = error
        if (
            self._incremental
            and state is JobState.DONE
            and report is not None
        ):
            engine = report.diagnostics.get("engine", {})
            if not (
                engine.get("incremental")
                or engine.get("skipped")
                or engine.get("verdict_cached")
            ):
                # Only a cold-run system may become the family's warm-start
                # root: an incrementally certified child — or a cached
                # verdict — brings no pencil factors, so warm-starting from
                # it would always fall back.
                self._family_latest[family_key(job.system)] = job.system
        if self._inflight.get(job.key) == job.job_id:
            del self._inflight[job.key]
        self._release(job, state)
        for follower_id in job.followers:
            follower = self._jobs.get(follower_id)
            if follower is None or follower.state.is_terminal:
                continue
            follower.state = state
            follower.finished_at = job.finished_at
            follower.report = report
            follower.error = error
            self._release(follower, state)
        job.followers = []
        if job.scenario_id is not None:
            self._scenario_on_finish(job, state, report, error)

    def _release(self, job: Job, state: JobState) -> None:
        """Make one resolved job durable, then release its waiters.

        Durable before visible: a crash after a client saw the result never
        replays the job.  The record goes to the store before the journal's
        ``finished`` line, so a crash between the two leaves a job that
        replay closes from its record rather than one it has lost.
        """
        self._tally[_TERMINAL_TALLIES[state]] += 1
        self._remember(job)
        if self._store is not None and state is JobState.DONE:
            self._persist_job(job)
        self._journal_finished(job.job_id, state)
        job.done_event.set()

    def _remember(self, job: Job) -> None:
        """Keep the terminal job pollable, evicting beyond ``max_history``.

        Evicted jobs also drop their persisted store record, so the store's
        ``jobs/`` directory tracks the bounded history instead of growing
        for the lifetime of the deployment.
        """
        self._history.append(job.job_id)
        if self._max_history is None:
            return
        while len(self._history) > self._max_history:
            evicted = self._history.pop(0)
            self._jobs.pop(evicted, None)
            if self._store is not None:
                self._store.delete_job_record(evicted)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _call(self, coroutine) -> Any:
        """Run a coroutine on the loop thread and return its result."""
        if self._loop is None or self._closed:
            raise ServiceError("service is not running (call start() first)")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def _get(self, job_id: str) -> Job:
        """Look up a job record or raise :class:`UnknownJobError`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown job id {job_id!r} (never submitted, or evicted "
                f"from the result history)"
            )
        return job

    def status(self, job_id: str) -> JobStatus:
        """Snapshot the job's scheduling state.

        Raises
        ------
        UnknownJobError
            When no job with this id exists (or it was evicted).
        """
        if self._loop is not None and not self._closed:
            return self._call(self._status(job_id))
        # Closed service: records are frozen, read directly.
        return self._get(job_id).snapshot()

    async def _status(self, job_id: str) -> JobStatus:
        return self._get(job_id).snapshot()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True when it finished in time."""
        return self._get(job_id).done_event.wait(timeout)

    def result(
        self, job_id: str, timeout: Optional[float] = 0.0
    ) -> PassivityReport:
        """Return the job's :class:`~repro.passivity.PassivityReport`.

        The default is poll-style (``timeout=0``: raise immediately when the
        job is still pending); pass a positive timeout — or ``None`` to wait
        forever — for blocking fetches (what :meth:`JobHandle.result` does).

        Raises
        ------
        UnknownJobError
            When no job with this id exists (or it was evicted).
        JobNotReadyError
            When the job has not finished within ``timeout``.
        JobCancelledError
            When the job was cancelled.
        JobFailedError
            When the job raised or timed out on the service side.
        """
        job = self._get(job_id)
        # The event, not the state: a job turns terminal before its journal
        # line and record are written, and is released only after them.
        if not job.done_event.wait(None if timeout is None else max(timeout, 0.0)):
            raise JobNotReadyError(
                f"job {job_id} is {job.state.value}; poll again later"
            )
        if job.state is JobState.CANCELLED:
            raise JobCancelledError(f"job {job_id} was cancelled: {job.error}")
        if job.state in (JobState.FAILED, JobState.TIMED_OUT):
            raise JobFailedError(f"job {job_id} {job.state.value}: {job.error}")
        return job.report

    def trace(self, job_id: str) -> Dict[str, Any]:
        """Return the job's pipeline trace (``GET /jobs/<id>/trace``).

        The trace is the span forest the dispatching worker assembled —
        queue wait and the executor-side stages (cache outcomes, ordered QZ,
        Riccati refinement) recorded *inside* the worker thread or process
        — as a plain JSON-able dict:
        ``{"job_id", "state", "spans"}`` with ``spans`` in the
        :meth:`~repro.obs.JobTrace.to_jsonable` wire shape.  A job answered
        at ``submit`` from a cached verdict holds only its ``cache.verdict``
        span.  ``spans`` is empty for the other jobs that resolved without
        dispatching (cancelled while queued, coalesced duplicates adopt
        their primary's verdict but not its trace) and for jobs run with
        the plane disabled.

        Raises
        ------
        UnknownJobError
            When no job with this id exists (or it was evicted).
        JobNotReadyError
            While the job is still queued or running (the HTTP front-end
            answers 202) — a partial trace is never served.
        """
        if self._loop is not None and not self._closed:
            return self._call(self._trace(job_id))
        return self._trace_snapshot(self._get(job_id))

    async def _trace(self, job_id: str) -> Dict[str, Any]:
        return self._trace_snapshot(self._get(job_id))

    @staticmethod
    def _trace_snapshot(job: Job) -> Dict[str, Any]:
        """JSON-able trace view of a terminal job (raises when pending)."""
        if not job.state.is_terminal:
            raise JobNotReadyError(
                f"job {job.job_id} is {job.state.value}; "
                f"its trace is served once the job is terminal"
            )
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "spans": list(job.trace or []),
        }

    def metrics_text(self) -> str:
        """Render the observability plane as Prometheus exposition text.

        Backs ``GET /metrics``.  Refreshes the service-level gauges, one
        per :data:`_GAUGES` entry (queue depth and wait, running jobs,
        lifetime counters, cache counters, journal lag), from a fresh
        :meth:`stats` snapshot, then
        renders the process-wide :data:`~repro.obs.metrics.METRICS`
        registry — which also carries the per-stage latency histograms
        every :func:`~repro.obs.trace_span` feeds — in text format 0.0.4.
        """
        stats = self.stats()
        values = {**vars(stats), **{f"cache.{k}": v for k, v in stats.cache.items()}}
        for name, (family, help_text) in _GAUGES.items():
            METRICS.gauge(family, values[name], help=help_text)
        return METRICS.render_prometheus()

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued (or coalesced) job.

        Returns True when the job transitioned to ``CANCELLED``; False when
        it is already running or terminal (a running test cannot be
        interrupted).  Cancelling a primary with live coalesced followers
        promotes the first follower to a fresh queue entry so the other
        waiters still get their report.

        Raises
        ------
        UnknownJobError
            When no job with this id exists (or it was evicted).
        """
        return self._call(self._cancel(job_id))

    async def _cancel(self, job_id: str) -> bool:
        job = self._get(job_id)
        if job.state is not JobState.QUEUED:
            return False
        if job.coalesced_into is None:
            # A primary occupied a queue slot (its queue tuple lives on as
            # a ghost a worker will skip); a coalesced follower never did.
            self._n_queued -= 1
        followers = [
            fid
            for fid in job.followers
            if fid in self._jobs and not self._jobs[fid].state.is_terminal
        ]
        job.followers = []
        self._finish(job, JobState.CANCELLED, error="cancelled by client")
        if followers:
            promoted = self._jobs[followers[0]]
            promoted.coalesced_into = None
            promoted.followers = followers[1:]
            for fid in promoted.followers:
                self._jobs[fid].coalesced_into = promoted.job_id
            self._inflight[promoted.key] = promoted.job_id
            self._n_queued += 1
            await self._queue.put((promoted.priority, promoted.seq, promoted.job_id))
        return True

    def health(self) -> Dict[str, Any]:
        """Liveness snapshot for the admin plane (``GET /healthz``).

        Deliberately **lock-free and loop-free**: every field is a plain
        attribute read, so the probe keeps answering even when the event
        loop is wedged — exactly when an operator needs it.  The snapshot
        is therefore mildly racy (counters may be one tick stale), which is
        fine for a health check.

        Returns a dict with ``state`` (``"alive"`` or ``"dead"`` — the
        HTTP front-end maps ``dead`` to 503), ``ok``, executor liveness
        (``last_heartbeat`` / ``heartbeat_age_seconds`` from the
        supervision probe, process executor only), ``queue_depth``,
        ``pool_restarts``, and the journal's ``pending``/``lag``.
        """
        now = time.time()
        alive = not self._closed and self._loop is not None
        heartbeat = self._last_heartbeat
        age: Optional[float] = None
        if heartbeat is not None:
            age = max(0.0, now - heartbeat)
        if alive and self._executor_kind == "process":
            # A pool that has not proven itself within the staleness bound
            # is presumed hung; thread executors share the loop's fate.
            if age is None or age > self._dead_after:
                alive = False
        journal: Dict[str, Any] = {"enabled": self._journal is not None}
        if self._journal is not None:
            try:
                journal["path"] = str(self._journal.path)
                journal["pending"] = len(self._journal)
                journal["lag"] = self._journal.lag
            except Exception:  # noqa: BLE001 - health must never raise
                pass
        return {
            "state": "alive" if alive else "dead",
            "ok": alive,
            "executor": self._executor_kind,
            "uptime_seconds": (
                now - self._started_at if self._started_at is not None else 0.0
            ),
            "queue_depth": self._n_queued,
            "pool_restarts": self._pool_restarts,
            "last_heartbeat": heartbeat,
            "heartbeat_age_seconds": age,
            "dead_after_seconds": self._dead_after,
            "journal": journal,
        }

    def stats(self) -> ServiceStats:
        """Snapshot the service telemetry (queue depth, counters, cache)."""
        if self._loop is not None and not self._closed:
            return self._call(self._stats())
        return self._build_stats()

    async def _stats(self) -> ServiceStats:
        return self._build_stats()

    def _build_stats(self) -> ServiceStats:
        """Assemble the :class:`ServiceStats` snapshot (loop thread)."""
        now = time.time()
        uptime = now - self._started_at if self._started_at is not None else 0.0
        # Like queue_depth below: a property of the queue *now*, recomputed
        # from the job table so held scenario corners count and cancelled
        # ghosts do not.
        queue_wait_max = max(
            (
                now - job.submitted_at
                for job in self._jobs.values()
                if job.state is JobState.QUEUED and job.coalesced_into is None
            ),
            default=0.0,
        )
        journal_lag = 0
        if self._journal is not None:
            try:
                journal_lag = self._journal.lag
            except Exception:  # noqa: BLE001 - telemetry must never raise
                journal_lag = 0
        # The runner-cache delta plus (process mode) the merged worker-side
        # deltas: one counter set regardless of execution mode.
        cache_delta = self._runner.cache.stats_since(self._cache_baseline)
        cache_delta.merge(self._worker_stats)
        cache = {name: getattr(cache_delta, name) for name in _CACHE_FIELDS}
        cache["by_kind"] = cache_delta.by_kind
        return ServiceStats(
            workers=self._max_workers,
            # Recomputed from the job table at snapshot time, not read from
            # the running _n_queued tally: the tally tracks only jobs that
            # occupy asyncio-queue slots (the max_queue currency), so it
            # never counts held scenario corners, which *are* waiting work.
            # (It is also not queue.qsize(): the asyncio queue can hold
            # ghost tuples for already-cancelled jobs.)
            queue_depth=sum(
                1
                for job in self._jobs.values()
                if job.state is JobState.QUEUED and job.coalesced_into is None
            ),
            running=sum(
                1 for job in self._jobs.values() if job.state is JobState.RUNNING
            ),
            **self._tally,
            uptime_seconds=uptime,
            throughput_per_second=self._tally["completed"] / uptime if uptime > 0 else 0.0,
            executor=self._executor_kind,
            queue_capacity=self._max_queue,
            pool_restarts=self._pool_restarts,
            incremental_hits=cache_delta.incremental_hits,
            incremental_fallbacks=cache_delta.incremental_fallbacks,
            update_residual_max=cache_delta.update_residual_max,
            queue_wait_max=max(0.0, queue_wait_max),
            journal_lag=journal_lag,
            stages=METRICS.stage_quantiles(),
            cache=cache,
        )


def _ignore_outcome(future) -> None:
    """Swallow the late result/exception of an abandoned (timed-out) task."""
    try:
        future.exception()
    except BaseException:  # noqa: BLE001 - CancelledError is a BaseException
        pass
