"""``service_mixed``: mixed client traffic against the process-pool service.

The service is ``PassivityService(executor="process", max_workers=2,
store=<tmp dir>, journal=True)``.  Two client threads each keep a fixed
window of submissions in flight (a closed loop), so the queue fills and
micro-batching can engage.  Each thread repeats one fixed pattern of three
op classes:

* cold jobs: distinct ``paper_benchmark_model(COLD_ORDER)`` systems, the
  largest class;
* hot jobs: repeats of a hot set certified through the store during set-up,
  so they hit the L2 store (or the worker's L1) whichever worker runs them;
* scenario corners: small ``corners`` scenarios, one op per corner, timed
  from ``submit_scenario`` to that corner's event.

Jobs and scenarios carry one timeout, because micro-batching only groups
equal timeouts: all three classes then share batches and see one queue.

One op is one job or one scenario corner.  No duplicate job is ever in
flight: cold systems are distinct, each thread cycles through its own hot
subset and waits for a hot job's previous run before resubmitting it, and
scenario cells bypass dedup.  The traced run reads ``status()`` timestamps
for the ops of every other pattern and reports the service's counters.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List

from repro import PassivityService
from repro.circuits import paper_benchmark_model, rlc_grid
from repro.service import ScenarioSpec

from common import SCRATCH, Outcome, TreeMemory, median

WORKERS = 2
CLIENTS = 2
#: Submissions each client keeps in flight.
WINDOW = 4
COLD_ORDER = 80
HOT_SET = 8
SCENARIO_GRID = (4, 5)
SCENARIO_CORNERS = 2
#: One client's submission pattern, repeated: 8 cold, 3 hot, 1 scenario.
PATTERN = ("cold", "cold", "hot", "cold", "cold", "hot",
           "cold", "cold", "hot", "cold", "cold", "scenario")
#: Generous cold-job budget per second of run time (~13/s are used on two
#: cores), so a faster machine does not run out of distinct systems.
COLD_PER_SECOND = 40
TINY_ORDER = 26
TINY_GRID = (3, 3)
POLL_SECONDS = 0.002
JOB_TIMEOUT = 120.0

LAYER_UNITS = {
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.batches": "count",
    "service.batch_occupancy": "jobs",
    "service.shm_bytes": "bytes",
    "service.deduplicated": "count",
    "service.incremental_hits": "count",
    "service.incremental_fallbacks": "count",
    "service.scenario.first_event_s": "s",
    "store.hit_ratio": "ratio",
    "service.pool_restarts": "count",
    "service.retried": "count",
}

class Setup:
    """A started service with a certified hot set, and every input of the run."""

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        order = TINY_ORDER if tiny else COLD_ORDER
        rows, cols = TINY_GRID if tiny else SCENARIO_GRID
        base = seed * 1_000_000
        count = int(COLD_PER_SECOND * seconds * (10 if tiny else 1)) + 16
        self.cold = [
            paper_benchmark_model(order, n_impulsive_stubs=2, seed=base + k).system
            for k in range(count)
        ]
        self.hot = [
            paper_benchmark_model(order, n_impulsive_stubs=2, seed=base + 900_000 + k).system
            for k in range(HOT_SET)
        ]
        self.scenario_base = rlc_grid(
            rows, cols, series_resistance=0.8, shunt_conductance=0.1, sparse=False
        ).system
        self.scenario_seed = base
        os.makedirs(SCRATCH, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="service-", dir=SCRATCH)
        self.service = PassivityService(
            executor="process", max_workers=WORKERS,
            store=os.path.join(self.tmp, "store"), journal=True,
        )
        try:
            handles = [self.service.submit(system) for system in self.hot]
            for handle in handles:
                if not handle.result(timeout=JOB_TIMEOUT).is_passive:
                    raise RuntimeError("a hot-set model is not passive")
            warm = self.service.submit_scenario(self.scenario(-1))
            if not warm.wait(JOB_TIMEOUT):
                raise RuntimeError("warm-up scenario did not finish")
        except BaseException:
            self.close()
            raise

    def scenario(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario spec of the run (distinct corners each)."""
        return ScenarioSpec(
            family="corners", system=self.scenario_base, n_corners=SCENARIO_CORNERS,
            scale=2e-4, seed=self.scenario_seed + 64 * (index + 1), timeout=JOB_TIMEOUT,
        )

    def close(self) -> None:
        """Stop the service and its pool, then delete the store and journal."""
        try:
            self.service.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


class _Client:
    """One closed-loop client thread's state."""

    def __init__(self, index: int, setup: Setup, trace: bool) -> None:
        self.index = index
        self.setup = setup
        self.trace = trace
        self.cold = setup.cold[index::CLIENTS]
        self.hot = setup.hot[index::CLIENTS]
        self.counters = {"cold": 0, "hot": 0, "scenario": 0, "op": 0}
        self.outcome = Outcome()
        self.traced_latencies: List[float] = []
        self.untraced_latencies: List[float] = []
        self.submit_s: List[float] = []
        self.queue_wait_s: List[float] = []
        self.exec_s: List[float] = []
        self.first_event_s: List[float] = []
        self.hot_done = 0
        self.hot_warm = 0
        self.hot_inflight: Dict[int, object] = {}
        self.exhausted = False

    # -- submission -----------------------------------------------------
    def submit_next(self, inflight: list) -> None:
        position = self.counters["op"]
        self.counters["op"] += 1
        kind = PATTERN[position % len(PATTERN)]
        service = self.setup.service
        # Whole patterns alternate, so traced and untraced ops have one mix.
        traced = self.trace and (position // len(PATTERN)) % 2 == 1
        if kind == "scenario":
            spec = self.setup.scenario(self.index + CLIENTS * self.counters["scenario"])
            self.counters["scenario"] += 1
            t0 = time.perf_counter()
            handle = service.submit_scenario(spec)
            self.submit_s.append(time.perf_counter() - t0)
            subscription = service.subscribe_scenario(handle.scenario_id)
            self.outcome.attempted += SCENARIO_CORNERS
            inflight.append({"kind": kind, "t0": t0, "sub": subscription,
                             "seen": 0, "traced": traced})
            return
        if kind == "cold":
            position = self.counters["cold"]
            self.counters["cold"] += 1
            if position >= len(self.cold):
                self.outcome.fail("ran out of generated cold systems before the deadline")
                self.exhausted = True
                return
            system = self.cold[position]
            slot = None
        else:
            slot = self.counters["hot"] % len(self.hot)
            self.counters["hot"] += 1
            previous = self.hot_inflight.get(slot)
            if previous is not None:
                # Never two runs of one hot system in flight: dedup would
                # coalesce them, and whether it does depends on timing.
                self._finish_job(previous, inflight, wait=True)
            system = self.hot[slot]
        t0 = time.perf_counter()
        handle = service.submit(system, timeout=JOB_TIMEOUT)
        self.submit_s.append(time.perf_counter() - t0)
        self.outcome.attempted += 1
        entry = {"kind": kind, "t0": t0, "handle": handle, "slot": slot, "traced": traced}
        if slot is not None:
            self.hot_inflight[slot] = entry
        inflight.append(entry)

    # -- completion -------------------------------------------------------
    def _record(self, entry, latency: float) -> None:
        self.outcome.latencies.append(latency)
        (self.traced_latencies if entry["traced"] else self.untraced_latencies).append(latency)

    def _finish_job(self, entry, inflight: list, wait: bool = False) -> bool:
        handle = entry["handle"]
        if wait:
            handle.wait(JOB_TIMEOUT)
        elif not handle.wait(0):
            return False
        latency = time.perf_counter() - entry["t0"]
        inflight.remove(entry)
        if entry["slot"] is not None:
            self.hot_inflight.pop(entry["slot"], None)
        label = f"{entry['kind']} job {handle.job_id}"
        try:
            report = handle.result(timeout=0.0)
        except Exception as error:  # noqa: BLE001 - failed/timed-out job
            self.outcome.fail(f"{label}: {type(error).__name__}: {error}")
            return True
        self._record(entry, latency)
        if not report.is_passive:
            self.outcome.fail(f"{label}: not passive ({report.failure_reason})")
        if entry["kind"] == "hot":
            self.hot_done += 1
            engine = report.diagnostics.get("engine", {})
            self.hot_warm += engine.get("factorizations") == 0
        if entry["traced"]:
            status = handle.status()
            if status.started_at is not None and status.finished_at is not None:
                self.queue_wait_s.append(status.started_at - status.submitted_at)
                self.exec_s.append(status.finished_at - status.started_at)
        return True

    def _drain_scenario(self, entry, inflight: list) -> bool:
        progressed = False
        subscription = entry["sub"]
        while True:
            event = subscription.get(timeout=0)
            if event is None:
                return progressed
            progressed = True
            now = time.perf_counter()
            if event.event == "corner":
                data = event.data
                entry["seen"] += 1
                if entry["seen"] == 1 and entry["traced"]:
                    self.first_event_s.append(now - entry["t0"])
                if data.get("state") != "done":
                    self.outcome.fail(f"scenario corner {data.get('job_id')}: {data.get('error')}")
                else:
                    self._record(entry, now - entry["t0"])
                    if not data.get("is_passive"):
                        self.outcome.fail(f"scenario corner {data.get('job_id')}: not passive")
            elif event.event in ("snapshot", "cancelled"):
                self.outcome.fail(f"scenario stream delivered {event.event!r}")
            if event.terminal:
                missing = SCENARIO_CORNERS - entry["seen"]
                for _ in range(max(0, missing)):
                    self.outcome.fail("scenario ended without a corner event")
                inflight.remove(entry)
                return True

    def run(self, start: float, seconds: float) -> None:
        inflight: list = []
        while True:
            if time.perf_counter() - start < seconds:
                while len(inflight) < WINDOW and not self.exhausted:
                    self.submit_next(inflight)
            elif not inflight:
                break
            progressed = False
            for entry in list(inflight):
                if entry not in inflight:
                    continue
                if entry["kind"] == "scenario":
                    progressed |= self._drain_scenario(entry, inflight)
                else:
                    progressed |= self._finish_job(entry, inflight)
            if not progressed:
                time.sleep(POLL_SECONDS)


def measure(setup: Setup, seconds: float, trace: bool, memory: TreeMemory) -> Outcome:
    """Two closed-loop clients for ``seconds``, then drain what is in flight."""
    service = setup.service
    before = service.stats()
    clients = [_Client(i, setup, trace) for i in range(CLIENTS)]
    errors: List[BaseException] = []

    def body(client: _Client) -> None:
        try:
            client.run(start, seconds)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(c,), daemon=True) for c in clients]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        memory.sample()
        for thread in threads:
            thread.join(timeout=0.5)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    memory.sample()
    after = service.stats()

    outcome = Outcome(elapsed=elapsed)
    for client in clients:
        outcome.latencies.extend(client.outcome.latencies)
        outcome.attempted += client.outcome.attempted
        outcome.failures.extend(client.outcome.failures)
    hot_done = sum(c.hot_done for c in clients)
    outcome.notes["hot_jobs"] = hot_done
    outcome.notes["service"] = {
        name: getattr(after, name) - getattr(before, name)
        for name in ("failed", "timed_out", "deduplicated", "batches", "batched_jobs",
                     "incremental_hits", "incremental_fallbacks", "pool_restarts", "retried")
    }
    if trace:
        def pooled(name):
            return [value for c in clients for value in getattr(c, name)]

        batches = after.batches - before.batches
        batched_jobs = after.batched_jobs - before.batched_jobs
        outcome.layers = {
            "service.submit_s": median(pooled("submit_s")),
            "service.queue_wait_s": median(pooled("queue_wait_s")),
            "service.exec_s": median(pooled("exec_s")),
            "service.batches": batches,
            "service.batch_occupancy": batched_jobs / batches if batches else 0.0,
            "service.shm_bytes": after.shm_bytes - before.shm_bytes,
            "service.deduplicated": after.deduplicated - before.deduplicated,
            "service.incremental_hits": after.incremental_hits - before.incremental_hits,
            "service.incremental_fallbacks": (
                after.incremental_fallbacks - before.incremental_fallbacks
            ),
            "service.scenario.first_event_s": median(pooled("first_event_s")),
            "store.hit_ratio": sum(c.hot_warm for c in clients) / hot_done if hot_done else 0.0,
            "service.pool_restarts": after.pool_restarts - before.pool_restarts,
            "service.retried": after.retried - before.retried,
            "trace_overhead_s": (
                median(pooled("traced_latencies")) - median(pooled("untraced_latencies"))
            ),
        }
    return outcome
