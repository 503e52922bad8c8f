"""Cache counters: read under the cache's lock, counted with tracing off.

In thread mode every cell records into one shared cache while ``run_cells``
and ``PassivityService.stats`` read its counters.  A reader that iterated
them unlocked raised "dictionary changed size during iteration" whenever a
writer counted a kind for the first time; fast GIL switching and a writer
that counts a new kind on every lookup make that window easy to hit.  The
public ``cache.stats`` attributes, read with no lock, copy the mapping
before they iterate it, so they never fail either.

Counters are not spans: with the observability plane switched off, every
backend and executor still counts the same factorizations.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.circuits import rlc_ladder
from repro.config import DEFAULT_TOLERANCES
from repro.engine import BatchRunner, DecompositionCache
from repro.obs import set_enabled
from repro.engine.executor import CellTask, run_cells
from repro.service import PassivityService

#: Seconds each test keeps reading while the writer records.
READ_SECONDS = 1.0


@pytest.fixture()
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _read_while_recording(cache: DecompositionCache, read) -> None:
    system = rlc_ladder(3).system
    stop = threading.Event()

    def record_new_kinds() -> None:
        number = 0
        while not stop.is_set():
            cache.get_or_compute(system, f"kind-{number}", lambda: number)
            number += 1

    writer = threading.Thread(target=record_new_kinds, daemon=True)
    writer.start()
    deadline = time.perf_counter() + READ_SECONDS
    try:
        while time.perf_counter() < deadline:
            read()
    finally:
        stop.set()
        writer.join()


def test_run_cells_reads_a_shared_cache_under_its_lock(fast_switching):
    cache = DecompositionCache(maxsize=None)
    empty = CellTask([], [], DEFAULT_TOLERANCES, None)
    _read_while_recording(cache, lambda: run_cells(empty, cache))


def test_service_stats_read_the_runner_cache_under_its_lock(fast_switching):
    runner = BatchRunner(backend="thread")
    with PassivityService(runner, max_workers=1, executor="thread") as service:
        service.start()
        _read_while_recording(runner.cache, service.stats)


def test_public_counter_reads_of_a_live_cache_never_fail(fast_switching):
    cache = DecompositionCache(maxsize=None)
    _read_while_recording(
        cache,
        lambda: (cache.stats.factorizations, cache.stats.by_kind, cache.stats.snapshot()),
    )


@pytest.fixture()
def tracing_off():
    previous = set_enabled(False)
    yield
    set_enabled(previous)


def test_counters_count_with_tracing_off(tracing_off):
    fleet = [rlc_ladder(order).system for order in (4, 5)]
    factorizations = {
        backend: BatchRunner(backend=backend, max_workers=2)
        .run(fleet, methods=("gare", "weierstrass"))
        .cache_stats.factorizations
        for backend in ("serial", "thread", "process")
    }
    assert factorizations["serial"] > 0
    assert len(set(factorizations.values())) == 1, factorizations
    for executor in ("thread", "process"):
        with PassivityService(max_workers=1, executor=executor) as service:
            service.submit(rlc_ladder(5).system, method="gare").result(timeout=60.0)
            stats = service.stats()
        assert stats.completed == 1, executor
        assert stats.cache["factorizations"] > 0, executor
