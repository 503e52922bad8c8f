"""``corner_sweep``: process-corner families through the incremental tier.

One op is one corner verdict; its latency runs from ``BatchRunner.run()``
start to that corner's ``progress`` callback.  Every run call is
``BatchRunner(backend="process", max_workers=2, incremental="sweep")
.run(family, ["auto"])`` on one order-204 ``rlc_grid_corners(9, 12, ...)``
family.  The families repeat a fixed cycle: two at ``scale=2e-4``, where
every corner after the root is certified by an incremental update, then one
at ``scale=2e-2``, where every corner falls back to the cold pipeline.  The
median sits on the update path and the tail on the fallback path, so a change
that trades one path for the other shows.  Runs stop on a cycle boundary, so
every run has the same mix.

The traced run alternates untraced and traced cycles.  A traced family also
reports the runner's outcome fields and is replayed serially to time the
update and fallback paths one cell at a time.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

from repro import BatchRunner
from repro.circuits import rlc_grid_corners

from common import Outcome, TreeMemory, median

GRID = (9, 12)
TINY_GRID = (3, 4)
WORKERS = 2
#: (kind, scale, corners) of one cycle, in run order.
CYCLE = (("hit", 2e-4, 12), ("hit", 2e-4, 12), ("fallback", 2e-2, 3))
TINY_CYCLE = (("hit", 2e-4, 4), ("fallback", 2e-2, 2))
#: Distinct cycles generated per run and then repeated.  Every run call
#: builds a fresh runner, cache and pool, so a repeated family is as cold as
#: a new one, and the driver (whose pages every forked worker maps) stays
#: small.
DISTINCT_CYCLES = 3

LAYER_UNITS = {
    "engine.runner.run_s": "s",
    "engine.runner.first_verdict_s": "s",
    "engine.runner.parallel_efficiency": "ratio",
    "engine.runner.n_chains": "count",
    "engine.runner.chained_jobs": "count",
    "engine.shm.bytes": "bytes",
    "engine.cache.incremental_hits": "count",
    "engine.cache.incremental_fallbacks": "count",
    "engine.cache.incremental_hit_ratio": "ratio",
    "engine.cache.factorizations": "count",
    "engine.incremental.hit_s": "s",
    "engine.incremental.fallback_s": "s",
}


class Setup:
    """The run's corner families, generated up front, plus a warmed pool path."""

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        rows, cols = TINY_GRID if tiny else GRID
        cycle = TINY_CYCLE if tiny else CYCLE
        self.cycles = []
        for c in range(DISTINCT_CYCLES):
            families = []
            for f, (kind, scale, corners) in enumerate(cycle):
                family_seed = (seed * 1000 + c * len(cycle) + f) * 64
                families.append(
                    (kind, rlc_grid_corners(rows, cols, corners, scale=scale, seed=family_seed))
                )
            self.cycles.append(families)
        warm = rlc_grid_corners(rows, cols, 3, scale=2e-4, seed=(seed * 1000 + 999) * 64)
        _runner().run(warm, ["auto"])

    def close(self) -> None:
        """Nothing persistent: each run call owns and shuts down its pool."""


def _runner(backend: str = "process") -> BatchRunner:
    return BatchRunner(backend=backend, max_workers=WORKERS, incremental="sweep")


def _is_update(result) -> bool:
    engine = result.report.diagnostics.get("engine", {})
    return bool(engine.get("incremental"))


def measure(setup: Setup, seconds: float, trace: bool, memory: TreeMemory) -> Outcome:
    """Run whole cycles of corner families until ``seconds`` have passed."""
    outcome = Outcome()
    rows: List[Dict[str, float]] = []
    path_seconds: Dict[str, List[float]] = {"hit": [], "fallback": []}
    traced_latencies: List[float] = []
    untraced_latencies: List[float] = []
    traced_cycles = 0
    path_mismatches = 0
    start = time.perf_counter()
    for c in itertools.count():
        if time.perf_counter() - start >= seconds:
            break
        families = setup.cycles[c % len(setup.cycles)]
        traced_cycle = trace and c % 2 == 1
        traced_cycles += traced_cycle
        for kind, family in families:
            outcome.attempted += len(family)
            arrivals: List[float] = []

            def progress(result, arrivals=arrivals):
                if not arrivals:
                    memory.sample()  # the pool is still up
                arrivals.append(time.perf_counter())

            t0 = time.perf_counter()
            try:
                run = _runner().run(family, ["auto"], progress=progress)
            except Exception as error:  # noqa: BLE001 - the whole family failed
                for index in range(len(family)):
                    outcome.fail(f"{kind} family corner {index}: {type(error).__name__}: {error}")
                continue
            latencies = [arrival - t0 for arrival in arrivals]
            for result in run.results:
                label = f"{kind} family corner {result.system_index}"
                if result.report is None:
                    outcome.fail(f"{label}: {result.error or 'timed out'}")
                elif not result.report.is_passive:
                    outcome.fail(f"{label}: not passive ({result.report.failure_reason})")
                elif result.system_index > 0 and _is_update(result) != (kind == "hit"):
                    path_mismatches += 1
            outcome.latencies.extend(latencies)
            (traced_latencies if traced_cycle else untraced_latencies).extend(latencies)
            if traced_cycle:
                rows.append(_runner_row(run, t0, arrivals))
                _replay_serially(family, kind, path_seconds, outcome)
    outcome.elapsed = time.perf_counter() - start
    outcome.notes["path_mismatches"] = path_mismatches
    if trace and rows:
        outcome.layers = _layers(rows, path_seconds, max(traced_cycles, 1))
        outcome.layers["trace_overhead_s"] = median(traced_latencies) - median(untraced_latencies)
    return outcome


def _runner_row(run, t0: float, arrivals: List[float]) -> Dict[str, float]:
    """The fields of one traced family's ``BatchOutcome``."""
    stats = run.cache_stats
    return {
        "run_s": run.total_seconds,
        "first_verdict_s": (arrivals[0] if arrivals else t0 + run.total_seconds) - t0,
        "cell_s": sum(r.seconds or 0.0 for r in run.results),
        "n_chains": run.n_chains,
        "chained_jobs": run.n_chained_jobs,
        "shm_bytes": run.shm_bytes,
        "hits": stats.incremental_hits,
        "fallbacks": stats.incremental_fallbacks,
        "factorizations": stats.factorizations,
    }


def _replay_serially(family, kind: str, path_seconds, outcome: Outcome) -> None:
    """Time the same cells one at a time, without a pool, by path taken."""
    replay = _runner("serial").run(family, ["auto"])
    for result in replay.results[1:]:
        if result.report is None or not result.report.is_passive:
            outcome.fail(f"serial replay of {kind} corner {result.system_index} disagrees")
            continue
        path_seconds["hit" if _is_update(result) else "fallback"].append(result.seconds)


def _layers(rows, path_seconds, n_cycles: int) -> Dict[str, float]:
    """Per-layer metrics: times are medians per family, counts per cycle."""
    def total(key):
        return sum(row[key] for row in rows)

    hits, fallbacks = total("hits"), total("fallbacks")
    return {
        "engine.runner.run_s": median([row["run_s"] for row in rows]),
        "engine.runner.first_verdict_s": median([row["first_verdict_s"] for row in rows]),
        "engine.runner.parallel_efficiency": total("cell_s") / (total("run_s") * WORKERS),
        "engine.runner.n_chains": total("n_chains") / n_cycles,
        "engine.runner.chained_jobs": total("chained_jobs") / n_cycles,
        "engine.shm.bytes": total("shm_bytes") / n_cycles,
        "engine.cache.incremental_hits": hits / n_cycles,
        "engine.cache.incremental_fallbacks": fallbacks / n_cycles,
        "engine.cache.incremental_hit_ratio": hits / (hits + fallbacks) if hits + fallbacks else 0.0,
        "engine.cache.factorizations": total("factorizations") / n_cycles,
        "engine.incremental.hit_s": median(path_seconds["hit"]),
        "engine.incremental.fallback_s": median(path_seconds["fallback"]),
    }
