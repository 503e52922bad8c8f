"""Batched-execution benchmark: micro-batch throughput of the process pool.

A fleet of small (order ≤ 100) dense systems is swept through
:class:`~repro.engine.BatchRunner`'s process backend with the
``batch_small_systems`` policy off vs. on — jobs per second for each.  On
real parallel hardware (``cores > 1``) batching must buy at least ``2x``
jobs/s: per-system dispatch overhead dominates sub-ms jobs, and grouping
amortizes it.

Everything is written to a machine-readable ``BENCH_batched.json``
(benchmark-trajectory artifact, same conventions as ``BENCH_service.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_batched.py            # default
    PYTHONPATH=src python benchmarks/bench_batched.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_batched.py --check    # assert targets
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List

import numpy as np
import scipy

from repro.circuits import rlc_ladder
from repro.engine.runner import BatchRunner

SCHEMA_VERSION = 1

#: Micro-batching must at least double small-job throughput (cores > 1).
MIN_BATCH_SPEEDUP = 2.0


def _small_fleet(mode: str) -> List:
    """Small dense systems (order ≤ 100) whose jobs are dispatch-dominated."""
    count = 16 if mode == "smoke" else 32
    return [rlc_ladder(2 + (k % 4)).system for k in range(count)]


def _sweep(systems: List, batch: bool) -> Dict:
    """One process-backend sweep; returns timing + batching telemetry."""
    runner = BatchRunner(
        backend="process",
        batch_small_systems=batch,
        precompute_spectral=False,
    )
    start = time.perf_counter()
    outcome = runner.run(systems, methods=("gare",))
    elapsed = time.perf_counter() - start
    n_jobs = len(outcome.results)
    failed = [r for r in outcome.results if not r.ok]
    return {
        "batch_small_systems": batch,
        "jobs": n_jobs,
        "seconds": elapsed,
        "jobs_per_second": n_jobs / elapsed if elapsed > 0 else 0.0,
        "n_batches": outcome.n_batches,
        "n_batched_jobs": outcome.n_batched_jobs,
        "batch_occupancy": outcome.batch_occupancy,
        "workers": outcome.n_workers,
        "failures": len(failed),
    }


def run_benchmark(mode: str) -> Dict:
    """Run the unbatched and batched sweeps and assemble the JSON document."""
    systems = _small_fleet(mode)
    unbatched = _sweep(systems, batch=False)
    print(
        f"[throughput] unbatched: {unbatched['jobs']} jobs in "
        f"{unbatched['seconds'] * 1e3:.1f} ms "
        f"({unbatched['jobs_per_second']:.1f} jobs/s)"
    )
    batched = _sweep(systems, batch=True)
    print(
        f"[throughput] batched:   {batched['jobs']} jobs in "
        f"{batched['seconds'] * 1e3:.1f} ms "
        f"({batched['jobs_per_second']:.1f} jobs/s, "
        f"{batched['n_batches']} batches, "
        f"occupancy {batched['batch_occupancy']:.1f})"
    )
    speedup = (
        batched["jobs_per_second"] / unbatched["jobs_per_second"]
        if unbatched["jobs_per_second"] > 0
        else None
    )

    return {
        "benchmark": "batched",
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "throughput_target": f">= {MIN_BATCH_SPEEDUP}x jobs/s (cores > 1)",
        "batch_speedup": speedup,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "throughput_rounds": [unbatched, batched],
    }


def main(argv=None) -> int:
    """CLI entry point (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads (seconds)"
    )
    parser.add_argument(
        "--output",
        default="BENCH_batched.json",
        help="path of the machine-readable result file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the speedup target holds",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "default"
    document = run_benchmark(mode)
    with open(args.output, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2)
    print(f"wrote {args.output}")

    if args.check:
        failures = []
        for entry in document["throughput_rounds"]:
            if entry["failures"]:
                failures.append(
                    f"{entry['failures']} job(s) failed in the "
                    f"{'batched' if entry['batch_small_systems'] else 'unbatched'} sweep"
                )
        cores = os.cpu_count() or 1
        speedup = document["batch_speedup"]
        if cores > 1:
            # Real parallel hardware: grouping must amortize dispatch.
            if speedup is None or speedup < MIN_BATCH_SPEEDUP:
                failures.append(
                    f"micro-batching speedup {speedup} below "
                    f"{MIN_BATCH_SPEEDUP}x (cores = {cores})"
                )
        elif speedup is not None and speedup < 0.7:
            # Single-core box: only guard against a regression.
            failures.append(
                f"micro-batching degraded throughput ({speedup}x, single core)"
            )
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
