"""Spectral-context reuse benchmark: the auto path with and without sharing.

Quantifies the compute-once ``SpectralContext`` refactor on dense admissible
workloads (``rlc_grid`` / ``coupled_line_bus`` meshes, order >= 200 in the
default mode).  Three configurations of ``check_passivity(system, "auto")``
are timed per workload:

* ``no_reuse`` — the pre-context behaviour: the structural profile and the
  selected method each run their own spectral analysis (profile without a
  cache, method runner without a cache), re-classifying the pencil three
  times per call.
* ``shared_cold`` — a fresh :class:`DecompositionCache` per call: profile,
  method and reduction share **one** ordered QZ within the call.
* ``shared_warm`` — a persistent cache across calls: after the first call
  every spectral intermediate is a hit and zero factorizations are performed.

Alongside the wall-clock, the script counts the actual pencil factorizations
of each configuration (``repro.bench.QZCounter``: ``scipy.linalg.qz`` /
``ordqz`` and eigenvalue-only ``eigvals(A, E)`` calls), and writes
everything to a machine-readable ``BENCH_spectral.json`` (the repo's first
benchmark-trajectory artifact; future PRs append comparable runs).

Usage::

    PYTHONPATH=src python benchmarks/bench_spectral_reuse.py            # default
    PYTHONPATH=src python benchmarks/bench_spectral_reuse.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_spectral_reuse.py --check    # assert >= 1.5x

``--check`` exits non-zero unless every order >= 200 workload meets the
acceptance target (>= 1.5x speedup from context reuse).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy
import scipy.linalg

from repro.bench import QZCounter
from repro.config import DEFAULT_TOLERANCES
from repro.circuits import coupled_line_bus, rlc_grid
from repro.engine import DecompositionCache, check_passivity, profile_system, select_method

#: Acceptance target of the spectral-context PR.
MIN_SPEEDUP = 1.5

SCHEMA_VERSION = 1


def _run_no_reuse(system) -> object:
    """Emulate the pre-context auto path: profile and method both uncached."""
    tol = DEFAULT_TOLERANCES
    profile = profile_system(system, tol, cache=None)
    spec = select_method(system, tol, profile=profile)
    return spec.run(system, tol=tol, cache=None)


def _run_shared_cold(system) -> object:
    return check_passivity(system, method="auto", cache=DecompositionCache())


def _time_config(
    runner: Callable[[], object], repeats: int
) -> Tuple[float, int, object]:
    """Median wall-clock, QZ count of one representative run, last report."""
    with QZCounter() as counter:
        report = runner()
    qz_calls = counter.total
    seconds: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = runner()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), qz_calls, report


def _workloads(mode: str) -> List[Tuple[str, Callable[[], object]]]:
    if mode == "smoke":
        # CI-sized: the same generators, small enough for a seconds-long run.
        return [
            ("rlc_grid-5x5", lambda: rlc_grid(5, 5, sparse=False).system),
            (
                "coupled_line_bus-2x4",
                lambda: coupled_line_bus(2, 4, sparse=False).system,
            ),
        ]
    grids = [
        # rows=11, cols=11 -> order 11*11 + 10*11 = 231.
        ("rlc_grid-11x11", lambda: rlc_grid(11, 11, sparse=False).system),
        # 4 lines x 17 sections -> order 4 * (3*17 + 1) = 208.
        (
            "coupled_line_bus-4x17",
            lambda: coupled_line_bus(4, 17, sparse=False).system,
        ),
    ]
    if mode == "full":
        grids.append(
            ("rlc_grid-14x14", lambda: rlc_grid(14, 14, sparse=False).system)
        )
    return grids


def run_benchmark(mode: str, repeats: int) -> Dict:
    results = []
    for name, factory in _workloads(mode):
        system = factory()
        entry: Dict = {"name": name, "order": system.order}

        no_reuse_s, no_reuse_qz, report = _time_config(
            lambda: _run_no_reuse(system), repeats
        )
        entry["method"] = report.method
        entry["is_passive"] = bool(report.is_passive)

        cold_s, cold_qz, _ = _time_config(
            lambda: _run_shared_cold(system), repeats
        )

        warm_cache = DecompositionCache()
        check_passivity(system, method="auto", cache=warm_cache)  # populate
        warm_s, warm_qz, warm_report = _time_config(
            lambda: check_passivity(system, method="auto", cache=warm_cache),
            repeats,
        )
        entry["warm_factorizations"] = warm_report.diagnostics["engine"][
            "factorizations"
        ]

        entry["repeats"] = repeats
        entry["seconds"] = {
            "no_reuse": no_reuse_s,
            "shared_cold": cold_s,
            "shared_warm": warm_s,
        }
        entry["qz_calls"] = {
            "no_reuse": no_reuse_qz,
            "shared_cold": cold_qz,
            "shared_warm": warm_qz,
        }
        entry["speedup"] = {
            "cold_vs_no_reuse": no_reuse_s / cold_s if cold_s > 0 else float("inf"),
            "warm_vs_no_reuse": no_reuse_s / warm_s if warm_s > 0 else float("inf"),
        }
        entry["meets_target"] = bool(
            entry["speedup"]["warm_vs_no_reuse"] >= MIN_SPEEDUP
        )
        results.append(entry)
        print(
            f"{name} (order {system.order}, {report.method}): "
            f"no_reuse {no_reuse_s * 1e3:.1f} ms ({no_reuse_qz} QZ) | "
            f"cold {cold_s * 1e3:.1f} ms ({cold_qz} QZ) | "
            f"warm {warm_s * 1e3:.1f} ms ({warm_qz} QZ) | "
            f"speedup cold {entry['speedup']['cold_vs_no_reuse']:.2f}x, "
            f"warm {entry['speedup']['warm_vs_no_reuse']:.2f}x"
        )

    large = [r for r in results if r["order"] >= 200]
    return {
        "benchmark": "spectral_reuse",
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "min_speedup_target": MIN_SPEEDUP,
        "target_scope": "order >= 200 workloads, warm_vs_no_reuse",
        # null when no qualifying workload ran (smoke mode): the target was
        # not evaluated, which is different from failing it.
        "target_met": all(r["meets_target"] for r in large) if large else None,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads (seconds, not minutes)"
    )
    parser.add_argument(
        "--full", action="store_true", help="add the largest workload round"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per configuration"
    )
    parser.add_argument(
        "--output",
        default="BENCH_spectral.json",
        help="path of the machine-readable result file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless every order >= 200 workload is >= {MIN_SPEEDUP}x",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else ("full" if args.full else "default")
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    payload = run_benchmark(mode, repeats)

    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        large = [w for w in payload["workloads"] if w["order"] >= 200]
        if not large:
            print("--check requires at least one order >= 200 workload", file=sys.stderr)
            return 2
        if payload["target_met"] is not True:
            failing = [w["name"] for w in large if not w["meets_target"]]
            print(
                f"speedup target {MIN_SPEEDUP}x missed on: {', '.join(failing)}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
