"""Persistent-store benchmark: warm-start speedup and cross-process verdicts.

Quantifies the L2 verdict store on dense admissible grids (order >= 200 in
the default mode).  The store holds finished verdicts only, so both gates
below pass through the ``verdict`` kind:

* **Warm-start round** — per workload, three configurations of
  ``check_passivity(system, "auto")`` are timed:

  - ``cold_store`` — a fresh :class:`DecompositionCache` writing through to
    a *fresh* (empty) store: full compute plus the one verdict write,
  - ``warm_start`` — a **fresh cache** attached to the *populated* store:
    the finished report (the ``verdict`` kind) is read back from disk, so
    no decomposition is needed at all — zero QZ factorizations,
  - ``no_store`` — a fresh store-less cache, for reference.

  The acceptance target is ``cold_store / warm_start >= 3`` on order >= 200
  workloads: restarting a service (or booting a new worker) must be at
  least 3x cheaper than computing from scratch.

* **Cross-process verdict round** — a *separate interpreter*
  (``subprocess``) checks a system against the shared store twice: the
  first process pays the factorizations, the second reads the stored
  verdict and must report **zero** QZ calls and ``l2_hits > 0``.  This is
  the fleet-wide compute-once guarantee.

Results go to a machine-readable ``BENCH_store.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py            # default
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_store.py --check    # assert targets

``--check`` exits non-zero unless every order >= 200 workload meets the
>= 3x warm-start target (skipped when no such workload ran, e.g. in smoke
mode) and the cross-process round performed zero QZ factorizations (always
evaluated).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(REPO_SRC))

from repro.bench import QZCounter  # noqa: E402
from repro.circuits import coupled_line_bus, rlc_grid  # noqa: E402
from repro.engine import DecompositionCache, check_passivity  # noqa: E402
from repro.store import DecompositionStore  # noqa: E402

#: Acceptance target of the persistent-store PR.
MIN_WARM_SPEEDUP = 3.0

SCHEMA_VERSION = 1

#: The subprocess used by the cross-process round (reports one JSON line).
_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.bench import QZCounter
from repro.circuits import rlc_grid
from repro.engine import DecompositionCache
from repro import check_passivity
from repro.store import DecompositionStore

cache = DecompositionCache(store=DecompositionStore(sys.argv[1]))
system = rlc_grid({rows}, {cols}, sparse=False).system
with QZCounter() as counter:
    report = check_passivity(system, method="auto", cache=cache)
print(json.dumps({{
    "is_passive": bool(report.is_passive),
    "qz_total": counter.total,
    "factorizations": cache.stats.factorizations,
    "l2_hits": cache.stats.l2_hits,
}}))
"""


def _median_seconds(runner: Callable[[], object], repeats: int) -> float:
    seconds: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def _workloads(mode: str) -> List[Tuple[str, Callable[[], object]]]:
    if mode == "smoke":
        return [
            ("rlc_grid-5x5", lambda: rlc_grid(5, 5, sparse=False).system),
        ]
    grids = [
        # rows=11, cols=11 -> order 231 (>= 200: in target scope).
        ("rlc_grid-11x11", lambda: rlc_grid(11, 11, sparse=False).system),
        # 4 lines x 17 sections -> order 208.
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


def _warm_start_round(mode: str, repeats: int, scratch: Path) -> List[Dict]:
    results = []
    for name, factory in _workloads(mode):
        system = factory()
        entry: Dict = {"name": name, "order": system.order, "repeats": repeats}

        store_root = scratch / f"store-{name}"

        def run_cold() -> object:
            # Fresh cache, fresh (emptied) store: compute + persist.
            shutil.rmtree(store_root, ignore_errors=True)
            return check_passivity(
                system,
                method="auto",
                cache=DecompositionCache(store=DecompositionStore(store_root)),
            )

        def run_warm() -> object:
            # Fresh cache, *populated* store: pure rehydration.
            return check_passivity(
                system,
                method="auto",
                cache=DecompositionCache(store=DecompositionStore(store_root)),
            )

        def run_no_store() -> object:
            return check_passivity(
                system, method="auto", cache=DecompositionCache()
            )

        cold_s = _median_seconds(run_cold, repeats)
        # run_cold leaves the store populated; count the warm QZ calls once.
        warm_cache = DecompositionCache(store=DecompositionStore(store_root))
        with QZCounter() as counter:
            report = check_passivity(system, method="auto", cache=warm_cache)
        entry["method"] = report.method
        entry["is_passive"] = bool(report.is_passive)
        entry["warm_qz_calls"] = counter.total
        entry["warm_l2_hits"] = warm_cache.stats.l2_hits
        warm_s = _median_seconds(run_warm, repeats)
        no_store_s = _median_seconds(run_no_store, repeats)
        store_bytes = DecompositionStore(store_root).total_bytes

        entry["seconds"] = {
            "cold_store": cold_s,
            "warm_start": warm_s,
            "no_store": no_store_s,
        }
        entry["store_bytes"] = store_bytes
        entry["speedup"] = {
            "warm_vs_cold": cold_s / warm_s if warm_s > 0 else float("inf"),
            "warm_vs_no_store": no_store_s / warm_s if warm_s > 0 else float("inf"),
        }
        entry["meets_target"] = bool(
            entry["speedup"]["warm_vs_cold"] >= MIN_WARM_SPEEDUP
        )
        results.append(entry)
        print(
            f"{name} (order {system.order}, {report.method}): "
            f"cold {cold_s * 1e3:.1f} ms | warm {warm_s * 1e3:.1f} ms "
            f"({entry['warm_qz_calls']} QZ, {entry['warm_l2_hits']} L2 hits, "
            f"{store_bytes / 1024:.0f} KiB on disk) | "
            f"speedup {entry['speedup']['warm_vs_cold']:.2f}x"
        )
    return results


def _cross_process_round(mode: str, scratch: Path) -> Dict:
    rows = cols = 5 if mode == "smoke" else 8
    store_root = scratch / "store-cross-process"
    script = _SUBPROCESS_SCRIPT.format(src=str(REPO_SRC), rows=rows, cols=cols)

    def spawn() -> Dict:
        completed = subprocess.run(
            [sys.executable, "-c", script, str(store_root)],
            capture_output=True,
            text=True,
            timeout=600,
            env=dict(os.environ),
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"cross-process probe failed:\n{completed.stderr}"
            )
        return json.loads(completed.stdout.strip().splitlines()[-1])

    first = spawn()
    second = spawn()
    entry = {
        "workload": f"rlc_grid-{rows}x{cols}",
        "first_process": first,
        "second_process": second,
        "dedup_ok": bool(
            first["qz_total"] >= 1
            and second["qz_total"] == 0
            and second["factorizations"] == 0
            and second["l2_hits"] > 0
        ),
    }
    print(
        f"cross-process ({entry['workload']}): first {first['qz_total']} QZ | "
        f"second {second['qz_total']} QZ, {second['l2_hits']} L2 hits -> "
        f"{'OK' if entry['dedup_ok'] else 'FAILED'}"
    )
    return entry


def run_benchmark(mode: str, repeats: int) -> Dict:
    scratch = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        workloads = _warm_start_round(mode, repeats, scratch)
        cross_process = _cross_process_round(mode, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    large = [w for w in workloads if w["order"] >= 200]
    return {
        "benchmark": "store_warm_start",
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "min_warm_speedup_target": MIN_WARM_SPEEDUP,
        "target_scope": "order >= 200 workloads, warm_vs_cold",
        # null when no qualifying workload ran (smoke mode): the target was
        # not evaluated, which is different from failing it.
        "target_met": all(w["meets_target"] for w in large) if large else None,
        "cross_process": cross_process,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "workloads": workloads,
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
        default="BENCH_store.json",
        help="path of the machine-readable result file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless order >= 200 workloads reach "
        f">= {MIN_WARM_SPEEDUP}x and the cross-process round is QZ-free",
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
        failures = []
        if not payload["cross_process"]["dedup_ok"]:
            failures.append(
                "cross-process round was not QZ-free "
                f"({payload['cross_process']})"
            )
        if payload["target_met"] is False:
            failing = [
                w["name"]
                for w in payload["workloads"]
                if w["order"] >= 200 and not w["meets_target"]
            ]
            failures.append(
                f"warm-start target {MIN_WARM_SPEEDUP}x missed on: "
                f"{', '.join(failing)}"
            )
        if failures:
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
