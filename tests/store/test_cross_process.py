"""Cross-process sharing of verdicts through the store.

A system checked once by *any* process must be re-checked by a *fresh*
process — a genuinely separate interpreter, spawned here with
:mod:`subprocess` — with **zero** ordered QZ factorizations: the fresh
process's cache reads the finished verdict from the shared on-disk store.  Also covers the :class:`~repro.engine.BatchRunner` process backend
shipping the store to its workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.circuits import rlc_grid
from repro.engine import DecompositionCache
from repro.engine.api import verdict_key
from repro.store import DecompositionStore

#: Run one auto check against a store-backed cache and report QZ counts.
_CHECK_SCRIPT = """
import json, sys
from repro.bench import QZCounter
from repro.circuits import rlc_grid
from repro.engine import DecompositionCache
from repro import check_passivity
from repro.store import DecompositionStore

store = DecompositionStore(sys.argv[1])
cache = DecompositionCache(store=store)
system = rlc_grid(5, 5, sparse=False).system
with QZCounter() as counter:
    report = check_passivity(system, method="auto", cache=cache)
print(json.dumps({
    "is_passive": bool(report.is_passive),
    "qz_total": counter.total,
    "ordqz": counter.ordqz,
    "factorizations": cache.stats.factorizations,
    "l2_hits": cache.stats.l2_hits,
}))
"""


def _run_fresh_process(store_root: Path) -> dict:
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) if not existing else str(src) + os.pathsep + existing
    completed = subprocess.run(
        [sys.executable, "-c", _CHECK_SCRIPT, str(store_root)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestFreshProcessZeroQZ:
    def test_second_process_performs_zero_qz(self, tmp_path):
        store_root = tmp_path / "store"
        first = _run_fresh_process(store_root)
        assert first["is_passive"]
        assert first["qz_total"] >= 1  # the cold process really factorized
        assert first["l2_hits"] == 0
        second = _run_fresh_process(store_root)
        assert second["is_passive"]
        assert second["qz_total"] == 0, (
            f"fresh process on a warm store performed {second['qz_total']} "
            f"QZ factorizations"
        )
        assert second["factorizations"] == 0
        assert second["l2_hits"] > 0

    def test_parent_process_also_benefits(self, tmp_path):
        # Mixed direction: a subprocess warms the store, the *parent*
        # re-checks with a fresh cache and performs no factorization.
        store_root = tmp_path / "store"
        _run_fresh_process(store_root)
        cache = DecompositionCache(store=DecompositionStore(store_root))
        report = repro.check_passivity(
            rlc_grid(5, 5, sparse=False).system, method="auto", cache=cache
        )
        assert report.is_passive
        assert cache.stats.factorizations == 0
        assert cache.stats.l2_hits > 0


class TestProcessBackendShipsTheStore:
    def test_worker_results_persist_for_the_fleet(self, tmp_path):
        pytest.importorskip("multiprocessing")
        from repro.engine import BatchRunner

        store = DecompositionStore(tmp_path / "store")
        system = rlc_grid(5, 5, sparse=False).system
        runner = BatchRunner(
            backend="process",
            max_workers=2,
            cache=DecompositionCache(store=store),
            # Leave the factorization in the worker: the point is that the
            # *worker's* compute lands in the shared store.
            precompute_spectral=False,
        )
        try:
            outcome = runner.run([system], methods=("auto",))
        except (OSError, PermissionError):
            pytest.skip("process pool unavailable in this environment")
        if outcome.backend != "process":
            pytest.skip("process pool unavailable in this environment")
        assert outcome.results[0].is_passive
        # The worker (a different process) wrote the verdict through to
        # the store...
        assert store.contains(
            verdict_key(system, "auto", runner.tol, runner.registry)
        )
        # ...so a fresh serial runner sharing the store recomputes nothing.
        warm = BatchRunner(
            backend="serial", cache=DecompositionCache(store=store)
        )
        warm_outcome = warm.run([system], methods=("auto",))
        assert warm_outcome.cache_stats.factorizations == 0
        assert warm_outcome.cache_stats.l2_hits > 0
