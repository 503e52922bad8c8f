"""Tests for the parallel batch runner."""

import time

import pytest

from repro.circuits import paper_benchmark_model
from repro.engine import (
    BatchRunner,
    DecompositionCache,
    MethodRegistry,
    MethodSpec,
    UnknownMethodError,
)
from repro.engine.registry import DEFAULT_REGISTRY
from repro.passivity.result import PassivityReport


@pytest.fixture(scope="module")
def batch_systems():
    # Mixed sizes, biggest first, so parallel completion order differs from
    # submission order and the ordering guarantee is actually exercised.
    return [
        paper_benchmark_model(order, n_impulsive_stubs=1).system
        for order in (24, 16, 12)
    ]


def _expected_cells(systems, methods):
    return [(si, m) for si in range(len(systems)) for m in methods]


class TestOrderingAndBackends:
    def test_thread_results_ordered(self, batch_systems):
        runner = BatchRunner(backend="thread", max_workers=4)
        outcome = runner.run(batch_systems, methods=("proposed", "weierstrass"))
        cells = [(r.system_index, r.method) for r in outcome.results]
        assert cells == _expected_cells(batch_systems, ("proposed", "weierstrass"))
        assert all(r.ok for r in outcome.results)
        assert all(r.is_passive for r in outcome.results)
        assert outcome.backend == "thread"

    def test_serial_matches_thread_verdicts(self, batch_systems):
        methods = ("proposed", "weierstrass")
        serial = BatchRunner(backend="serial").run(batch_systems, methods=methods)
        threaded = BatchRunner(backend="thread", max_workers=4).run(
            batch_systems, methods=methods
        )
        assert serial.verdicts() == threaded.verdicts()

    def test_auto_backend_completes_with_ordering(self, batch_systems):
        # "auto" prefers a process pool and silently degrades to serial when
        # the environment forbids one; either way the contract holds.
        runner = BatchRunner(backend="auto", max_workers=2)
        outcome = runner.run(batch_systems, methods=("proposed",))
        cells = [(r.system_index, r.method) for r in outcome.results]
        assert cells == _expected_cells(batch_systems, ("proposed",))
        assert all(r.is_passive for r in outcome.results)
        assert outcome.backend in ("process", "serial")

    def test_process_backend_merges_worker_cache_stats(self, batch_systems):
        try:
            outcome = BatchRunner(backend="process", max_workers=2).run(
                batch_systems, methods=("auto", "proposed")
            )
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {error}")
        assert all(r.is_passive for r in outcome.results)
        # Per system: the auto profile computes the chain data once and the
        # two SHH runs reuse it inside the worker-local cache.
        assert outcome.cache_stats.misses_for("chain_data") == len(batch_systems)
        assert outcome.cache_stats.hits_for("chain_data") >= len(batch_systems)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(backend="carrier-pigeon")
        for backend in ("auto", "thread", "serial"):
            for bad in ({"max_workers": 0}, {"task_timeout": 0}, {"task_timeout": -1}):
                with pytest.raises(ValueError):
                    BatchRunner(backend=backend, **bad)

    def test_duplicate_methods_keep_distinct_cells(self, batch_systems):
        # Each occurrence in the method list is its own cell, on every backend.
        for backend in ("serial", "thread", "auto"):
            outcome = BatchRunner(backend=backend, max_workers=2).run(
                batch_systems[:1], methods=("proposed", "weierstrass", "proposed")
            )
            assert [r.method for r in outcome.results] == [
                "proposed", "weierstrass", "proposed",
            ]

    def test_order_limit_skip_reported_as_none(self):
        from repro.circuits import rc_line

        big = rc_line(70).system  # above the LMI order limit
        outcome = BatchRunner(backend="serial").run([big], methods=("lmi",))
        result = outcome.results[0]
        assert result.ok
        assert result.skipped
        assert result.is_passive is None  # NIL, not "non-passive"


class TestValidation:
    def test_methods_validated_before_any_work(self, batch_systems):
        runner = BatchRunner(backend="serial")
        with pytest.raises(UnknownMethodError, match="nonsense"):
            runner.run(batch_systems, methods=("proposed", "nonsense"))
        # Nothing was computed for the valid method either.
        assert runner.cache.stats.misses == 0

    def test_method_options_reach_aliases(self, batch_systems):
        # Options keyed by the canonical name ("shh") must reach a sweep
        # that requested the alias ("proposed").
        captured = {}

        def spy(system, tol, cache, **options):
            captured.update(options)
            return PassivityReport(is_passive=True, method="shh")

        registry = MethodRegistry()
        registry.register(
            MethodSpec(name="shh", runner=spy, description="", aliases=("proposed",))
        )
        BatchRunner(backend="serial", registry=registry).run(
            batch_systems[:1],
            methods=("proposed",),
            method_options={"shh": {"check_stability": False}},
        )
        assert captured == {"check_stability": False}

    def test_method_options_for_unknown_method_rejected(self, batch_systems):
        runner = BatchRunner(backend="serial")
        with pytest.raises(ValueError, match="method_options"):
            runner.run(
                batch_systems,
                methods=("proposed",),
                method_options={"nonsense": {}},
            )


def _failing_runner(system, tol, cache, **options):
    raise RuntimeError("synthetic failure")


def _slow_runner(system, tol, cache, **options):
    time.sleep(options.get("duration", 1.0))
    return PassivityReport(is_passive=True, method="slow")


def _custom_registry():
    registry = MethodRegistry()
    registry.register(DEFAULT_REGISTRY.resolve("shh"))
    registry.register(
        MethodSpec(name="failing", runner=_failing_runner, description="boom")
    )
    registry.register(
        MethodSpec(name="slow", runner=_slow_runner, description="sleeps")
    )
    return registry


class TestFailureIsolationAndTimeouts:
    def test_one_failing_cell_does_not_kill_the_sweep(self, batch_systems):
        runner = BatchRunner(backend="serial", registry=_custom_registry())
        outcome = runner.run(batch_systems[:2], methods=("shh", "failing"))
        by_method = {(r.system_index, r.method): r for r in outcome.results}
        for si in range(2):
            assert by_method[(si, "shh")].ok
            failed = by_method[(si, "failing")]
            assert not failed.ok
            assert "synthetic failure" in failed.error
        assert outcome.n_failed == 2

    def test_serial_task_starts_after_the_previous_progress_call(self, batch_systems):
        # The serial backend runs a task when it is collected, so progress
        # for one system fires before the next system's cell starts.
        events = []
        systems = batch_systems[:2]

        def spy(system, tol, cache, **options):
            events.append(("start", next(i for i, s in enumerate(systems) if s is system)))
            return PassivityReport(is_passive=True, method="spy")

        registry = MethodRegistry()
        registry.register(MethodSpec(name="spy", runner=spy, description=""))
        BatchRunner(backend="serial", registry=registry).run(
            systems,
            methods=("spy",),
            progress=lambda result: events.append(("progress", result.system_index)),
        )
        assert events == [("start", 0), ("progress", 0), ("start", 1), ("progress", 1)]

    def test_timeout_does_not_block_the_sweep(self, batch_systems):
        runner = BatchRunner(
            backend="thread",
            max_workers=2,
            task_timeout=0.05,
            registry=_custom_registry(),
        )
        start = time.perf_counter()
        outcome = runner.run(
            batch_systems[:1],
            methods=("slow",),
            method_options={"slow": {"duration": 3.0}},
        )
        # run() must return at the timeout, not after the 3 s sleep.
        assert time.perf_counter() - start < 2.0
        assert outcome.results[0].timed_out

    def test_thread_task_timeout_marks_cell(self, batch_systems):
        runner = BatchRunner(
            backend="thread",
            max_workers=2,
            task_timeout=0.05,
            registry=_custom_registry(),
        )
        outcome = runner.run(
            batch_systems[:1],
            methods=("slow",),
            method_options={"slow": {"duration": 0.6}},
        )
        assert outcome.n_timed_out == 1
        assert outcome.results[0].timed_out
        assert outcome.results[0].is_passive is None


class TestCacheSharingAcrossCells:
    def test_serial_sweep_shares_decompositions(self, batch_systems):
        cache = DecompositionCache()
        runner = BatchRunner(backend="serial", cache=cache)
        methods = ("auto", "proposed", "weierstrass")
        outcome = runner.run(batch_systems, methods=methods)
        assert all(r.is_passive for r in outcome.results)
        n_systems = len(batch_systems)
        # One chain analysis and one Weierstrass form per system...
        assert outcome.cache_stats.misses_for("chain_data") == n_systems
        assert outcome.cache_stats.misses_for("weierstrass_form") == n_systems
        # ...reused by the auto profile and the two SHH runs.
        assert outcome.cache_stats.hits_for("chain_data") == 2 * n_systems

    def test_outcome_stats_are_per_sweep(self, batch_systems):
        runner = BatchRunner(backend="serial")
        first = runner.run(batch_systems, methods=("proposed",))
        second = runner.run(batch_systems, methods=("proposed",))
        n_systems = len(batch_systems)
        # The first sweep computed everything; the second ran fully warm (a
        # cached verdict per cell) and its outcome must not inherit the
        # first sweep's counters (nor mutate the first outcome
        # retroactively).
        assert first.cache_stats.misses_for("chain_data") == n_systems
        assert second.cache_stats.misses_for("chain_data") == 0
        assert second.cache_stats.hits_for("verdict") == n_systems
        assert second.cache_stats.factorizations == 0
        assert first.cache_stats.misses_for("chain_data") == n_systems
