"""The ``verdict`` cache kind: finished reports served without recomputation.

``check_passivity`` with a caller cache looks its finished report up before
any other work, in L1 and then in the store.  These tests pin that a served
report equals the fresh one in everything but its timing and its engine
block — from L1, from the store in a fresh cache, and in a separate process
— that every input of the key (method, options, tolerance bundle) misses
when it changes, and that options are keyed by an exact form.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuits import (
    feedthrough_perturbation,
    impulsive_rlc_ladder,
    random_passive_descriptor,
    rc_line,
    rlc_ladder,
)
from repro.config import DEFAULT_TOLERANCES
from repro.descriptor.system import DescriptorSystem
from repro.engine import DecompositionCache, check_passivity
from repro.engine.api import verdict_key
from repro.engine.cache import VERDICT, canonical_options
from repro.engine.incremental import IncrementalConfig
from repro.passivity.result import report_from_jsonable
from repro.service.serialization import system_to_jsonable
from repro.store import DecompositionStore


def _sparse(system: DescriptorSystem) -> DescriptorSystem:
    return DescriptorSystem(
        scipy.sparse.csr_matrix(system.e), scipy.sparse.csr_matrix(system.a),
        system.b, system.c, system.d,
    )


def _make(family: str, size: int, seed: int) -> DescriptorSystem:
    """Passive and non-passive, impulsive and admissible test systems."""
    if family == "admissible":  # rc line: admissible, auto routes to GARE
        return rc_line(size + 2).system
    if family == "index1":  # lossy ladder with a singular E
        return rlc_ladder(size).system
    if family == "impulsive":  # impulsive modes: auto routes to SHH
        return impulsive_rlc_ladder(size, 1).system
    if family == "random":
        return random_passive_descriptor(size + 5, rank_deficiency=2, seed=seed)
    if family == "nonpassive":
        base = random_passive_descriptor(size + 5, rank_deficiency=2, seed=seed)
        return feedthrough_perturbation(base, 50.0)
    if family == "nonpassive_impulsive":
        return feedthrough_perturbation(impulsive_rlc_ladder(size, 1).system, 50.0)
    raise ValueError(family)


FAMILIES = ("admissible", "index1", "impulsive", "random", "nonpassive",
            "nonpassive_impulsive")


def _assert_close(served, fresh, path="") -> None:
    if isinstance(fresh, dict):
        assert isinstance(served, dict) and set(served) == set(fresh), path
        for key in fresh:
            _assert_close(served[key], fresh[key], f"{path}.{key}")
        return
    if isinstance(fresh, (list, tuple, np.ndarray)):
        try:
            left = np.asarray(served, dtype=complex)
            right = np.asarray(fresh, dtype=complex)
        except (TypeError, ValueError):
            assert len(served) == len(fresh), path
            for index, (a, b) in enumerate(zip(served, fresh)):
                _assert_close(a, b, f"{path}[{index}]")
            return
        assert left.shape == right.shape, path
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=0, err_msg=path)
        return
    if isinstance(fresh, (bool, str)) or fresh is None:
        assert served == fresh, path
        return
    if isinstance(fresh, (int, float, complex, np.number)):
        np.testing.assert_allclose(served, fresh, rtol=1e-12, atol=0, err_msg=path)
        return
    assert served == fresh, path


def assert_same_report(served, fresh) -> None:
    """Equal in every field but ``elapsed_seconds`` and the engine block."""
    assert served.is_passive == fresh.is_passive
    assert served.failure_reason == fresh.failure_reason
    assert served.method == fresh.method
    assert served.step_names == fresh.step_names
    assert [step.passed for step in served.steps] == [step.passed for step in fresh.steps]
    for mine, theirs in zip(served.steps, fresh.steps):
        _assert_close(mine.details, theirs.details, mine.name)
    _assert_close(
        {k: v for k, v in served.diagnostics.items() if k != "engine"},
        {k: v for k, v in fresh.diagnostics.items() if k != "engine"},
        "diagnostics",
    )


def assert_verdict_hit(report) -> None:
    engine = report.diagnostics["engine"]
    assert engine["verdict_cached"] is True
    assert engine["factorizations"] == 0
    assert engine["skipped"] is False


class TestServedVerdicts:
    @pytest.mark.property
    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.integers(2, 5),
        seed=st.integers(0, 500),
        sparse=st.booleans(),
        method=st.sampled_from(["auto", "shh"]),
    )
    def test_l1_and_l2_serve_the_fresh_report(
        self, tmp_path_factory, family, size, seed, sparse, method
    ):
        system = _make(family, size, seed)
        if sparse:
            system = _sparse(system)
        store = DecompositionStore(tmp_path_factory.mktemp("store"))
        cache = DecompositionCache(store=store)
        fresh = check_passivity(system, method=method, cache=cache)
        assert fresh.diagnostics["engine"]["verdict_cached"] is False
        from_l1 = check_passivity(system, method=method, cache=cache)
        from_l2 = check_passivity(
            system, method=method, cache=DecompositionCache(store=store)
        )
        for served in (from_l1, from_l2):
            assert_verdict_hit(served)
            assert_same_report(served, fresh)
            assert served.diagnostics["engine"]["method"] == (
                fresh.diagnostics["engine"]["method"]
            )
        assert cache.stats.hits_for(VERDICT) == 1

    def test_a_separate_process_serves_the_fresh_report(self, tmp_path):
        store_root = tmp_path / "store"
        cache = DecompositionCache(store=DecompositionStore(store_root))
        systems, fresh = [], []
        for index, family in enumerate(FAMILIES):
            system = _make(family, 3, seed=index)
            if index % 2:
                system = _sparse(system)
            systems.append(system)
            fresh.append(check_passivity(system, method="auto", cache=cache))
        documents = _serve_in_a_fresh_process(store_root, systems)
        assert len(documents) == len(fresh)
        for document, original in zip(documents, fresh):
            served = report_from_jsonable(document)
            assert_verdict_hit(served)
            assert_same_report(served, original)

    def test_a_hit_is_a_copy(self):
        cache = DecompositionCache()
        system = rlc_ladder(3).system
        first = check_passivity(system, cache=cache)
        first.steps.clear()
        first.diagnostics["scribbled"] = True
        served = check_passivity(system, cache=cache)
        assert served.steps and "scribbled" not in served.diagnostics
        served.steps.clear()
        assert check_passivity(system, cache=cache).steps

    def test_a_hit_skips_the_incremental_attempt(self):
        cache = DecompositionCache()
        root = rlc_ladder(4).system
        child = rlc_ladder(4, series_resistance=0.41).system
        check_passivity(root, cache=cache)
        check_passivity(child, cache=cache, ancestor=root)
        attempts = cache.stats.incremental_hits + cache.stats.incremental_fallbacks
        again = check_passivity(child, cache=cache, ancestor=root)
        assert_verdict_hit(again)
        assert cache.stats.incremental_hits + cache.stats.incremental_fallbacks == attempts

    def test_skipped_cells_are_not_cached(self):
        cache = DecompositionCache()
        system = rlc_ladder(3).system
        for _ in range(2):
            report = check_passivity(system, method="lmi", cache=cache, order_limit=2)
            assert report.diagnostics["engine"]["skipped"] is True
            assert report.diagnostics["engine"]["verdict_cached"] is False
        assert cache.stats.hits_for(VERDICT) == 0

    def test_errors_are_not_cached(self):
        from repro.engine import MethodRegistry, MethodSpec

        calls = []

        def flaky(system, tol, cache, **options):
            calls.append(1)
            raise RuntimeError("boom")

        registry = MethodRegistry()
        registry.register(MethodSpec(name="flaky", runner=flaky, description="raises"))
        cache = DecompositionCache()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                check_passivity(rlc_ladder(3).system, "flaky", cache=cache,
                                registry=registry)
        assert len(calls) == 2

    def test_no_cache_means_no_lookup(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("verdict_key computed without a caller cache")

        monkeypatch.setattr("repro.engine.api.verdict_key", forbidden)
        report = check_passivity(rlc_ladder(3).system, method="shh")
        assert report.is_passive
        assert report.diagnostics["engine"]["verdict_cached"] is False


class TestVerdictMisses:
    def _warm(self):
        cache = DecompositionCache()
        system = impulsive_rlc_ladder(3, 1).system
        check_passivity(system, method="shh", cache=cache)
        return cache, system

    def _is_hit(self, report) -> bool:
        return report.diagnostics["engine"]["verdict_cached"]

    def test_same_call_hits_and_an_alias_is_the_same_method(self):
        cache, system = self._warm()
        assert self._is_hit(check_passivity(system, method="shh", cache=cache))
        assert self._is_hit(check_passivity(system, method="proposed", cache=cache))

    def test_another_method_misses(self):
        cache, system = self._warm()
        assert not self._is_hit(check_passivity(system, method="auto", cache=cache))
        assert not self._is_hit(
            check_passivity(system, method="weierstrass", cache=cache)
        )

    def test_another_option_misses(self):
        cache, system = self._warm()
        report = check_passivity(system, method="shh", cache=cache, check_stability=False)
        assert not self._is_hit(report)
        again = check_passivity(system, method="shh", cache=cache, check_stability=False)
        assert self._is_hit(again)

    def test_another_tolerance_bundle_misses(self):
        cache, system = self._warm()
        tol = replace(DEFAULT_TOLERANCES, rank_rtol=DEFAULT_TOLERANCES.rank_rtol * 2)
        assert not self._is_hit(check_passivity(system, method="shh", tol=tol, cache=cache))

    def test_an_option_without_an_exact_form_is_never_cached(self):
        cache = DecompositionCache()
        system = rlc_ladder(3).system
        opaque = object()
        assert verdict_key(system, "sampling", options={"tag": opaque}) is None
        key = verdict_key(system, "sampling", options={"n_points": 64})
        assert key is not None


class TestCanonicalOptions:
    def test_arrays_differing_past_the_repr_cut_have_distinct_forms(self):
        # repr() elides arrays beyond 1,000 elements, so a key built from it
        # could not tell these two apart.
        a = np.zeros(2000)
        b = a.copy()
        b[1000] = 1.0
        assert repr({"w": a}) == repr({"w": b})
        assert canonical_options({"w": a}) != canonical_options({"w": b})
        assert canonical_options({"w": a}) == canonical_options({"w": a.copy()})

    def test_types_and_bits_are_part_of_the_form(self):
        assert canonical_options({"x": 1}) != canonical_options({"x": 1.0})
        assert canonical_options({"x": 1}) != canonical_options({"x": True})
        assert canonical_options({"x": "1"}) != canonical_options({"x": 1})
        assert canonical_options({"x": 0.1}) != canonical_options({"x": 0.1 + 1e-17 * 8})
        assert canonical_options({"x": (1, 2)}) != canonical_options({"x": [1, 2]})
        assert canonical_options({"x": np.zeros(2, dtype=np.float32)}) != (
            canonical_options({"x": np.zeros(2)})
        )
        assert canonical_options({"a": 1, "b": 2}) == canonical_options({"b": 2, "a": 1})

    def test_dataclasses_are_keyed_field_by_field(self):
        config = IncrementalConfig()
        assert canonical_options({"c": config}) == canonical_options(
            {"c": IncrementalConfig()}
        )
        assert canonical_options({"c": config}) != canonical_options(
            {"c": replace(config, spectral_safety=config.spectral_safety * 2)}
        )

    @pytest.mark.parametrize(
        "value",
        [object(), {1: "int key"}, np.array([object()]), {1, 2}],
        ids=["object", "non-str-key", "object-array", "set"],
    )
    def test_values_without_an_exact_form(self, value):
        assert canonical_options({"x": value}) is None


_SERVE_SCRIPT = """
import json, sys
from repro import check_passivity
from repro.engine import DecompositionCache
from repro.passivity.result import report_to_jsonable
from repro.service.serialization import system_from_jsonable
from repro.store import DecompositionStore

cache = DecompositionCache(store=DecompositionStore(sys.argv[1]))
served = []
for document in json.load(sys.stdin):
    report = check_passivity(system_from_jsonable(document), method="auto", cache=cache)
    served.append(report_to_jsonable(report))
print(json.dumps(served))
"""


def _serve_in_a_fresh_process(store_root: Path, systems) -> list:
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) if not existing else str(src) + os.pathsep + existing
    completed = subprocess.run(
        [sys.executable, "-c", _SERVE_SCRIPT, str(store_root)],
        input=json.dumps([system_to_jsonable(system) for system in systems]),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])
