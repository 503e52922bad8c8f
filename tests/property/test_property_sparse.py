"""Property-based tests of the sparse MNA backend.

Two families of invariants:

* **assembly equivalence** — for randomized netlists, the sparse (CSR) and
  dense assembly paths of :func:`repro.circuits.mna.assemble_mna` produce
  *identical* matrices (the stamper sums duplicates in the same order on both
  paths, so the equality is bitwise),
* **verdict agreement** — on systems small enough to run everything, the
  ``shh-sparse`` method agrees with the dense ``shh`` (and, on admissible
  models, ``gare``) verdicts, through every sparse code path (structural
  certificate, sparse reduction, dense fallback).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuits import (
    coupled_line_bus,
    feedthrough_perturbation,
    random_coupled_bus,
    rc_grid,
    rlc_grid,
)
from repro.engine import DecompositionCache, check_passivity
from repro.passivity import (
    gare_passivity_test,
    shh_passivity_test,
    sparse_shh_passivity_test,
)

pytestmark = pytest.mark.property


@settings(max_examples=20, deadline=None)
@given(
    n_nodes=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    extra=st.floats(min_value=0.0, max_value=1.5),
    inductive=st.floats(min_value=0.0, max_value=0.5),
)
def test_sparse_and_dense_assembly_identical_on_random_netlists(
    n_nodes, seed, extra, inductive
):
    """The two assembly paths of a random netlist agree bitwise."""
    kwargs = dict(
        n_nodes=n_nodes,
        n_ports=min(2, n_nodes),
        extra_edge_fraction=extra,
        inductor_fraction=inductive,
        seed=seed,
    )
    dense = random_coupled_bus(sparse=False, **kwargs)
    sparse = random_coupled_bus(sparse=True, **kwargs)
    assert sparse.is_sparse and not dense.is_sparse
    for name in "eabcd":
        dense_matrix = getattr(dense.system, name)
        sparse_matrix = getattr(sparse.system, name)
        assert np.array_equal(dense_matrix, sparse_matrix), name
    assert dense.node_index == sparse.node_index
    assert dense.inductor_index == sparse.inductor_index


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=5),
    cols=st.integers(min_value=2, max_value=5),
    grid=st.sampled_from(["rc", "rlc"]),
)
def test_sparse_and_dense_assembly_identical_on_grids(rows, cols, grid):
    factory = rc_grid if grid == "rc" else rlc_grid
    dense = factory(rows, cols, sparse=False)
    sparse = factory(rows, cols, sparse=True)
    for name in "eabcd":
        assert np.array_equal(getattr(dense.system, name), getattr(sparse.system, name))


@settings(max_examples=15, deadline=None)
@given(
    n_nodes=st.integers(min_value=4, max_value=18),
    seed=st.integers(min_value=0, max_value=10_000),
    inductive=st.floats(min_value=0.0, max_value=0.4),
)
@example(n_nodes=13, seed=3257, inductive=0.375)  # two parallel inductive chords
def test_shh_sparse_accepts_random_passive_buses(n_nodes, seed, inductive):
    """Structurally passive random MNA models pass the sparse test, like shh."""
    model = random_coupled_bus(
        n_nodes, n_ports=2, inductor_fraction=inductive, seed=seed, sparse=True
    )
    sparse_report = sparse_shh_passivity_test(model.system)
    dense_report = shh_passivity_test(model.system)
    assert sparse_report.is_passive, sparse_report.failure_reason
    assert sparse_report.is_passive == dense_report.is_passive


@settings(max_examples=12, deadline=None)
@given(
    n_nodes=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
    shift=st.floats(min_value=0.5, max_value=4.0),
)
def test_shh_sparse_agrees_with_shh_on_perturbed_buses(n_nodes, seed, shift):
    """Feedthrough-shifted models: sparse and dense verdicts coincide."""
    model = random_coupled_bus(n_nodes, n_ports=2, seed=seed, sparse=True)
    perturbed = feedthrough_perturbation(model.system, shift)
    sparse_report = sparse_shh_passivity_test(perturbed)
    dense_report = shh_passivity_test(perturbed)
    assert sparse_report.is_passive == dense_report.is_passive, (
        sparse_report.failure_reason,
        dense_report.failure_reason,
    )


@settings(max_examples=8, deadline=None)
@given(
    n_lines=st.integers(min_value=2, max_value=3),
    n_sections=st.integers(min_value=1, max_value=3),
)
def test_shh_sparse_agrees_with_gare_on_admissible_buses(n_lines, n_sections):
    """Impulse-free coupled buses: sparse, shh and gare verdicts coincide."""
    system = coupled_line_bus(n_lines, n_sections, sparse=True).system
    sparse_verdict = sparse_shh_passivity_test(system).is_passive
    assert sparse_verdict == shh_passivity_test(system).is_passive
    gare_report = gare_passivity_test(system)
    if gare_report.failure_reason is None or "admissible" not in gare_report.failure_reason:
        assert sparse_verdict == gare_report.is_passive


@settings(max_examples=8, deadline=None)
@given(
    n_nodes=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_engine_dispatch_matches_direct_call(n_nodes, seed):
    """check_passivity(method='shh-sparse') equals the direct function call."""
    system = random_coupled_bus(n_nodes, seed=seed, sparse=True).system
    direct = sparse_shh_passivity_test(system)
    engine = check_passivity(system, method="shh-sparse", cache=DecompositionCache())
    assert engine.method == "shh-sparse"
    assert engine.is_passive == direct.is_passive
