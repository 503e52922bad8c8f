"""The cold SHH path reuses the factorizations it already holds.

* One ordered real Schur form serves Eqs. 22 and 23 and the final check:
  ``extract_stable_proper_part`` calls ``scipy.linalg.schur`` once, solves
  Eq. 23 on the quasi-triangular ``T11`` and returns ``T11`` as the stable
  part's state matrix.
* Both reductions probe one point, so a cold order-200 ``shh`` test makes
  exactly four probe LUs: Phi's two order-n blocks, the order-390 impulsive
  reduction (reused by the nondynamic step) and the order-260 nondynamic
  reduction.
"""

import numpy as np
import pytest
import scipy.linalg

import repro.passivity.proper_part as proper_part_module
import repro.passivity.reduction as reduction_module
from repro import check_passivity
from repro.circuits import impulsive_rlc_ladder, paper_benchmark_model
from repro.descriptor import build_phi_realization
from repro.passivity import (
    extract_stable_proper_part,
    remove_impulsive_modes,
    remove_nondynamic_modes,
    restore_shh_structure,
)


def _restoration(system):
    impulsive = remove_impulsive_modes(build_phi_realization(system))
    nondynamic = remove_nondynamic_modes(
        impulsive.system, probe_response=impulsive.probe_response
    )
    return restore_shh_structure(nondynamic.system)


@pytest.fixture(scope="module")
def paper_restoration():
    return _restoration(paper_benchmark_model(60, n_impulsive_stubs=2, seed=3).system)


def _spy(monkeypatch, module, name):
    """Wrap ``module.name``; return the list of ``(args, kwargs, result)`` calls."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


def test_one_schur_form_for_eqs_22_and_23(monkeypatch, paper_restoration):
    schur_calls = _spy(monkeypatch, scipy.linalg, "schur")
    extract_stable_proper_part(paper_restoration)
    assert len(schur_calls) == 1


def test_stable_part_is_the_schur_block(monkeypatch, paper_restoration):
    splittings = _spy(
        monkeypatch, proper_part_module, "hamiltonian_stable_invariant_subspace"
    )
    extraction = extract_stable_proper_part(paper_restoration)
    (_, _, splitting), = splittings
    stable_a = extraction.stable_part.a
    assert np.array_equal(stable_a, splitting.stable_block)
    assert stable_a.shape[0] == paper_restoration.half_order
    assert not np.any(np.tril(stable_a, -2))
    assert np.array_equal(extraction.phi_half.a, stable_a)


@pytest.mark.parametrize(
    "make_system",
    [
        lambda: paper_benchmark_model(60, n_impulsive_stubs=2, seed=3).system,
        lambda: impulsive_rlc_ladder(8, 2).system,
    ],
    ids=["paper-60", "impulsive-ladder"],
)
def test_eq23_residual_on_the_schur_block(monkeypatch, make_system):
    solves = _spy(monkeypatch, proper_part_module, "solve_triangular_sylvester")
    extract_stable_proper_part(_restoration(make_system()))
    (args, kwargs, y_solution), = solves
    t_a, t_b, rhs = args[:3]
    assert t_a is t_b and kwargs["transpose_b"]
    residual = t_a @ y_solution + y_solution @ t_a.T - rhs
    scale = max(
        1.0,
        float(np.linalg.norm(t_a) * np.linalg.norm(y_solution)),
        float(np.linalg.norm(rhs)),
    )
    assert np.linalg.norm(residual) <= 1e-10 * scale


def test_decoupled_blocks_keep_the_transfer_function(paper_restoration):
    # Phi's proper part is the stable part plus its adjoint: the reduced
    # stable/anti-stable blocks must reproduce the restored pencil at a point.
    extraction = extract_stable_proper_part(paper_restoration)
    s0 = 0.3 + 0.9j
    pencil = paper_restoration.to_descriptor()
    anti = extraction.antistable_c @ np.linalg.solve(
        s0 * np.eye(extraction.antistable_a.shape[0]) - extraction.antistable_a,
        extraction.antistable_b.astype(complex),
    )
    value = extraction.stable_part.evaluate(s0) + anti + paper_restoration.d_shh
    np.testing.assert_allclose(value, pencil.evaluate(s0), rtol=1e-8, atol=1e-10)


def test_cold_order_200_shh_makes_four_probe_lus(monkeypatch):
    system = paper_benchmark_model(200, n_impulsive_stubs=2, seed=0).system
    probes = _spy(monkeypatch, reduction_module, "_probe_response")
    report = check_passivity(system, "shh")
    assert report.is_passive
    assert sorted(args[0].order for args, _, _ in probes) == [200, 200, 260, 390]
