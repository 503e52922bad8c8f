"""The cold SHH path's decisions, pinned to the values of the reference implementation.

Each row was recorded from ``check_passivity(system, "shh")`` before the
flow's kernels moved to LAPACK (single SVD per reduction, LU-screened
transfer probes, ``trsyl`` Lyapunov solve, in-place PVL reflectors).  Every
decision must match exactly; the round-off diagnostics must stay at
round-off level.
"""

import numpy as np
import pytest

from repro import check_passivity
from repro.circuits import (
    feedthrough_perturbation,
    impulsive_rlc_ladder,
    negative_resistor_perturbation,
    paper_benchmark_model,
    rlc_ladder,
)
from repro.descriptor import DescriptorSystem

NOT_PR = (
    "the proper part of G is not positive real (the Hermitian part of the "
    "frequency response becomes indefinite)"
)

# name -> (is_passive, failure_reason, n_impulsive_directions_removed,
#          n_nondynamic_removed, proper_part_order)
RECORDED = {
    "paper-26": (True, None, 10, 14, 14),
    "paper-60": (True, None, 10, 38, 36),
    "paper-100": (True, None, 10, 64, 63),
    "sm1_system": (True, None, 2, 2, 0),
    "mixed_passive_system": (True, None, 2, 4, 1),
    "index1_passive_system": (True, None, 0, 2, 1),
    "nonpassive_proper_system": (False, NOT_PR, 0, 0, 1),
    "s_squared_system": (
        False,
        "Phi(s) retains impulsive modes after removing the unobservable/"
        "uncontrollable ones; the impulsive part of G cannot cancel against "
        "its adjoint",
        2, None, None,
    ),
    "negative_m1": (
        False,
        "the residue matrix at infinity M1 is not symmetric positive semidefinite",
        2, 2, None,
    ),
    "skew_m1": (
        False,
        "reduction failed: A22 is singular while eliminating nondynamic modes: "
        "the system still contains impulsive modes",
        4, None, None,
    ),
    "unstable": (
        False,
        "the system has finite modes outside the open left half plane",
        None, None, None,
    ),
    "feedthrough": (False, NOT_PR, 6, 12, 9),
    "negative_resistor": (False, NOT_PR, 0, 10, 8),
    "singular": (False, "the pencil s E - A is singular", None, None, None),
}

FIXTURES = (
    "sm1_system",
    "mixed_passive_system",
    "index1_passive_system",
    "nonpassive_proper_system",
    "s_squared_system",
)


def _inline_system(name):
    if name == "negative_m1":
        e = np.array([[0.0, 1.0], [0.0, 0.0]])
        return DescriptorSystem(
            e, np.eye(2), np.array([[0.0], [2.0]]), np.array([[1.0, 0.0]])
        )
    if name == "skew_m1":
        e = np.kron(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = np.zeros((4, 2))
        b[1, 1], b[3, 0] = -1.0, 1.0
        c = np.zeros((2, 4))
        c[0, 0], c[1, 2] = 1.0, 1.0
        return DescriptorSystem(e, np.eye(4), b, c)
    if name == "unstable":
        return DescriptorSystem(
            np.eye(1), np.array([[1.0]]), np.ones((1, 1)), np.ones((1, 1))
        )
    if name == "feedthrough":
        system = impulsive_rlc_ladder(4, 1).system
        response = system.frequency_response(np.logspace(-2, 2, 100))
        margin = min(
            float(np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))))
            for r in response
        )
        return feedthrough_perturbation(system, 1.5 * margin)
    if name == "negative_resistor":
        return negative_resistor_perturbation(rlc_ladder(4), conductance=2.0)
    if name == "singular":
        return DescriptorSystem(
            np.diag([1.0, 0.0]), np.diag([-1.0, 0.0]), np.ones((2, 1)), np.ones((1, 2))
        )
    raise KeyError(name)


def _assert_matches(report, expected):
    d = report.diagnostics
    actual = (
        bool(report.is_passive),
        report.failure_reason,
        d.get("n_impulsive_directions_removed"),
        d.get("n_nondynamic_removed"),
        d.get("proper_part_order"),
    )
    assert actual == expected
    for key in ("adjoint_defect", "hamiltonian_residual"):
        if key in d:
            assert abs(d[key]) <= 1e-10, (key, d[key])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("order", [26, 60, 100])
def test_paper_models_keep_their_decisions(order, seed):
    system = paper_benchmark_model(order, n_impulsive_stubs=2, seed=seed).system
    _assert_matches(check_passivity(system, "shh"), RECORDED[f"paper-{order}"])


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_keep_their_decisions(request, name):
    system = request.getfixturevalue(name)
    _assert_matches(check_passivity(system, "shh"), RECORDED[name])


@pytest.mark.parametrize(
    "name",
    ["negative_m1", "skew_m1", "unstable", "feedthrough", "negative_resistor", "singular"],
)
def test_nonpassive_cases_keep_their_decisions(name):
    _assert_matches(check_passivity(_inline_system(name), "shh"), RECORDED[name])
