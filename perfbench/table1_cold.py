"""``table1_cold``: the paper's Table-1 anchor, one cold SHH test per op.

One op is ``check_passivity(model, "shh")`` on a fresh (per-call) cache, run
serially in the driver process.  Every model is
``paper_benchmark_model(ORDER, n_impulsive_stubs=2, seed=k)`` with a distinct
``k`` and one order only, so every op does the same amount of work and all of
it lands in ``linalg`` / ``descriptor`` / ``passivity``; the cache,
incremental tier, transport and service are never entered.

The traced run replays each op's Figure-1 flow through the public stage
functions, one span per stage, next to an untraced ``check_passivity`` of the
same model and a cold Weierstrass test (the ROADMAP anchor).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import check_passivity
from repro.circuits import paper_benchmark_model
from repro.config import DEFAULT_TOLERANCES
from repro.descriptor import StateSpace, build_phi_realization
from repro.descriptor.impulse import is_impulse_free
from repro.linalg import (
    compute_spectral_context,
    hamiltonian_stable_invariant_subspace,
    is_positive_semidefinite,
    is_symmetric,
    shh_pencil_to_hamiltonian,
    solve_continuous_lyapunov,
)
from repro.passivity import (
    extract_m1_via_chains,
    impulsive_chain_data,
    proper_positive_real_test,
    remove_impulsive_modes,
    remove_nondynamic_modes,
    restore_shh_structure,
)

from common import Outcome, Spans, TreeMemory, median

ORDER = 200
TINY_ORDER = 26
N_STUBS = 2

#: Figure-1 stages in flow order; their sum over the op's untraced wall
#: time is ``passivity.stage_coverage``.
STAGES = (
    "descriptor.spectrum_s",
    "descriptor.build_phi_s",
    "passivity.remove_impulsive_s",
    "descriptor.impulse_free_s",
    "passivity.remove_nondynamic_s",
    "passivity.m1_s",
    "passivity.restore_shh_s",
    "linalg.pvl_s",
    "linalg.stable_subspace_s",
    "linalg.lyapunov_s",
    "passivity.hamiltonian_check_s",
)

LAYER_UNITS = dict(
    {name: "s" for name in STAGES},
    **{
        "passivity.stage_coverage": "ratio",
        "passivity.weierstrass_s": "s",
        "passivity.shh_over_weierstrass": "ratio",
    },
)


class Setup:
    """Inputs of one run: the warm-up model and the timed models."""

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        order = TINY_ORDER if tiny else ORDER
        # A cold order-200 op takes ~0.8 s on one core; 4 ops per second of
        # run time leaves room for a machine several times faster.
        count = int((400 if tiny else 4) * seconds) + 8
        base = seed * 100_000
        self.models = [
            paper_benchmark_model(order, n_impulsive_stubs=N_STUBS, seed=base + k).system
            for k in range(count)
        ]
        warm = paper_benchmark_model(order, n_impulsive_stubs=N_STUBS, seed=base + count).system
        check_passivity(warm, "shh")

    def close(self) -> None:
        """Nothing to release: the workload runs in-process."""


def _timed(spans: Spans, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    spans.add(name, start, time.perf_counter())
    return value


def replay(system, spans: Spans) -> bool:
    """Run the SHH test's Figure-1 flow stage by stage; True when passive.

    Mirrors ``ShhPassivityTest.run`` on the cold path (the engine computes
    one spectral context and the impulsive chain data per call) through
    the same public functions, adding one span per stage.
    """
    tol = DEFAULT_TOLERANCES

    def spectrum_stage():
        context = compute_spectral_context(system.e, system.a, tol)
        if not system.is_regular(tol, context=context):
            return False
        return bool(system.spectrum(tol, context=context).is_stable)

    if not _timed(spans, "descriptor.spectrum_s", spectrum_stage):
        return False
    phi = _timed(spans, "descriptor.build_phi_s", build_phi_realization, system, tol)
    impulsive = _timed(spans, "passivity.remove_impulsive_s", remove_impulsive_modes, phi, tol)
    if not _timed(spans, "descriptor.impulse_free_s", is_impulse_free, impulsive.system, tol):
        return False
    nondynamic = _timed(
        spans, "passivity.remove_nondynamic_s", remove_nondynamic_modes, impulsive.system, tol
    )

    def m1_stage():
        chains = impulsive_chain_data(system, tol)
        if chains.has_higher_grade:
            return False
        if chains.n_chains == 0:
            return True
        m1 = extract_m1_via_chains(system, chains, tol)
        return bool(is_symmetric(m1, tol) and is_positive_semidefinite(m1, tol))

    if not _timed(spans, "passivity.m1_s", m1_stage):
        return False
    restoration = _timed(
        spans, "passivity.restore_shh_s", restore_shh_structure, nondynamic.system, tol
    )
    conversion = _timed(
        spans, "linalg.pvl_s", shh_pencil_to_hamiltonian,
        restoration.e_shh, restoration.a_shh, tol, check_structure=True,
    )
    a_std = conversion.hamiltonian
    b_std = conversion.left @ restoration.b_shh
    c_std = restoration.c_shh @ conversion.right
    splitting = _timed(
        spans, "linalg.stable_subspace_s", hamiltonian_stable_invariant_subspace,
        a_std, tol, check_structure=False,
    )
    # Eq. 22-23 glue between the stage calls, as in extract_stable_proper_part.
    half = a_std.shape[0] // 2
    z1 = np.block([[splitting.x1, -splitting.x2], [splitting.x2, splitting.x1]])
    a_block = z1.T @ a_std @ z1
    y = _timed(
        spans, "linalg.lyapunov_s", solve_continuous_lyapunov,
        a_block[:half, :half], a_block[:half, half:], tol,
    )
    eye, zero = np.eye(half), np.zeros((half, half))
    z2 = z1 @ np.block([[eye, y], [zero, eye]])
    z2_inv = np.block([[eye, -y], [zero, eye]]) @ z1.T
    a_final = z2_inv @ a_std @ z2
    phi_half = StateSpace(
        a_final[:half, :half],
        (z2_inv @ b_std)[:half, :],
        (c_std @ z2)[:, :half],
        0.5 * restoration.d_shh,
    )
    result = _timed(
        spans, "passivity.hamiltonian_check_s", proper_positive_real_test, phi_half, tol
    )
    return bool(result.is_positive_real)


def _check(outcome: Outcome, label: str, report) -> None:
    if not report.is_passive:
        outcome.fail(f"{label}: not passive ({report.failure_reason})")


def measure(setup: Setup, seconds: float, trace: bool, memory: TreeMemory) -> Outcome:
    """Run cold SHH ops back to back for ``seconds``; the driver is the whole tree."""
    outcome = Outcome()
    if trace:
        return _measure_traced(setup, seconds, outcome)
    start = time.perf_counter()
    for index, model in enumerate(setup.models):
        if time.perf_counter() - start >= seconds:
            break
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            report = check_passivity(model, "shh")
        except Exception as error:  # noqa: BLE001 - an op error is a failed op
            outcome.fail(f"model {index}: {type(error).__name__}: {error}")
            continue
        outcome.latencies.append(time.perf_counter() - t0)
        _check(outcome, f"model {index}", report)
    else:
        outcome.fail("ran out of generated models before the deadline")
    outcome.elapsed = time.perf_counter() - start
    return outcome


def _measure_traced(setup: Setup, seconds: float, outcome: Outcome) -> Outcome:
    """Per model: untraced SHH op, traced stage replay, cold Weierstrass."""
    traced: List[float] = []
    coverage: List[float] = []
    weierstrass: List[float] = []
    stage_totals: Dict[str, List[float]] = {name: [] for name in STAGES}
    start = time.perf_counter()
    for index, model in enumerate(setup.models):
        if time.perf_counter() - start >= seconds:
            break
        outcome.attempted += 1
        label = f"model {index}"
        try:
            t0 = time.perf_counter()
            report = check_passivity(model, "shh")
            t1 = time.perf_counter()
            spans = Spans()
            passive = replay(model, spans)
            t2 = time.perf_counter()
            reference = check_passivity(model, "weierstrass")
            t3 = time.perf_counter()
        except Exception as error:  # noqa: BLE001 - an op error is a failed op
            outcome.fail(f"{label}: {type(error).__name__}: {error}")
            continue
        _check(outcome, label, report)
        _check(outcome, f"{label} weierstrass", reference)
        if not passive:
            outcome.fail(f"{label}: stage replay disagrees with check_passivity")
        outcome.latencies.append(t1 - t0)
        traced.append(t2 - t1)
        weierstrass.append(t3 - t2)
        durations = spans.durations()
        for name in STAGES:
            stage_totals[name].append(sum(durations.get(name, [0.0])))
        coverage.append(sum(sum(v) for v in durations.values()) / (t1 - t0))
    outcome.elapsed = time.perf_counter() - start
    layers = {name: median(values) for name, values in stage_totals.items()}
    layers["passivity.stage_coverage"] = median(coverage)
    layers["passivity.weierstrass_s"] = median(weierstrass)
    layers["passivity.shh_over_weierstrass"] = (
        median(outcome.latencies) / median(weierstrass) if weierstrass else 0.0
    )
    layers["trace_overhead_s"] = median(traced) - median(outcome.latencies)
    outcome.layers = layers
    return outcome
