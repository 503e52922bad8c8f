"""Parametric RLC circuit generators for tests, examples and benchmarks.

The paper's experiments run on "practical RLC circuit models of different
orders and number of impulsive modes".  The authors' models are not available,
so this module synthesizes equivalent workloads:

* :func:`rlc_ladder` — a lossy RLC transmission-line ladder whose MNA model is
  a genuine descriptor system (singular ``E`` from resistive internal nodes).
* :func:`impulsive_rlc_ladder` — the same ladder with inductor-only stub nodes
  (L-cutsets) and, optionally, a series port inductor; these are the classic
  circuit structures that push the MNA index to 2 and create impulsive modes.
* :func:`rc_line` — an impulse-free RC ladder.
* :func:`paper_benchmark_model` — a model of *exactly* the requested order
  with a configurable number of impulsive stubs; used by the Table 1 /
  Figure 2 harness.
* :func:`random_passive_descriptor` — structurally passive random descriptor
  systems (``E = E^T >= 0``, ``A + A^T <= 0``, ``C = B^T``) for property-based
  testing.
* :func:`negative_resistor_perturbation` / :func:`feedthrough_perturbation` —
  controlled ways to break passivity for negative tests.

All element values are expressed in normalized (impedance- and
frequency-scaled) units of order one so the generated matrices are well
equilibrated; this corresponds to a real circuit through the usual
denormalization and does not affect passivity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.mna import MnaModel, assemble_mna
from repro.circuits.netlist import Netlist
from repro.descriptor.system import DescriptorSystem
from repro.exceptions import DimensionError

__all__ = [
    "rlc_ladder",
    "impulsive_rlc_ladder",
    "rc_line",
    "rc_grid",
    "rlc_grid",
    "coupled_line_bus",
    "random_coupled_bus",
    "paper_benchmark_model",
    "random_passive_descriptor",
    "negative_resistor_perturbation",
    "feedthrough_perturbation",
    "perturb_system",
    "rlc_grid_corners",
]


def rlc_ladder(
    n_sections: int,
    series_resistance: float = 0.4,
    series_inductance: float = 0.8,
    shunt_capacitance: float = 1.0,
    shunt_conductance: float = 0.05,
    n_ports: int = 1,
) -> MnaModel:
    """Lossy RLC ladder: ``n_sections`` of series R-L with shunt C || R at each tap.

    The series branch is split over an internal node (R into the node, L out of
    it); that node carries neither capacitance nor conductance to ground, so
    ``E`` is singular and the model is a true descriptor system (index 1).
    The model order is ``3 * n_sections + 1`` for one port and
    ``3 * n_sections + 1`` for two ports as well (the second port reuses the
    last tap node).

    Parameters follow normalized units; ``shunt_conductance`` adds the loss
    that keeps all finite poles strictly in the left half plane.
    """
    if n_sections < 1:
        raise DimensionError("the ladder needs at least one section")
    if n_ports not in (1, 2):
        raise DimensionError("only 1- and 2-port ladders are generated")
    netlist = Netlist()
    netlist.add_port("p_in", "n0")
    if n_ports == 2:
        netlist.add_port("p_out", f"n{n_sections}")
    # A small conductance at the driving node keeps the port node from being a
    # pure constraint when the first section's resistor is removed by overrides.
    netlist.add_resistor("r_in", "n0", "0", 1.0 / max(shunt_conductance, 1e-3))
    for k in range(1, n_sections + 1):
        netlist.add_resistor(f"r{k}", f"n{k - 1}", f"m{k}", series_resistance)
        netlist.add_inductor(f"l{k}", f"m{k}", f"n{k}", series_inductance)
        netlist.add_capacitor(f"c{k}", f"n{k}", "0", shunt_capacitance)
        netlist.add_resistor(
            f"rg{k}", f"n{k}", "0", 1.0 / shunt_conductance
        )
    return assemble_mna(netlist)


def impulsive_rlc_ladder(
    n_sections: int,
    n_impulsive_stubs: int = 1,
    series_port_inductor: Optional[float] = 0.5,
    stub_inductance: float = 0.6,
    **ladder_kwargs: float,
) -> MnaModel:
    """RLC ladder augmented with the circuit structures that create impulsive modes.

    * ``n_impulsive_stubs`` inductor-only stub nodes are hung off the ladder
      taps: each stub node connects to its tap and to ground through inductors
      only, forming an L-cutset (MNA index 2).
    * ``series_port_inductor`` (set to ``None`` to disable) inserts an inductor
      between the driving port and the ladder, which makes the port impedance
      grow like ``s L`` at high frequency — a nonzero, positive semidefinite
      first Markov parameter ``M1``.

    Every added structure is built from positive elements, so the model stays
    passive by construction.
    """
    if n_impulsive_stubs < 0:
        raise DimensionError("n_impulsive_stubs must be nonnegative")
    if n_impulsive_stubs > n_sections:
        raise DimensionError("at most one stub per ladder section is supported")
    netlist = _ladder_netlist(n_sections, **ladder_kwargs)

    for j in range(1, n_impulsive_stubs + 1):
        tap = f"n{j}"
        stub = f"stub{j}"
        netlist.add_inductor(f"ls{j}a", tap, stub, stub_inductance)
        netlist.add_inductor(f"ls{j}b", stub, "0", stub_inductance)

    if series_port_inductor is not None:
        # Move the driving port to a new node connected through an inductor.
        netlist.ports = [p for p in netlist.ports if p.name != "p_in"]
        netlist.add_inductor("l_port", "pdrive", "n0", float(series_port_inductor))
        netlist.add_port("p_in", "pdrive")
    return assemble_mna(netlist)


def _ladder_netlist(
    n_sections: int,
    series_resistance: float = 0.4,
    series_inductance: float = 0.8,
    shunt_capacitance: float = 1.0,
    shunt_conductance: float = 0.05,
    n_ports: int = 1,
) -> Netlist:
    """Netlist of :func:`rlc_ladder` (kept separate so generators can extend it)."""
    if n_sections < 1:
        raise DimensionError("the ladder needs at least one section")
    netlist = Netlist()
    netlist.add_port("p_in", "n0")
    if n_ports == 2:
        netlist.add_port("p_out", f"n{n_sections}")
    netlist.add_resistor("r_in", "n0", "0", 1.0 / max(shunt_conductance, 1e-3))
    for k in range(1, n_sections + 1):
        netlist.add_resistor(f"r{k}", f"n{k - 1}", f"m{k}", series_resistance)
        netlist.add_inductor(f"l{k}", f"m{k}", f"n{k}", series_inductance)
        netlist.add_capacitor(f"c{k}", f"n{k}", "0", shunt_capacitance)
        netlist.add_resistor(f"rg{k}", f"n{k}", "0", 1.0 / shunt_conductance)
    return netlist


def rc_line(
    n_sections: int,
    series_resistance: float = 0.5,
    shunt_capacitance: float = 1.0,
    n_ports: int = 1,
) -> MnaModel:
    """Impulse-free RC ladder (the classic interconnect RC line model).

    Every internal node carries a capacitor, so the MNA model has index at
    most 1; the driving node has no capacitor which keeps ``E`` singular and
    the model a genuine descriptor system.
    """
    if n_sections < 1:
        raise DimensionError("the RC line needs at least one section")
    netlist = Netlist()
    netlist.add_port("p_in", "n0")
    if n_ports == 2:
        netlist.add_port("p_out", f"n{n_sections}")
    netlist.add_resistor("r_in", "n0", "0", 50.0)
    for k in range(1, n_sections + 1):
        netlist.add_resistor(f"r{k}", f"n{k - 1}", f"n{k}", series_resistance)
        netlist.add_capacitor(f"c{k}", f"n{k}", "0", shunt_capacitance)
    return assemble_mna(netlist)


# ----------------------------------------------------------------------
# Large parameterized workloads for the sparse backend
# ----------------------------------------------------------------------
def rc_grid(
    rows: int,
    cols: int,
    series_resistance: float = 0.5,
    shunt_capacitance: float = 1.0,
    shunt_conductance: float = 0.02,
    n_ports: int = 2,
    sparse: bool = True,
) -> MnaModel:
    """2-D RC mesh: ``rows x cols`` nodes, resistive links, shunt C at each node.

    The canonical power-grid / substrate interconnect workload: every matrix
    row has at most five nonzeros, so the model scales to tens of thousands of
    nodes on the sparse assembly path.  The port corner nodes carry no
    capacitor, which keeps ``E`` singular and the model a genuine (index-1)
    descriptor system; everything is built from positive elements and is
    passive by construction.

    The model order is ``rows * cols``; ports sit at the grid corners (up to
    four).
    """
    if rows < 2 or cols < 2:
        raise DimensionError("the grid needs at least 2 x 2 nodes")
    if not 1 <= n_ports <= 4:
        raise DimensionError("the grid supports 1 to 4 corner ports")
    netlist = Netlist()

    def node(r: int, c: int) -> str:
        return f"g{r}_{c}"

    corners = [(0, 0), (rows - 1, cols - 1), (0, cols - 1), (rows - 1, 0)]
    port_nodes = {node(r, c) for r, c in corners[:n_ports]}
    for k, (r, c) in enumerate(corners[:n_ports]):
        netlist.add_port(f"p{k}", node(r, c))
    for r in range(rows):
        for c in range(cols):
            label = node(r, c)
            if c + 1 < cols:
                netlist.add_resistor(f"rh{r}_{c}", label, node(r, c + 1), series_resistance)
            if r + 1 < rows:
                netlist.add_resistor(f"rv{r}_{c}", label, node(r + 1, c), series_resistance)
            if label in port_nodes:
                # Port corners: conductance only, so E stays singular.
                netlist.add_resistor(f"rg{r}_{c}", label, "0", 1.0 / max(shunt_conductance, 1e-3))
            else:
                netlist.add_capacitor(f"c{r}_{c}", label, "0", shunt_capacitance)
                netlist.add_resistor(f"rg{r}_{c}", label, "0", 1.0 / shunt_conductance)
    return assemble_mna(netlist, sparse=sparse)


def rlc_grid(
    rows: int,
    cols: int,
    series_resistance: float = 0.4,
    link_inductance: float = 0.6,
    shunt_capacitance: float = 1.0,
    shunt_conductance: float = 0.02,
    n_ports: int = 2,
    sparse: bool = True,
) -> MnaModel:
    """2-D RLC mesh: resistive rows, inductive columns, shunt C at each node.

    Horizontal links are resistors, vertical links are inductors (adding one
    inductor-current state each), so the model mixes capacitive, inductive and
    resistive dynamics like an on-chip power grid with package inductance.
    The order is ``rows * cols + (rows - 1) * cols`` (nodes plus one inductor
    current per vertical link); each vertical link carries a small parallel
    resistor to keep the finite spectrum strictly damped.
    """
    if rows < 2 or cols < 2:
        raise DimensionError("the grid needs at least 2 x 2 nodes")
    if not 1 <= n_ports <= 4:
        raise DimensionError("the grid supports 1 to 4 corner ports")
    netlist = Netlist()

    def node(r: int, c: int) -> str:
        return f"g{r}_{c}"

    corners = [(0, 0), (rows - 1, cols - 1), (0, cols - 1), (rows - 1, 0)]
    port_nodes = {node(r, c) for r, c in corners[:n_ports]}
    for k, (r, c) in enumerate(corners[:n_ports]):
        netlist.add_port(f"p{k}", node(r, c))
    for r in range(rows):
        for c in range(cols):
            label = node(r, c)
            if c + 1 < cols:
                netlist.add_resistor(f"rh{r}_{c}", label, node(r, c + 1), series_resistance)
            if r + 1 < rows:
                netlist.add_inductor(f"lv{r}_{c}", label, node(r + 1, c), link_inductance)
                # Parallel loss keeps every LC resonance strictly damped.
                netlist.add_resistor(
                    f"rl{r}_{c}", label, node(r + 1, c), 10.0 / max(shunt_conductance, 1e-3)
                )
            if label in port_nodes:
                netlist.add_resistor(f"rg{r}_{c}", label, "0", 1.0 / max(shunt_conductance, 1e-3))
            else:
                netlist.add_capacitor(f"c{r}_{c}", label, "0", shunt_capacitance)
                netlist.add_resistor(f"rg{r}_{c}", label, "0", 1.0 / shunt_conductance)
    return assemble_mna(netlist, sparse=sparse)


def coupled_line_bus(
    n_lines: int,
    n_sections: int,
    series_resistance: float = 0.4,
    series_inductance: float = 0.8,
    shunt_capacitance: float = 1.0,
    shunt_conductance: float = 0.05,
    coupling_capacitance: float = 0.25,
    sparse: bool = True,
) -> MnaModel:
    """Multi-port bus of capacitively coupled RLC transmission-line ladders.

    ``n_lines`` parallel R-L/C ladders with coupling capacitors between
    adjacent lines at every tap, one port per line at the near end — the
    classic coupled-interconnect crosstalk workload.  The coupling capacitors
    make the nodal capacitance block genuinely non-diagonal, which exercises
    the sparse deflation's non-trivial ``E11``.  Order is
    ``n_lines * (3 * n_sections + 1)``.
    """
    if n_lines < 2:
        raise DimensionError("the bus needs at least two coupled lines")
    if n_sections < 1:
        raise DimensionError("each line needs at least one section")
    netlist = Netlist()
    for line in range(n_lines):
        netlist.add_port(f"p{line}", f"t{line}_0")
        netlist.add_resistor(
            f"rin{line}", f"t{line}_0", "0", 1.0 / max(shunt_conductance, 1e-3)
        )
        for k in range(1, n_sections + 1):
            netlist.add_resistor(
                f"r{line}_{k}", f"t{line}_{k - 1}", f"m{line}_{k}", series_resistance
            )
            netlist.add_inductor(
                f"l{line}_{k}", f"m{line}_{k}", f"t{line}_{k}", series_inductance
            )
            netlist.add_capacitor(f"c{line}_{k}", f"t{line}_{k}", "0", shunt_capacitance)
            netlist.add_resistor(
                f"rg{line}_{k}", f"t{line}_{k}", "0", 1.0 / shunt_conductance
            )
    for line in range(n_lines - 1):
        for k in range(1, n_sections + 1):
            netlist.add_capacitor(
                f"cc{line}_{k}", f"t{line}_{k}", f"t{line + 1}_{k}", coupling_capacitance
            )
    return assemble_mna(netlist, sparse=sparse)


def random_coupled_bus(
    n_nodes: int,
    n_ports: int = 2,
    extra_edge_fraction: float = 0.5,
    capacitor_fraction: float = 0.7,
    inductor_fraction: float = 0.1,
    seed: Optional[int] = None,
    sparse: bool = True,
) -> MnaModel:
    """Randomized connected RLC network, passive by construction.

    A random spanning tree over ``n_nodes`` nodes plus
    ``extra_edge_fraction * n_nodes`` chords, all resistive; a random
    ``capacitor_fraction`` of the nodes get shunt capacitors,
    ``inductor_fraction`` of the chords become inductive links, and every node
    keeps a small shunt conductance so the model is strictly lossy.  A chord
    that would close a loop of inductors alone (a lossless mode at s = 0)
    stays resistive, so every finite pole lies in the open left half plane.  All
    element values are positive, so the MNA model satisfies the structural
    passivity LMI regardless of the drawn topology — which is what makes this
    generator suitable for property-based testing of the sparse backend.
    """
    if n_nodes < 2:
        raise DimensionError("the bus needs at least two nodes")
    if not 1 <= n_ports <= n_nodes:
        raise DimensionError("n_ports must be between 1 and n_nodes")
    rng = np.random.default_rng(seed)
    netlist = Netlist()

    def value(low: float = 0.2, high: float = 1.2) -> float:
        return float(low + (high - low) * rng.random())

    # Random spanning tree: connect each node to a random earlier node.
    for k in range(1, n_nodes):
        other = int(rng.integers(0, k))
        netlist.add_resistor(f"rt{k}", f"n{k}", f"n{other}", value())
    n_extra = int(extra_edge_fraction * n_nodes)
    n_inductive = int(inductor_fraction * n_extra)
    # Union-find over the inductive links, to keep them a forest.
    inductor_root = list(range(n_nodes))

    def root(node: int) -> int:
        while inductor_root[node] != node:
            node = inductor_root[node]
        return node

    for j in range(n_extra):
        i, k = rng.integers(0, n_nodes, size=2)
        if i == k:
            continue
        if j < n_inductive and root(int(i)) != root(int(k)):
            inductor_root[root(int(i))] = root(int(k))
            netlist.add_inductor(f"le{j}", f"n{int(i)}", f"n{int(k)}", value(0.3, 1.0))
        else:
            netlist.add_resistor(f"re{j}", f"n{int(i)}", f"n{int(k)}", value())
    capacitive = rng.random(n_nodes) < capacitor_fraction
    for k in range(n_nodes):
        if capacitive[k]:
            netlist.add_capacitor(f"c{k}", f"n{k}", "0", value(0.5, 1.5))
        netlist.add_resistor(f"rg{k}", f"n{k}", "0", 1.0 / value(0.01, 0.05))
    for k, port_node in enumerate(rng.choice(n_nodes, size=n_ports, replace=False)):
        netlist.add_port(f"p{k}", f"n{int(port_node)}")
    return assemble_mna(netlist, sparse=sparse)


def paper_benchmark_model(
    order: int,
    n_impulsive_stubs: int = 1,
    with_port_inductor: bool = True,
    seed: int = 0,
) -> MnaModel:
    """A passive RLC descriptor model of exactly the requested ``order``.

    Mirrors the workload of the paper's Table 1 / Figure 2: RLC interconnect
    models with a handful of impulsive modes, swept over the order.  The bulk
    of the order comes from ladder sections; the exact order is reached by
    padding with additional shunt RC branches, and the impulsive structure is
    provided by inductor stubs and a series port inductor.

    The minimum supported order is 12.
    """
    if order < 12:
        raise DimensionError("paper_benchmark_model supports order >= 12")
    rng = np.random.default_rng(seed)

    overhead = 2 * n_impulsive_stubs + n_impulsive_stubs  # stub node + 2 inductors
    overhead += 2 if with_port_inductor else 0            # drive node + inductor
    body = order - overhead
    n_sections = max(1, (body - 1) // 3)
    n_sections = min(n_sections, max(1, n_sections))
    used = 3 * n_sections + 1 + overhead
    n_pad = order - used
    if n_pad < 0:
        n_sections -= 1
        used = 3 * n_sections + 1 + overhead
        n_pad = order - used
    if n_sections < 1 or n_pad < 0:
        raise DimensionError(f"cannot synthesize a model of order {order}")

    netlist = _ladder_netlist(n_sections)
    stubs = min(n_impulsive_stubs, n_sections)
    for j in range(1, stubs + 1):
        tap = f"n{j}"
        stub = f"stub{j}"
        netlist.add_inductor(f"ls{j}a", tap, stub, 0.6)
        netlist.add_inductor(f"ls{j}b", stub, "0", 0.6)
    if with_port_inductor:
        netlist.ports = [p for p in netlist.ports if p.name != "p_in"]
        netlist.add_inductor("l_port", "pdrive", "n0", 0.5)
        netlist.add_port("p_in", "pdrive")

    # Pad to the exact order with shunt RC branches attached round-robin to the
    # ladder taps; each branch adds exactly one state (the new node voltage).
    for p in range(n_pad):
        tap = f"n{1 + (p % n_sections)}"
        pad_node = f"pad{p}"
        netlist.add_resistor(
            f"rp{p}", tap, pad_node, float(0.3 + 0.4 * rng.random())
        )
        netlist.add_capacitor(
            f"cp{p}", pad_node, "0", float(0.5 + rng.random())
        )
    model = assemble_mna(netlist)
    if model.system.order != order:
        raise DimensionError(
            f"internal error: synthesized order {model.system.order} != {order}"
        )
    return model


def random_passive_descriptor(
    order: int,
    n_ports: int = 2,
    rank_deficiency: int = 2,
    seed: Optional[int] = None,
    feedthrough_scale: float = 0.5,
) -> DescriptorSystem:
    """Random descriptor system that is passive by construction.

    Builds ``E = E^T >= 0`` with the requested rank deficiency,
    ``A = -K + S`` with ``K`` symmetric positive definite and ``S``
    skew-symmetric, ``C = B^T`` and ``D`` with a positive semidefinite
    symmetric part.  With ``X = I`` this satisfies the extended positive-real
    LMI (Eq. 4), so the system is passive whenever the pencil is regular —
    which the construction checks and enforces by adding diagonal damping if
    necessary.
    """
    if rank_deficiency >= order:
        raise DimensionError("rank_deficiency must be smaller than the order")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((order, order)))
    eigenvalues = np.concatenate(
        [0.2 + rng.random(order - rank_deficiency), np.zeros(rank_deficiency)]
    )
    e_matrix = basis @ np.diag(eigenvalues) @ basis.T
    e_matrix = 0.5 * (e_matrix + e_matrix.T)

    for damping in (0.5, 1.0, 2.0, 4.0):
        k_factor = rng.standard_normal((order, order)) / np.sqrt(order)
        k_matrix = k_factor @ k_factor.T + damping * np.eye(order)
        s_matrix = rng.standard_normal((order, order))
        s_matrix = 0.5 * (s_matrix - s_matrix.T)
        a_matrix = -k_matrix + s_matrix
        b_matrix = rng.standard_normal((order, n_ports))
        d_factor = rng.standard_normal((n_ports, n_ports))
        d_matrix = feedthrough_scale * (d_factor @ d_factor.T + 0.1 * np.eye(n_ports))
        system = DescriptorSystem(e_matrix, a_matrix, b_matrix, b_matrix.T, d_matrix)
        if system.is_regular() and system.is_stable():
            return system
    raise DimensionError(
        "failed to generate a regular stable passive descriptor system; "
        "try a different seed"
    )


def negative_resistor_perturbation(
    model: MnaModel, conductance: float, node: Optional[str] = None
) -> DescriptorSystem:
    """Insert a negative conductance at a node, producing an active (non-passive) model.

    The perturbed model usually stays stable for small ``conductance`` but its
    impedance acquires a negative-real-part region, so passivity tests must
    reject it.
    """
    system = model.system
    node_index = model.node_index
    if node is None:
        node = next(iter(sorted(node_index)))
    if node not in node_index:
        raise DimensionError(f"unknown node {node!r}")
    i = node_index[node]
    a_matrix = system.a.copy()
    a_matrix[i, i] += conductance
    return DescriptorSystem(system.e, a_matrix, system.b, system.c, system.d)


def feedthrough_perturbation(
    system: DescriptorSystem, magnitude: float
) -> DescriptorSystem:
    """Subtract ``magnitude * I`` from the feedthrough, shifting the response down.

    For magnitudes larger than the minimum of the real part of the frequency
    response this produces a non-passive system while leaving the pole
    structure untouched.
    """
    d_matrix = system.d - magnitude * np.eye(system.n_outputs)
    return DescriptorSystem(system.e, system.a, system.b, system.c, d_matrix)


def perturb_system(
    system: DescriptorSystem,
    scale: float,
    seed: int = 0,
    pattern: str = "a",
) -> DescriptorSystem:
    """Multiplicative perturbation of a system's nonzero stamps.

    Models process/temperature corners of an extracted netlist: every nonzero
    entry of the selected matrices is scaled by ``1 + scale * g`` with
    independent standard-normal ``g``, so the sparsity pattern (and hence the
    circuit topology) is exactly preserved — the delta fingerprint of the
    perturbed system against its nominal ancestor has the same support.
    Element-wise multiplicative noise on passive stamps stays passive for the
    physically relevant scales (``scale`` well below 1).

    Parameters
    ----------
    pattern:
        Which matrices to perturb, as a string of matrix letters: any
        subset-string of ``"eabcd"`` (e.g. ``"a"`` for conductance-only
        sweeps — the fast path of the incremental tier — or ``"ea"`` for
        full reactive + resistive variation), or ``"all"``.
    seed:
        Seeds a dedicated :func:`numpy.random.default_rng`; distinct seeds
        give independent corners of the same family.
    """
    pattern = "eabcd" if pattern == "all" else pattern
    unknown = set(pattern) - set("eabcd")
    if not pattern or unknown:
        raise DimensionError(
            f"pattern must be 'all' or a non-empty subset-string of 'eabcd', "
            f"got {pattern!r}"
        )
    rng = np.random.default_rng(seed)

    def perturbed(matrix, selected: bool):
        if not selected:
            return matrix
        copy = matrix.copy()
        if hasattr(copy, "toarray"):  # CSR stamp: the nonzeros live in .data
            copy.data = copy.data * (1.0 + scale * rng.standard_normal(copy.data.shape))
            return copy
        mask = copy != 0
        count = int(mask.sum())
        if count:
            copy[mask] *= 1.0 + scale * rng.standard_normal(count)
        return copy

    # Sparse systems densify through .e/.a; perturb the CSR stamps instead so
    # the corner family keeps the nominal model's storage (and the sparse
    # method dispatch that follows from it).
    e_stamp = system.sparse_e if system.is_sparse else system.e
    a_stamp = system.sparse_a if system.is_sparse else system.a
    return DescriptorSystem(
        perturbed(e_stamp, "e" in pattern),
        perturbed(a_stamp, "a" in pattern),
        perturbed(system.b, "b" in pattern),
        perturbed(system.c, "c" in pattern),
        perturbed(system.d, "d" in pattern),
    )


def corner_family(
    system: DescriptorSystem,
    n_corners: int,
    scale: float = 2e-4,
    seed: int = 0,
    pattern: str = "a",
) -> list:
    """Multiplicative corner family of an arbitrary base system.

    Returns ``n_corners`` descriptor systems: the given ``system`` first
    (the nominal family root), then ``n_corners - 1`` independent
    multiplicative corners of it via :func:`perturb_system` with seeds
    ``seed + 1 ..``.  This is the expansion behind ``"corners"`` scenarios
    (:class:`~repro.service.ScenarioSpec`) and generalizes
    :func:`rlc_grid_corners` to any base model.
    """
    if n_corners < 1:
        raise DimensionError("the family needs at least one corner")
    family = [system]
    for corner in range(1, n_corners):
        family.append(perturb_system(system, scale, seed=seed + corner, pattern=pattern))
    return family


def rlc_grid_corners(
    rows: int,
    cols: int,
    n_corners: int,
    scale: float = 2e-4,
    seed: int = 0,
    pattern: str = "a",
    **grid_kwargs,
) -> list:
    """Swept corner family of one :func:`rlc_grid` power-grid model.

    Returns ``n_corners`` descriptor systems: the nominal grid first, then
    ``n_corners - 1`` independent multiplicative corners of it (seeds
    ``seed + 1 ..``) via :func:`perturb_system`.  This is the canonical
    workload of the incremental re-certification tier: one cold
    factorization of the nominal system warm-starts every corner.

    ``grid_kwargs`` are forwarded to :func:`rlc_grid` (the family defaults to
    the dense damped variant used by the sweep benchmark:
    ``series_resistance=0.8, shunt_conductance=0.1, sparse=False``).
    """
    if n_corners < 1:
        raise DimensionError("the family needs at least one corner")
    grid_kwargs.setdefault("series_resistance", 0.8)
    grid_kwargs.setdefault("shunt_conductance", 0.1)
    grid_kwargs.setdefault("sparse", False)
    nominal = rlc_grid(rows, cols, **grid_kwargs).system
    return corner_family(nominal, n_corners, scale=scale, seed=seed, pattern=pattern)
