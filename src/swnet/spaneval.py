"""Simulated span-program evaluation of a switching network.

The quantum algorithm walks the product of two reflections: one around the
input-dependent space A(x), one around the input-independent space B.  The
reflection around B is implemented by generating a basis of its orthogonal
complement and flipping that span, so the operator actually applied is

    U_alg = (2 P_A - I)(I - 2 P_Bperp) = -(2 P_A - I)(2 P_B - I).

Connectivity shows up in the fixed space of U_alg: the intersection of
A(x) with the complement of B is exactly the set of boundary-locked flows
supported on on-edges, and such a flow with unit source throughput exists
iff the source reaches the sink through on-edges.  The initial state

    psi0 = (|s> - |t>) / sqrt(2)

lies in the complement of B; its fixed-space mass is exactly
2 / (2 R + 4) on accepting inputs, where R is the optimal on-flow energy,
that is the source-sink effective resistance of the on-subgraph (so at
least 2 / (2 W+ + 4) with W+ the witness-length bound), and exactly zero
on rejecting inputs (the witness-size identity of Belovs and Reichardt).
Phase estimation at the cost the runtime formula pays therefore resolves
the answer.

Desk-scale shortcut: the spectral decision reads that mass off the
identity, at every network size.  An ``Evaluation`` of one source and one
length bound builds and masks the network once and factors the Laplacian
of the source's on-component, grounded at the source, once; R for each
sink is then one triangular solve, so one evaluation answers every sink.
Two routes read the mass off the spectrum instead and serve as
cross-checks: ``phase_mass`` diagonalizes the small symmetric matrix
M = Q^T P_A Q on the generated complement basis Q (psi0 lies in that
complement, which every Jordan block of U_alg meets in at most one
direction), and ``decide_phase_estimation`` decomposes the dense
ReflectionPair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import flows as fl
from .errors import BasisMismatch, InvalidParams
from .graphs import Digraph, GraphOracle, attach_source_path, pad_to_power_of_two
from .network import SwitchingNet, _component_and_parents, build, on_edge_mask
from .network import accepts  # noqa: F401  (bound here for perfbench's tracer, which wraps spaneval.accepts)

#: calibration of the simulated decider: a single global rule, not tuned
#: per instance.  The acceptance threshold is half the guaranteed witness
#: mass 2/(2 W+ + 4) at witness bound W+ = L^(log 3).
PHASE_TOL = 1e-9
PSI0_LABEL = "(|s> - |t>)/sqrt(2)"


def acceptance_threshold(ell: int) -> float:
    """Half the minimum fixed-space mass an accepting instance can show."""
    w_plus = 3**ell
    return 1.0 / (2 * w_plus + 4)


def time_formula(n: int, L: int) -> float:
    """Accounted quantum time for one length-L decision on n vertices."""
    return math.sqrt(L ** math.log2(3) * (2 * n + 1) ** math.log2(L) * n) if L > 1 else math.sqrt(n)


def quantum_space_cells(n: int, L: int) -> int:
    """Register cells to address the edge space plus direction and boundary.

    A bound L that is not a power of two is grafted up to 2^ceil(log2 L), so
    it is charged the cells of that network.
    """
    edge_count = (2 * n + 1) ** (L - 1).bit_length() * n
    return math.ceil(math.log2(2 * edge_count + 4)) + 2


# -- resource ledger ----------------------------------------------------------

@dataclass
class ResourceLedger:
    """Operation counters shared by the deciders and the outer driver.

    ``network_evaluations`` counts the switching-network evaluations
    actually run; a call answered from an earlier evaluation is still
    charged its full time, queries and decider call but adds 0 there.
    """

    time_steps: float = 0.0
    space_cells: int = 0
    oracle_queries: int = 0
    quantum_space_cells: int = 0
    decider_calls: int = 0
    network_evaluations: int = 0
    guard_exhausted: bool = False
    peak_frontier: int = 0

    def fold(self, other: ResourceLedger) -> None:
        """Charge other to this ledger: counts add, space and frontier take the max."""
        self.time_steps += other.time_steps
        self.oracle_queries += other.oracle_queries
        self.decider_calls += other.decider_calls
        self.network_evaluations += other.network_evaluations
        self.space_cells = max(self.space_cells, other.space_cells)
        self.quantum_space_cells = max(self.quantum_space_cells, other.quantum_space_cells)
        self.peak_frontier = max(self.peak_frontier, other.peak_frontier)
        self.guard_exhausted = self.guard_exhausted or other.guard_exhausted


# -- reflections (dense, small instances) --------------------------------------

@dataclass
class ReflectionPair:
    """Dense projectors and the product of reflections for one input."""

    P_A: np.ndarray
    P_B: np.ndarray
    U: np.ndarray
    net: SwitchingNet
    sink_index: int
    on_mask: np.ndarray

    @property
    def U_alg(self) -> np.ndarray:
        """The operator the algorithm applies (reflects the generated basis)."""
        return -self.U


def build_reflections(net: SwitchingNet, oracle: GraphOracle, sink_index: int) -> ReflectionPair:
    """Build P_A, P_B and U; P_B is constructed twice and must agree.

    Route one orthonormalizes the cut-space spanning set directly; route
    two takes I minus the projector onto the generated complement basis.
    Disagreement beyond 1e-8 Frobenius signals an implementation bug and
    raises BasisMismatch.
    """
    A_cols, mask = fl.build_A_basis(net, oracle)
    P_A = fl.projector(A_cols)
    # the cut-space stars and symmetric edge vectors are independent, so a
    # rank drop here is a bug, not a property of the input
    span_B = fl.build_B_spanning(net, sink_index)
    P_B = fl.projector(span_B)
    Qr = fl.build_Bperp_basis(net, sink_index)
    Qf = np.column_stack([fl.reduced_to_full(net, Qr[:, k]) for k in range(Qr.shape[1])])
    P_B2 = np.eye(P_B.shape[0]) - fl.projector(Qf)
    mismatch = np.linalg.norm(P_B - P_B2)
    if mismatch > 1e-8:
        raise BasisMismatch(f"cut-space projector routes disagree: {mismatch:.3e} Frobenius")
    U = (2 * P_A - np.eye(P_A.shape[0])) @ (2 * P_B - np.eye(P_B.shape[0]))
    return ReflectionPair(P_A=P_A, P_B=P_B, U=U, net=net, sink_index=sink_index, on_mask=mask)


@dataclass
class DecisionReport:
    """Outcome of one simulated span-program decision.

    ``route`` names how the answer was reached; see Evaluation.
    """

    accepted: bool
    overlap0: float
    witness_energy: float | None
    path_len: int | None
    threshold: float
    route: str
    psi0: str = PSI0_LABEL
    ledger: ResourceLedger = field(default_factory=ResourceLedger)


def default_psi0(net: SwitchingNet) -> np.ndarray:
    """(|s> - |t>)/sqrt(2) in the full representation."""
    out = np.zeros(fl.full_dim(net))
    E = net.edge_count
    out[2 * E] = 1 / math.sqrt(2)
    out[2 * E + 1] = -1 / math.sqrt(2)
    return out


def decide_phase_estimation(
    pair: ReflectionPair, psi0: np.ndarray, threshold: float | None = None
) -> DecisionReport:
    """Decide from the exact eigenstructure of the product of reflections.

    overlap0 is the squared overlap of psi0 with the phase-0 eigenspace of
    U_alg, read off as the kernel of U_alg - I (eigenphases grouped at
    tolerance PHASE_TOL); accepted means overlap0 >= threshold.  The
    report's ledger stays empty: decide_length_bounded charges the decision.
    """
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise InvalidParams("psi0 must be normalized")
    net = pair.net
    if threshold is None:
        threshold = acceptance_threshold(net.ell)
    # kernel of U_alg - I via SVD; singular values below tol span the fixed space
    M = pair.U_alg - np.eye(pair.U.shape[0])
    _, svals, vt = np.linalg.svd(M)
    fixed = vt[svals < PHASE_TOL, :]
    overlap0 = float((fixed @ psi0) @ (fixed @ psi0))
    accepted = overlap0 >= threshold
    witness_energy = path_len = None
    if accepted:
        theta = fl.optimal_flow_lsq(net, pair.on_mask, pair.sink_index)
        witness_energy = float(theta @ theta)
        dist, _ = _component_and_parents(net, pair.on_mask)
        path_len = int(dist[net.sink(pair.sink_index)])
    return DecisionReport(
        accepted=accepted, overlap0=overlap0, witness_energy=witness_energy,
        path_len=path_len, threshold=threshold, route="dense",
    )


# -- sector cross-check ----------------------------------------------------------

def phase_mass(net: SwitchingNet, oracle: GraphOracle, sink_index: int) -> float:
    """overlap0 of the default psi0, via the complement-basis sector.

    Computes the spectrum of M = Q^T P_A Q on the generated complement
    basis Q.  A sector direction with M-eigenvalue mu sits in a Jordan
    block of U_alg with eigenphase pair +-(pi - 2 arccos sqrt(mu)), so the
    phase-0 component of psi0 is its mass on the mu = 1 eigenspace.
    Equals decide_phase_estimation's overlap0 without building dense
    projectors.  The complement basis is built on every call.
    """
    Q = fl.build_Bperp_basis(net, sink_index)
    mask = on_edge_mask(net, oracle)
    E = net.edge_count
    cols = [Q[:E, :][mask, :].T]
    for pair_slots in ((fl.S_SLOT, fl.LS_SLOT), (fl.T_SLOT, fl.RT_SLOT)):
        a = np.zeros(E + 4)
        a[E + pair_slots[0]] = a[E + pair_slots[1]] = 1 / math.sqrt(2)
        cols.append((Q.T @ a)[:, None])
    C = np.column_stack(cols)
    mu, V = np.linalg.eigh(C @ C.T)
    psi = np.zeros(E + 4)
    psi[E + fl.S_SLOT] = 1 / math.sqrt(2)
    psi[E + fl.T_SLOT] = -1 / math.sqrt(2)
    m = (V.T @ (Q.T @ psi)) ** 2
    return float(m[mu >= 1 - PHASE_TOL].sum())


def witness_energy(net: SwitchingNet, oracle: GraphOracle, sink_index: int) -> float:
    """Minimum flow energy over unit on-flows; at most the witness path length."""
    mask = on_edge_mask(net, oracle)
    theta = fl.optimal_flow_lsq(net, mask, sink_index)
    return float(theta @ theta)


# -- the length-bounded decision pipeline ---------------------------------------

SPECTRAL_DIM_CAP = 5000  # state-space dimension above which spectral-dense refuses


class Evaluation:
    """One network evaluation for a source u and a length bound L (any L >= 1).

    Rounds L up to 2^ell = 2^ceil(log2 L) by grafting a feeder path of
    2^ell - L vertices into u, pads the graph to a power of two, builds the
    depth-ell network rooted at the chain head and masks its edges (|E|
    oracle queries), once.  The source's on-component is also found once,
    on the first sink that needs it.  ``report(v)`` then answers "is there a
    directed u -> v path of length at most L" along one route, recorded in
    ``report.route``:

    - ``trivial``: v == u, answered without the network;
    - ``exact`` (mode "exact"): a lookup in the one BFS over the
      on-subgraph that every sink shares;
    - ``resistance`` (mode "spectral", every size): the fixed-space mass
      2 / (2 R + 4), or 0 when the sink is outside the source's component.
      R = (L_s^-1)_tt is the effective resistance, from one triangular
      solve against the one factorization of the Laplacian of the source's
      component with the source grounded;
    - ``dense`` (mode "spectral-dense"): the dense reflections for sink v
      and their eigendecomposition, one per sink; refused with
      InvalidParams above SPECTRAL_DIM_CAP.

    Every report carries the full ledger of one decision: the accounted
    quantum time and register cells at the grafted, padded size, one
    decider call, the |E| oracle queries of the mask and one network
    evaluation.  The trivial report is charged one decider call at the
    padded, ungrafted size, with no queries and no evaluation.  With
    ``witness`` an accepted report also gets its witness path length and
    optimal on-flow energy; the exact and resistance routes take the energy
    from the shared factorization, which asks no oracle.
    """

    def __init__(self, g: Digraph, u: int, L: int, mode: str = "exact"):
        if L < 1:
            raise InvalidParams("L must be >= 1")
        if mode not in ("exact", "spectral", "spectral-dense"):
            raise InvalidParams(f"unknown mode {mode!r}")
        self.g, self.u, self.mode = g, u, mode
        self.L = 1 << (L - 1).bit_length()
        self.threshold = acceptance_threshold(self.L.bit_length() - 1)
        grafted, root = attach_source_path(g, u, self.L - L)
        self.graph = pad_to_power_of_two(grafted)
        self.net = self.mask = None  # above the padded size only v == u has an answer
        if self.L <= self.graph.n:
            oracle = GraphOracle(self.graph)
            self.net = build(self.graph.n, self.L.bit_length() - 1, root)
            self.mask = on_edge_mask(self.net, oracle)
            self._charge = ResourceLedger(
                time_steps=time_formula(self.graph.n, self.L),
                quantum_space_cells=quantum_space_cells(self.graph.n, self.L),
                oracle_queries=oracle.query_count, decider_calls=1, network_evaluations=1,
            )

    @cached_property
    def _dist(self) -> np.ndarray:
        """BFS distance from the source over on-edges, -1 outside its component."""
        return _component_and_parents(self.net, self.mask)[0]

    @cached_property
    def _component(self):
        """(lap, reach): the on-subgraph's Laplacian and the source's component."""
        _, lap, reach = fl.on_laplacian(self.net, self.mask)
        return lap, reach

    @cached_property
    def _grounded(self):
        """(unknowns, lu): the component's vertices other than the source, and
        the LU factors of the Laplacian on them; factored on the first
        connected sink, so a rejecting sink costs no factorization."""
        from scipy.sparse.linalg import splu

        lap, reach = self._component
        unknowns = np.flatnonzero(reach)
        unknowns = unknowns[unknowns != self.net.source]
        return unknowns, splu(lap[unknowns][:, unknowns].tocsc(), permc_spec=fl.LAPLACIAN_ORDER)

    def _resistance(self, t: int) -> float | None:
        """Effective resistance (L_s^-1)_tt to vertex t; None outside the source's component."""
        if not self._component[1][t]:
            return None
        unknowns, lu = self._grounded
        k = int(np.searchsorted(unknowns, t))
        rhs = np.zeros(unknowns.size)
        rhs[k] = 1.0
        return float(lu.solve(rhs)[k])

    def report(self, v: int, witness: bool = False) -> DecisionReport:
        """The decision for sink v; see the class docstring."""
        report = DecisionReport(
            accepted=True, overlap0=1.0, witness_energy=None, path_len=None,
            threshold=self.threshold, route="trivial",
        )
        if v == self.u:
            n = pad_to_power_of_two(self.g).n
            report.ledger = ResourceLedger(
                time_steps=time_formula(n, self.L), quantum_space_cells=quantum_space_cells(n, self.L),
                decider_calls=1,
            )
            if witness:
                report.witness_energy, report.path_len = 0.0, 0
            return report
        if self.net is None:
            raise InvalidParams(f"L = {self.L} exceeds padded vertex count {self.graph.n}")
        net, sink = self.net, v - 1
        t = net.sink(sink)
        if self.mode == "spectral-dense":
            dim = 2 * net.edge_count + 4
            if dim > SPECTRAL_DIM_CAP:
                raise InvalidParams(
                    f"spectral-dense needs {dim}x{dim} dense projectors, above SPECTRAL_DIM_CAP={SPECTRAL_DIM_CAP}"
                )
            # uncharged: the dense route masks again through its own oracle
            pair = build_reflections(net, GraphOracle(self.graph), sink)
            dense = decide_phase_estimation(pair, default_psi0(net))
            report.accepted, report.overlap0, report.route = dense.accepted, dense.overlap0, "dense"
            if witness:
                report.witness_energy, report.path_len = dense.witness_energy, dense.path_len
        elif self.mode == "spectral":
            report.route = "resistance"
            energy = self._resistance(t)
            if energy is None:
                report.accepted, report.overlap0 = False, 0.0
            else:
                report.overlap0 = 2 / (2 * energy + 4)
                report.accepted = report.overlap0 >= report.threshold
                if witness and report.accepted:
                    report.witness_energy, report.path_len = energy, int(self._dist[t])
        else:
            report.route = "exact"
            report.accepted = bool(self._dist[t] >= 0)
            report.overlap0 = float(report.accepted)
            if witness and report.accepted:
                report.witness_energy, report.path_len = self._resistance(t), int(self._dist[t])
        report.ledger = replace(self._charge)
        return report


def decide_length_bounded(
    g: Digraph, u: int, v: int, L: int, mode: str = "exact", witness: bool = False
) -> DecisionReport:
    """Is there a directed u -> v path of length at most L (L a power of two)?

    One Evaluation of (g, u, L), which grafts nothing at a power-of-two L,
    and its report for sink v; see Evaluation for the routes, the ledger and
    the witness fields.
    """
    if L < 1 or L & (L - 1):
        raise InvalidParams(f"L must be a positive power of two, got {L}")
    return Evaluation(g, u, L, mode).report(v, witness)


def decide_distance(
    g: Digraph, u: int, v: int, L: int, mode: str = "exact"
) -> tuple[bool, ResourceLedger]:
    """Is there a directed u -> v path of length at most L (any L >= 1)?

    The answer and ledger of one Evaluation's report for v.
    """
    report = Evaluation(g, u, L, mode).report(v)
    return report.accepted, report.ledger


def decide_distance_report(g: Digraph, u: int, v: int, L: int, mode: str = "exact") -> DecisionReport:
    """decide_distance as a full DecisionReport, witness fields included."""
    return Evaluation(g, u, L, mode).report(v, witness=True)
