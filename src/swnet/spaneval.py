"""Simulated span-program evaluation of a switching network.

The quantum algorithm walks the product of two reflections: one around the
input-dependent space A(x), one around the input-independent space B.  The
reflection around B is implemented by generating a basis of its orthogonal
complement and flipping that span, so the operator actually applied is

    U_alg = (2 P_A - I)(2 P_Bperp - I) = -(2 P_A - I)(2 P_B - I),

the negative of U = (2 P_A - I)(2 P_B - I), since 2 P_Bperp - I = I - 2 P_B.

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
identity, at every network size, and builds no network.  An ``Evaluation``
of one source and one length bound finds reach once, by a BFS of the input
graph bounded at the asked length, which the network theorem
(swnet.network) makes the source's on-component in the network on the
input grafted up to the rounded length; every route's verdict is held to
it, and it settles every rejection.  Only a route that builds the network
or reads R grafts the input.  It settles
every acceptance too: a reached sink has R <= 3^ell = W+ (the witness
bound, proved in the Evaluation docstring), so its mass is at least twice
the threshold, and the spectral verdicts are the reach itself.  Only a
report that reads the mass or the witness finds R, for every sink at once
(``network.source_resistances``, from the input graph along the
network's recursion, never from its |E| edges): it Kron-reduces each
block's on-subgraph onto its boundary, carries which boundary vertices
the on-edges join, and solves the top level over the source's component
alone, grounded at the source, so one evaluation answers every sink.
Every route's witness is that R and the path length 3^ell, which the
Evaluation docstring proves.
Two routes read the mass off the spectrum instead and serve as
cross-checks: ``phase_mass`` diagonalizes the small symmetric matrix
M = Q^T P_A Q on the generated complement basis Q (psi0 lies in that
complement, which every Jordan block of U_alg meets in at most one
direction), and ``decide_phase_estimation`` decomposes the dense
ReflectionPair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import flows as fl
from .errors import BasisMismatch, InvalidParams, ReachMismatch, WitnessBound
from .graphs import Digraph, GraphOracle, _reach_within, attach_source_path
from .graphs import pad_to_power_of_two  # noqa: F401  (bound here for perfbench's tracer, as accepts is)
from .network import SwitchingNet, accepts_all, build, check_edge_budget, on_edge_mask, source_resistances
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
    return math.sqrt(L ** math.log2(3) * (2 * n + 1) ** math.log2(L) * n)


def quantum_space_cells(n: int, L: int) -> int:
    """Register cells to address the edge space plus direction and boundary.

    n is the vertex count the network is built on (a decision's grafted
    n + 2^ceil(log2 L) - L, which need not be a power of two).  A bound L
    that is not a power of two is grafted up to 2^ceil(log2 L), so it is
    charged the cells of that network.
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
        # comparisons, not max() and or: fold runs once per decider call
        if other.space_cells > self.space_cells:
            self.space_cells = other.space_cells
        if other.quantum_space_cells > self.quantum_space_cells:
            self.quantum_space_cells = other.quantum_space_cells
        if other.peak_frontier > self.peak_frontier:
            self.peak_frontier = other.peak_frontier
        if other.guard_exhausted:
            self.guard_exhausted = True


@lru_cache(maxsize=1024)
def size_charges(n: int, L: int) -> tuple[ResourceLedger, ...]:
    """The ledgers of a decision charged at n vertices and L rounded up to a power of two.

    A decision's own charge, which counts one network evaluation, its
    repeat, which counts none, and a trivial v == u report's, which asks no
    queries and counts none.  Built once per size and shared read-only:
    callers fold them or pass them on.  Refusals are Evaluation's.
    """
    L = 1 << (L - 1).bit_length()
    time_steps, cells = time_formula(n, L), quantum_space_cells(n, L)
    edges = (2 * n + 1) ** (L.bit_length() - 1) * n
    return tuple(
        ResourceLedger(time_steps=time_steps, quantum_space_cells=cells, oracle_queries=queries, decider_calls=1,
                       network_evaluations=evaluations)
        for queries, evaluations in ((edges, 1), (edges, 0), (0, 0))
    )


# -- reflections (dense, small instances) --------------------------------------

@dataclass
class ReflectionPair:
    """Dense projectors and the product of reflections for one input."""

    P_A: np.ndarray
    P_B: np.ndarray
    U: np.ndarray
    net: SwitchingNet

    @property
    def U_alg(self) -> np.ndarray:
        """The operator the algorithm applies (reflects the generated basis)."""
        return -self.U


def build_reflections(net: SwitchingNet, oracle: GraphOracle, sink_index: int) -> ReflectionPair:
    """Build P_A, P_B and U; P_B is constructed twice and must agree.

    Every basis is one array build (flows.build_A_basis, build_B_spanning
    and the embedded build_Bperp_basis) and every projector one Householder
    QR (flows.projector), which raises RankDeficient on a dependent column.
    Route one projects onto the cut-space spanning set directly; route two
    takes I minus the projector onto the generated complement basis.
    Disagreement beyond 1e-8 Frobenius signals an implementation bug and
    raises BasisMismatch.
    """
    P_A = fl.projector(fl.build_A_basis(net, oracle)[0])
    # the cut-space stars and symmetric edge vectors are independent, so a
    # rank drop here is a bug, not a property of the input
    P_B = fl.projector(fl.build_B_spanning(net, sink_index))
    Qf = fl.reduced_to_full(net, fl.build_Bperp_basis(net, sink_index))
    eye = np.eye(P_B.shape[0])
    mismatch = np.linalg.norm(P_B - (eye - fl.projector(Qf)))
    if mismatch > 1e-8:
        raise BasisMismatch(f"cut-space projector routes disagree: {mismatch:.3e} Frobenius")
    U = (2 * P_A - eye) @ (2 * P_B - eye)
    return ReflectionPair(P_A=P_A, P_B=P_B, U=U, net=net)


@dataclass
class DecisionReport:
    """Outcome of one simulated span-program decision.

    ``route`` names how the answer was reached; see Evaluation.  The
    ledger is the report's own: Evaluation.report passes a copy of the
    shared size charge, so a caller may change it.
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


def decide_phase_estimation(pair: ReflectionPair, psi0: np.ndarray) -> DecisionReport:
    """Decide from the exact eigenstructure of the product of reflections.

    overlap0 is the squared overlap of psi0 with the phase-0 eigenspace of
    U_alg, read off as the kernel of U_alg - I (eigenphases grouped at
    tolerance PHASE_TOL); accepted means overlap0 >= acceptance_threshold.
    The witness fields stay None, and the report's ledger stays empty:
    Evaluation fills the witness and charges the decision, on every route.
    """
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise InvalidParams("psi0 must be normalized")
    threshold = acceptance_threshold(pair.net.ell)
    # kernel of U_alg - I via SVD; singular values below tol span the fixed space
    M = pair.U_alg - np.eye(pair.U.shape[0])
    _, svals, vt = np.linalg.svd(M)
    fixed = vt[svals < PHASE_TOL, :]
    overlap0 = float((fixed @ psi0) @ (fixed @ psi0))
    return DecisionReport(
        accepted=overlap0 >= threshold, overlap0=overlap0, witness_energy=None,
        path_len=None, threshold=threshold, route="dense",
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

    u must be a vertex of g and every sink v one too, else InvalidParams.
    Rounds L up to 2^ell = 2^ceil(log2 L): the depth-ell network is built on
    g with a feeder path of 2^ell - L vertices grafted into u, and rooted at
    the chain head, in every mode.  The graft (``graph``) is made once, and
    only by the routes that build the network or read R.  The rounded L may
    be at most the power of two at or above the grafted vertex count, and
    the network may have at most MAX_NETWORK_EDGES edges
    (network.check_edge_budget), in every mode, built or not; past either,
    ``charges`` raises InvalidParams, and verdicts() and every report of a
    sink v != u read it first, before anything is grafted or allocated.
    ``charges`` and ``_reach`` are properties over plain attributes filled
    on their first successful read, with no lock on that read.
    Reach is found once, off g, not off the graft, so a faulty graft cannot
    move it with the routes (graphs._reach_within): the vertices of g within
    the asked L of u, and the chain.  These are the vertices within distance
    2^ell of the root, which the network theorem (swnet.network) makes the
    sinks of the source's on-component.  Every route's verdict is held to
    it, and ReachMismatch, naming every sink index where they differ, is
    raised if they do.  ``verdicts()`` answers every sink at once, as one
    list, and ``report(v)`` answers "is there a directed u -> v path of
    length at most L" from the same reach, labels or resistances, each found
    once per evaluation, along one route, recorded in ``report.route``:

    - ``trivial``: v == u, answered without the network;
    - ``exact`` (mode "exact"): whether the component labels of the built
      and masked network put sink v in the source's on-component;
    - ``resistance`` (mode "spectral", every size): the fixed-space mass
      2 / (2 R + 4), or 0 when sink v is not reached; builds no network.
      R is the effective resistance, found for every sink at once on the
      first report of a reached sink by network.source_resistances: the
      network's recursion, Kron-reduced onto each block's (n'+1)-vertex
      boundary with the on-classes of that boundary beside it, and the top
      level solved over the source's component alone; the sinks those
      classes join to the source must be the reached sinks and no others,
      and each must have R <= 3^ell, else WitnessBound.  The verdict, in
      verdicts() and report(v) alike, is the reach, which by the witness
      bound below equals mass >= threshold, so verdicts() finds no R; an
      unreached sink's report reads no R either, so a rejection never
      finds it;
    - ``dense`` (mode "spectral-dense"): the dense reflections for sink v
      and their eigendecomposition, one per sink, on the built network;
      refused with InvalidParams above SPECTRAL_DIM_CAP, before it is
      built.  Its verdicts are decided sink by sink.

    Only the exact and dense routes build the network (``net``, on first
    use).  Every report carries its own copy of the full ledger of one decision:
    the accounted quantum time and register cells at the vertex count the
    network is built on (n + 2^ell - L), one decider call, the |E| oracle
    queries of masking the network and one network evaluation, charged
    whether or not the route builds it.  That is a function of the size
    alone, shared read-only by every evaluation of the size (``charges``,
    from size_charges).  The trivial report is charged one decider call at
    the graph's own n, with no queries and no evaluation, and builds
    nothing.

    With ``witness`` an accepted report also gets its witness, the same on
    every route: the optimal on-flow energy R from
    network.source_resistances, which asks no oracle, and the path length
    3^ell, the on-edge distance from the source to sink v.  A trivial
    report's witness is energy 0 and length 0.

    Proof that the path length is 3^ell.  Write N_k(a) for the depth-k
    network rooted at a, with source s and sinks t_b.

    - Upper bound.  Accepted means G has a walk of length at most 2^ell
      from the root to v (see swnet.network); v's always-on equal-endpoint
      literal pads it to exactly 2^ell.  By induction on k, a walk
      w_0 .. w_(2^k) from a to b gives an on-path of 3^k edges from s to
      t_b in N_k(a): at k = 0 the star edge (a, b); at k > 0, with
      c = w_(2^(k-1)), the path through block 0, an N_(k-1)(a), from its
      source to its sink c, then through block (1,c), an N_(k-1)(c), from
      its source to its sink b, then back through block (2,b), which is
      block 0's labels on reversed edges, from its sink c to its source t_b.
    - Lower bound, by induction on depth.  Give the vertices of N_k
      heights: in N_0, 0 at the source and 1 at the sinks; in N_k, h from
      block 0, 3^(k-1) + h from a block (1,i) and 3^k - h from a block
      (2,j), h the height inside the block.  Glued vertices agree (3^(k-1)
      where block 0 meets a block (1,i), 2 * 3^(k-1) where a block (1,i)
      meets a block (2,j), 3^k at the sinks), and every edge changes the
      height by exactly 1.  So a source-sink path, on-edges or not, has at
      least 3^ell edges: it crosses block 0 from its source to a sink, some
      block (1,i) from its source to a sink and some block (2,j) from a sink
      to its source, each from one multiple of 3^(ell-1) to the next.

    The witness bound: a reached sink has R <= 3^ell.  The upper bound
    above joins it to the source by an on-path of 3^ell edges, each a unit
    resistor, so the path alone has resistance 3^ell; the other on-edges
    only add conductance, which by Rayleigh monotonicity cannot raise R.
    So a reached sink's mass 2 / (2 R + 4) is at least 2 / (2 * 3^ell + 4),
    twice acceptance_threshold(ell), and an unreached sink's is 0: the
    resistance route's verdicts are exactly the reach.  At ell = 0 every
    on-sink has R = 1 and attains the bound.
    """

    def __init__(self, g: Digraph, u: int, L: int, mode: str = "exact"):
        if L < 1:
            raise InvalidParams("L must be >= 1")
        if mode not in ("exact", "spectral", "spectral-dense"):
            raise InvalidParams(f"unknown mode {mode!r}")
        if not 1 <= u <= g.n:
            raise InvalidParams(f"source u = {u} out of range 1..{g.n}")
        self.g, self.u, self.mode = g, u, mode
        self.L = 1 << (L - 1).bit_length()
        self.ell = self.L.bit_length() - 1
        self.threshold = acceptance_threshold(self.ell)
        self._feed = self.L - L
        self._root = g.n + 1 if self._feed else u  # the chain head attach_source_path grafts
        self._charges = self._reached = None  # filled by the first read of charges and _reach

    @property
    def charges(self) -> tuple[ResourceLedger, ...]:
        """This decision's size_charges; raises the class docstring's refusals first, on every read until one passes."""
        if self._charges is None:
            grafted_n = self.g.n + self._feed
            if self.L > 1 << (grafted_n - 1).bit_length():
                raise InvalidParams(
                    f"L = {self.L} exceeds the power of two at or above the grafted vertex count {grafted_n}"
                )
            check_edge_budget(grafted_n, self.ell)
            self._charges = size_charges(grafted_n, self.L)
        return self._charges

    @cached_property
    def graph(self) -> Digraph:
        """The grafted graph the network is built on; read only by net and R."""
        return attach_source_path(self.g, self.u, self._feed)[0]

    @cached_property
    def net(self) -> SwitchingNet:
        """The network on the grafted graph, built only by the routes that read it."""
        return build(self.graph.n, self.ell, self._root)

    @property
    def _reach(self) -> list[bool]:
        """Whether each vertex of the grafted graph lies within 2^ell of the root, read off g: every route's reference.

        The vertices of g within the asked L of u, and the chain (the head
        reaches chain vertex k at distance k < 2^ell - L and u at 2^ell - L).
        """
        if self._reached is None:
            reach, _ = _reach_within(self.g, self.u, self.L - self._feed)
            reach += [True] * self._feed
            self._reached = reach
        return self._reached

    def _hold_to_reach(self, joined: np.ndarray, what: str, sink: int | None = None) -> None:
        """Raise ReachMismatch unless ``joined`` (one flag per vertex) is the bounded BFS's reach.

        The message names every sink index where they differ, led by the
        asked ``sink`` when it is one of them.
        """
        mismatch = np.flatnonzero(joined != self._reach).tolist()
        if mismatch:
            head = f"sink index {sink}" if sink in mismatch else f"sink indices {mismatch}"
            raise ReachMismatch(f"{head}: {what} and the bounded BFS disagree at sink indices {mismatch}")

    @cached_property
    def _labels(self) -> np.ndarray:
        """Whether the component labels join each sink to the source; the exact route's verdicts."""
        return accepts_all(self.net, GraphOracle(self.graph))  # uncharged: charge counts the |E| queries

    @cached_property
    def _resistances(self) -> np.ndarray:
        """Effective resistance from the source to every sink, nan outside its component.

        Found by network.source_resistances on the first report that reads
        R, so a rejecting sink and verdicts() cost none.  The sinks its
        on-classes join to the source must be those the bounded BFS reaches,
        else ReachMismatch, and each must have R <= 3^ell (within 1e-9
        relative; ell = 0 attains it), the witness bound, else WitnessBound.
        """
        R = source_resistances(self.graph.adj, self._root, self.ell)
        self._hold_to_reach(~np.isnan(R), "the boundary Laplacian")
        w_plus = 3**self.ell
        over = np.flatnonzero(R > w_plus * (1 + 1e-9)).tolist()  # nan, unreached, compares False
        if over:
            raise WitnessBound(
                f"sink indices {over}: effective resistance up to {float(np.nanmax(R))} above the witness "
                f"bound 3^ell = {w_plus}"
            )
        return R

    def _dense(self, sink: int) -> tuple[bool, float]:
        """The dense route's verdict and overlap0 for one sink, held to the bounded BFS."""
        dim = 2 * self.charges[0].oracle_queries + 4  # refused before the network is built
        if dim > SPECTRAL_DIM_CAP:
            raise InvalidParams(
                f"spectral-dense needs {dim}x{dim} dense projectors, above SPECTRAL_DIM_CAP={SPECTRAL_DIM_CAP}"
            )
        # uncharged: charge counts the |E| queries
        pair = build_reflections(self.net, GraphOracle(self.graph), sink)
        dense = decide_phase_estimation(pair, default_psi0(self.net))
        if dense.accepted != self._reach[sink]:
            raise ReachMismatch(f"sink index {sink}: the dense spectrum and the bounded BFS disagree")
        return dense.accepted, dense.overlap0

    def verdicts(self) -> list[bool]:
        """Every sink's verdict at once: entry v - 1 is ``report(v).accepted``, for v = 1..n.

        The resistance route's verdicts are the bounded BFS's reach, by the
        witness bound (see the class docstring), so it finds no R; the exact
        route holds its labels to the bounded BFS in one comparison.
        Spectral-dense decides sink by sink.  Sink u's verdict is True, as
        its trivial report's.
        """
        self.charges  # every refusal, before anything is grafted
        n = self.g.n
        if self.mode == "exact":
            self._hold_to_reach(self._labels, "the component labels")
            return self._labels[:n].tolist()
        if self.mode == "spectral":
            return self._reach[:n]
        return [v == self.u or self._dense(v - 1)[0] for v in range(1, n + 1)]

    def report(self, v: int, witness: bool = False) -> DecisionReport:
        """The decision for sink v; see the class docstring."""
        if not 1 <= v <= self.g.n:
            raise InvalidParams(f"sink v = {v} out of range 1..{self.g.n}")
        energy = path_len = None
        if v == self.u:
            route, accepted, overlap0, charge = "trivial", True, 1.0, size_charges(self.g.n, self.L)[2]
            if witness:
                energy, path_len = 0.0, 0
        else:
            charge = self.charges[0]  # every refusal, before anything is grafted
            sink = v - 1
            if self.mode == "spectral-dense":
                route = "dense"
                accepted, overlap0 = self._dense(sink)
            elif self.mode == "spectral":
                # the verdict is the reach (the witness bound); an unreached sink reads no R
                route, accepted = "resistance", self._reach[sink]
                overlap0 = float(2 / (2 * self._resistances[sink] + 4)) if accepted else 0.0
            else:
                self._hold_to_reach(self._labels, "the component labels", sink)
                route, accepted = "exact", bool(self._labels[sink])
                overlap0 = float(accepted)
            if witness and accepted:
                energy, path_len = float(self._resistances[sink]), 3**self.ell
        return DecisionReport(accepted, overlap0, energy, path_len, self.threshold, route,
                              ledger=ResourceLedger(**vars(charge)))


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
