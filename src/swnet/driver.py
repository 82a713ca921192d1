"""Space-bounded outer BFS with a pluggable bounded-length decider.

The driver sweeps an offset j, seeds the frontier with vertices at exact
distance j from the source, then repeatedly extends it by exact-distance-L
hops, never storing more than about n/L vertices.  A size guard abandons
the offset when the frontier would overflow; some offset always fits
because the distance classes partition the reachable vertices.  The
connectivity verdict is the final "is t within distance L of the frontier"
check of the first offset that completes.

Deciders answer "is there a directed u -> v path of length at most L" and
return, with each answer, the ResourceLedger of that one call: its model
time, oracle queries and register cells.  The switching-network decider
answers every sink of one (source, length) from one network evaluation
(spaneval.Evaluation), kept for the graph it is asking about, and still
returns each call the full ledger of its decision, charged at the grafted,
padded size the decision ran on; only the call that ran the evaluation
counts it in ``network_evaluations``.  The exact decider charges n time
steps and the oracle queries of its BFS; a noisy decider passes its inner
charge through, and a majority vote sums its repetitions' charges as one
call.  dstcon folds every charge into its ledger (ResourceLedger.fold), so
each call is charged once.  Length-0 questions are equality tests and are
answered internally without consulting (or paying for) the decider.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InvalidParams
from .graphs import Digraph, GraphOracle
from .spaneval import DecisionReport, Evaluation, ResourceLedger
from .spaneval import decide_distance  # noqa: F401  (perfbench's tracer wraps driver.decide_distance)

CONNECTED = "Connected"
NOT_CONNECTED = "NotConnected"


# -- decider flavors -------------------------------------------------------------

@dataclass
class DistDecider:
    """A bounded-length reachability decider.

    ``answer(g, u, v, L)`` decides dist(u, v) <= L for L >= 1 and returns
    (bool, charge), the charge being that call's ResourceLedger.
    ``randomized`` marks bounded-error flavors that benefit from boosting.
    """

    name: str
    answer: object
    randomized: bool = False


def exact_bfs_decider() -> DistDecider:
    """Deterministic ground-truth decider; queries the oracle row by row."""

    def answer(g: Digraph, u: int, v: int, L: int) -> tuple[bool, ResourceLedger]:
        oracle = GraphOracle(g)
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                if dist[a] >= L:
                    continue
                for b in range(1, g.n + 1):
                    if b != a and b not in dist and oracle.query(a, b):
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        charge = ResourceLedger(time_steps=float(g.n), oracle_queries=oracle.query_count, decider_calls=1)
        return v in dist and dist[v] <= L, charge

    return DistDecider(name="exact", answer=answer)


def swnet_decider(mode: str = "spectral") -> DistDecider:
    """Decide through the switching network (exact or spectral evaluation).

    One Evaluation per (u, length) answers every sink of the graph: its
    per-sink answers and ledgers are kept, keyed by (u, length), for the
    graph last seen (compared by identity) and dropped when another graph
    comes.  Every call is still charged a full decision ledger; only the
    call that ran the evaluation counts it in ``network_evaluations``.
    """
    memo: dict[tuple[int, int], dict[int, DecisionReport]] = {}
    seen: Digraph | None = None

    def answer(g: Digraph, u: int, v: int, L: int) -> tuple[bool, ResourceLedger]:
        nonlocal seen
        if g is not seen:
            memo.clear()
            seen = g
        ran = (u, L) not in memo
        if ran:
            evaluation = Evaluation(g, u, L, mode)
            memo[u, L] = {w: evaluation.report(w) for w in range(1, g.n + 1)}
        report = memo[u, L][v]
        return report.accepted, replace(report.ledger, network_evaluations=int(ran))

    return DistDecider(name=f"swnet-{mode}", answer=answer)


def noisy_decider(p_correct: float, seed: int, inner: DistDecider | None = None) -> DistDecider:
    """Wrap a decider so each call independently lies with probability 1-p."""
    if not 0.0 <= p_correct <= 1.0:
        raise InvalidParams("p_correct must be a probability")
    inner = inner or exact_bfs_decider()
    rng = np.random.default_rng(seed)

    def answer(g, u, v, L):
        truth, charge = inner.answer(g, u, v, L)
        return (truth if rng.random() < p_correct else not truth), charge

    return DistDecider(name=f"noisy({p_correct})+{inner.name}", answer=answer, randomized=True)


def decider_from_name(name: str, seed: int = 0) -> DistDecider:
    """The decider a name selects: "exact", "swnet" or "noisy:P" (seeded)."""
    if name == "exact":
        return exact_bfs_decider()
    if name == "swnet":
        return swnet_decider("spectral")
    if name.startswith("noisy:"):
        try:
            p_correct = float(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"malformed decider {name!r}") from None
        return noisy_decider(p_correct, seed=seed)
    raise ConfigError(f"unknown decider flavor {name!r}")


def boosted(decider: DistDecider, reps: int) -> DistDecider:
    """Majority vote over reps independent calls (reps odd; 1 = passthrough)."""
    if reps < 1 or reps % 2 == 0:
        raise InvalidParams("reps must be odd and >= 1")
    if reps == 1:
        return decider

    def answer(g, u, v, L):
        yes, charge = 0, ResourceLedger()
        for _ in range(reps):
            truth, rep_charge = decider.answer(g, u, v, L)
            yes += truth
            charge.fold(rep_charge)
        charge.decider_calls = 1
        return 2 * yes > reps, charge

    return DistDecider(
        name=f"majority{reps}[{decider.name}]", answer=answer, randomized=decider.randomized
    )


# -- the outer algorithm -----------------------------------------------------------

def dstcon(
    g: Digraph,
    s: int,
    t: int,
    L: int,
    decider: DistDecider | None = None,
    boost_reps: int = 1,
    frontier_trace: list | None = None,
) -> tuple[str, ResourceLedger]:
    """Directed st-connectivity via distance-class BFS; see module docstring.

    Returns (CONNECTED or NOT_CONNECTED, ledger).  With an exact decider
    the answer equals BFS ground truth.  ``boost_reps`` wraps randomized
    deciders in a majority vote; exact deciders are never boosted.  When a
    list is passed as ``frontier_trace`` it receives one (j, round,
    admitted-set) triple per completed extension round, for invariant
    checks.
    """
    if not (1 <= L <= g.n):
        raise InvalidParams(f"need 1 <= L <= n, got L={L}, n={g.n}")
    if not (1 <= s <= g.n and 1 <= t <= g.n):
        raise InvalidParams("s, t out of range")
    decider = decider or exact_bfs_decider()
    if decider.randomized and boost_reps > 1:
        decider = boosted(decider, boost_reps)
    ledger = ResourceLedger()
    n = g.n
    cell_bits = 1 + max(math.ceil(math.log2(max(L, 2))), 1)

    def dist_le(u: int, v: int, length: int) -> bool:
        if u == v:
            return True
        if length <= 0:  # an equality test; no decider call, no charge
            return False
        answer, charge = decider.answer(g, u, v, length)
        ledger.fold(charge)
        return answer

    def note_frontier(size: int):
        ledger.peak_frontier = max(ledger.peak_frontier, size)
        ledger.space_cells = max(ledger.space_cells, size * cell_bits)

    guard = n / L
    for j in range(L):
        S = {s}
        note_frontier(1)
        tripped = False
        if j >= 1:
            for v in range(1, n + 1):
                if dist_le(s, v, j) and not dist_le(s, v, j - 1):
                    if len(S) > guard:
                        tripped = True
                        break
                    S.add(v)
                    note_frontier(len(S))
        if tripped:
            continue
        if frontier_trace is not None:
            frontier_trace.append((j, 0, frozenset(S)))
        for i in range(1, n // L + 1):
            S_new = set()
            for v in range(1, n + 1):
                if any(dist_le(u, v, L) for u in S) and not any(
                    dist_le(u, v, L - 1) for u in S
                ):
                    if len(S) + len(S_new) > guard:
                        tripped = True
                        break
                    S_new.add(v)
                    note_frontier(len(S) + len(S_new))
            if tripped:
                break
            S |= S_new
            if frontier_trace is not None:
                frontier_trace.append((j, i, frozenset(S_new)))
        if tripped:
            continue
        hit = any(dist_le(u, t, L) for u in S)
        return (CONNECTED if hit else NOT_CONNECTED), ledger
    ledger.guard_exhausted = True
    return NOT_CONNECTED, ledger
