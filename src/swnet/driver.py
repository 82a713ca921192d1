"""Space-bounded outer BFS with a pluggable bounded-length decider.

The driver sweeps an offset j.  One layer step admits, in vertex order,
the vertices at exact distance k from a frontier S, and gives up when one
more would take the frontier past the size guard n/L.  Its step at k = j
from the source seeds the frontier and its step at k = L extends it,
round by round, so the frontier never holds more than about n/L vertices.
An offset whose step gives up is abandoned; some offset always fits
because the distance classes partition the reachable vertices.  The
connectivity verdict is the final "is t within distance L of the
frontier" check of the first offset that completes.

The frontier is classical, a list in admission order: the source, then
each admitted layer in vertex order.  Its members are at distance 0 and
cost no question.  So the decider is asked only whether a member u reaches
a non-member v within a length k >= 1 (exact distance 1 is "within 1"
alone), the members in admission order up to the first yes, and the
questions follow from the graph, s, t and L alone.

Deciders answer "is there a directed u -> v path of length at most L" and
return, with each answer, the ResourceLedger of that one call: its model
time, oracle queries and register cells.  Both deterministic deciders
read one row table (_reach_table) kept for the graph they are asking
about: a row per (source, length) holds every sink's verdict and two
charges, the first call's and every repeat's, whatever the sink.  The
exact decider's row is the bounded BFS of g (graphs._reach_within),
charged n time steps and its row queries on every call.  The
switching-network decider's row is one network evaluation's verdict list
(spaneval.Evaluation.verdicts), in spectral mode the same bounded reach,
and its charges are the full decision at the grafted size, shared
read-only (spaneval.size_charges), the first counting the evaluation.  A
noisy decider passes its inner charge through, and a majority vote, which
the caller builds (boosted), sums its repetitions' charges as one call.
dstcon folds every charge into its ledger (ResourceLedger.fold), so each
call is charged once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParams
from .graphs import Digraph, _reach_within
from .spaneval import Evaluation, ResourceLedger
from .spaneval import decide_distance  # noqa: F401  (perfbench's tracer wraps driver.decide_distance)

CONNECTED = "Connected"
NOT_CONNECTED = "NotConnected"


# -- decider flavors -------------------------------------------------------------

@dataclass
class DistDecider:
    """A bounded-length reachability decider.

    ``answer(g, u, v, L)`` decides dist(u, v) <= L for L >= 1 and returns
    (bool, charge), the charge being that call's ResourceLedger.  The
    charge is read-only: a decider may return the same ledger from many
    calls, so callers fold it (ResourceLedger.fold) or pass it on, and
    never change it.  The deterministic flavors answer from one row table
    (_reach_table).  ``randomized`` marks the bounded-error flavors that
    boosted() wraps in a majority vote.
    """

    name: str
    answer: object
    randomized: bool = False


def _reach_table(name: str, evaluate) -> DistDecider:
    """A deterministic decider answering every sink v of a (u, L) from one row.

    ``evaluate(g, u, L)`` makes the row, or raises its refusals and keeps
    none: n verdict bytes (entry v - 1 is 1 when v is within L of u) and
    charges, [0] for the call that made the row and [1], shared read-only,
    for every repeat.  Rows are keyed by (u, L) and kept for the graph last
    seen (compared by identity).  v outside 1..n is refused first.
    """
    rows: dict[tuple[int, int], tuple[bytes, tuple]] = {}
    seen: Digraph | None = None

    def answer(g: Digraph, u: int, v: int, L: int) -> tuple[bool, ResourceLedger]:
        nonlocal seen
        if g is not seen:
            rows.clear()
            seen = g
        if not 1 <= v <= g.n:
            raise InvalidParams(f"sink v = {v} out of range 1..{g.n}")
        row = rows.get((u, L))
        repeat = row is not None
        if not repeat:
            row = rows[u, L] = evaluate(g, u, L)
        verdicts, charges = row
        return verdicts[v - 1] == 1, charges[repeat]

    return DistDecider(name=name, answer=answer)


def exact_bfs_decider() -> DistDecider:
    """Deterministic ground-truth decider: the bounded BFS every route reads (graphs._reach_within).

    Its row (_reach_table) is that BFS's reach and one charge for every call:
    n time steps, the BFS's row queries and one call.  Refuses L < 1 and u
    outside 1..n as swnet does.
    """

    def bounded_bfs(g: Digraph, u: int, L: int) -> tuple[bytes, tuple]:
        if L < 1:
            raise InvalidParams("L must be >= 1")
        if not 1 <= u <= g.n:
            raise InvalidParams(f"source u = {u} out of range 1..{g.n}")
        reach, queries = _reach_within(g, u, L)
        charge = ResourceLedger(time_steps=float(g.n), oracle_queries=queries, decider_calls=1)
        return bytes(reach), (charge, charge)

    return _reach_table("exact", bounded_bfs)


def swnet_decider(mode: str = "spectral") -> DistDecider:
    """Decide through the switching network (exact or spectral evaluation).

    Its row (_reach_table) is one Evaluation of (g, u, length): the verdict
    list (Evaluation.verdicts) and the first two of its charges, the
    evaluation's own, counted in ``network_evaluations``, and its repeat.
    In spectral mode the list is the reach of a BFS of g from u bounded at
    the length, by the witness bound R <= 3^ell, so the decider finds no
    effective resistance R and grafts nothing.
    """

    def evaluate(g: Digraph, u: int, L: int) -> tuple[bytes, tuple]:
        evaluation = Evaluation(g, u, L, mode)
        return bytes(evaluation.verdicts()), evaluation.charges

    return _reach_table(f"swnet-{mode}", evaluate)


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
    """Majority vote over reps independent calls (reps odd and >= 1, checked for every decider).

    reps = 1 and a deterministic decider return the decider unchanged.
    """
    if reps < 1 or reps % 2 == 0:
        raise InvalidParams("reps must be odd and >= 1")
    if reps == 1 or not decider.randomized:
        return decider

    def answer(g, u, v, L):
        yes, charge = 0, ResourceLedger()
        for _ in range(reps):
            truth, rep_charge = decider.answer(g, u, v, L)
            yes += truth
            charge.fold(rep_charge)
        charge.decider_calls = 1
        return 2 * yes > reps, charge

    return DistDecider(name=f"majority{reps}[{decider.name}]", answer=answer, randomized=True)


# -- the outer algorithm -----------------------------------------------------------

def dstcon(
    g: Digraph,
    s: int,
    t: int,
    L: int,
    decider: DistDecider | None = None,
    frontier_trace: list | None = None,
) -> tuple[str, ResourceLedger]:
    """Directed st-connectivity via distance-class BFS; see module docstring.

    Returns (CONNECTED or NOT_CONNECTED, ledger).  With an exact decider
    the answer equals BFS ground truth.  The decider is asked only whether
    a frontier member u reaches a vertex v outside the frontier within a
    length k >= 1, the members in admission order up to the first yes.
    The decider is asked as given; a caller that wants a majority vote
    passes boosted(decider, reps).  When a list is passed as
    ``frontier_trace`` it receives one (j, round, admitted-set) triple per
    completed extension round, for invariant checks.
    """
    if not (1 <= L <= g.n):
        raise InvalidParams(f"need 1 <= L <= n, got L={L}, n={g.n}")
    if not (1 <= s <= g.n and 1 <= t <= g.n):
        raise InvalidParams("s, t out of range")
    decider = decider or exact_bfs_decider()
    ledger = ResourceLedger()
    n = g.n
    cell_bits = 1 + max(math.ceil(math.log2(max(L, 2))), 1)

    ask, fold = decider.answer, ledger.fold

    def within(S: list, v: int, length: int) -> bool:
        """Whether dist(u, v) <= length for some u in S, asked in S's order up to the first yes."""
        for u in S:
            answer, charge = ask(g, u, v, length)
            fold(charge)
            if answer:
                return True
        return False

    def note_frontier(size: int):
        ledger.peak_frontier = max(ledger.peak_frontier, size)
        ledger.space_cells = max(ledger.space_cells, size * cell_bits)

    guard = n / L

    def layer(S: list, k: int) -> list | None:
        """The vertices outside S at exact distance k >= 1 from S in vertex order, or None once one more would pass the guard."""
        new = []
        for v in range(1, n + 1):
            if v not in S and within(S, v, k) and (k == 1 or not within(S, v, k - 1)):
                if len(S) + len(new) > guard:
                    return None
                new.append(v)
                note_frontier(len(S) + len(new))
        return new

    for j in range(L):
        note_frontier(1)
        seed = layer([s], j) if j else []  # [s] is everything at distance 0
        if seed is None:
            continue
        S = [s, *seed]
        if frontier_trace is not None:
            frontier_trace.append((j, 0, frozenset(S)))
        for i in range(1, n // L + 1):
            new = layer(S, L)
            if new is None:
                break
            S += new
            if frontier_trace is not None:
                frontier_trace.append((j, i, frozenset(new)))
        else:
            return (CONNECTED if t in S or within(S, t, L) else NOT_CONNECTED), ledger
    ledger.guard_exhausted = True
    return NOT_CONNECTED, ledger
