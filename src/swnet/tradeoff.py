"""Time-space tradeoff curves and desk-scale measurement sweeps.

Formula mode compares the classical bound

    log2 T  =  log2(n/S)^2        + c * log2(n) * log2(log2 n)

with the quantum bound

    log2 T  =  log2(n) log2(n/S)/2 + c * log2(n) * log2(log2 n)

for total space S >= log2(n)^2.  Hidden constants are surfaced as the
single knob c (0 gives formula-only shape).  With equal c the additive
term cancels, and the curves cross where log2(n/S) = log2(n)/2, i.e. at
S = sqrt(n): below that the quantum exponent is strictly smaller.

Sweep mode also runs the outer driver on seeded desk-scale instances at
L chosen proportional to (n/S) log2 n and reports measured ledgers next to
the formula values.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .driver import decider_from_name, dstcon
from .errors import ConfigError, DomainError
from .graphs import random_digraph
from .spaneval import ResourceLedger

CSV_HEADER = (
    "n,S,L,logT_classical,logT_quantum,"
    "measured_time_steps,measured_space_cells,measured_quantum_cells,crossover"
)


def _check_domain(n: int, S: float):
    if n < 2:
        raise DomainError("n must be >= 2")
    if S < math.log2(n) ** 2:
        raise DomainError(f"S = {S} below the space floor log2(n)^2 = {math.log2(n) ** 2:.3f}")


def log_T_classical(n: int, S: float, c: float = 1.0) -> float:
    """Exponent of the classical bound, base-2 logs."""
    _check_domain(n, S)
    ln = math.log2(n)
    return math.log2(n / S) ** 2 + c * ln * math.log2(max(ln, 2))


def log_T_quantum(n: int, S: float, c: float = 1.0) -> float:
    """Exponent of the quantum bound, base-2 logs."""
    _check_domain(n, S)
    ln = math.log2(n)
    return 0.5 * ln * math.log2(n / S) + c * ln * math.log2(max(ln, 2))


def chosen_L(n: int, S: float, c_L: float = 1.0) -> int:
    """Frontier hop length: proportional to (n/S) log2 n, clamped to [1, n]."""
    return max(1, min(n, round(c_L * n * math.log2(n) / S)))


def crossover_scan(n: int, c: float = 0.0) -> int:
    """Smallest power-of-two S at which the quantum bound stops winning.

    Treats the two exponents as formal curves over the whole grid
    S = 1, 2, 4, ..., n (the space floor is not imposed here, so the
    crossover is reported even when it sits below log2(n)^2).  Identical
    c-terms cancel, so the answer is exactly sqrt(n) on power-of-two n:
    the equality point of log2(n/S)^2 and log2(n) log2(n/S) / 2.
    """
    ln = math.log2(n)
    for k in range(0, math.ceil(ln) + 1):
        gap = ln - k  # log2(n/S)
        if 0.5 * ln * gap >= gap**2:
            return 2**k
    return n


@dataclass
class TradeoffPoint:
    n: int
    S: int
    L_chosen: int
    log_T_classical: float
    log_T_quantum: float
    crossover_flag: bool
    ledger: ResourceLedger | None = None

    def csv_row(self) -> str:
        led = self.ledger
        measured = (
            (f"{led.time_steps:.6g}", str(led.space_cells), str(led.quantum_space_cells))
            if led is not None
            else ("", "", "")
        )
        return ",".join(
            [
                str(self.n),
                str(self.S),
                str(self.L_chosen),
                f"{self.log_T_classical:.6g}",
                f"{self.log_T_quantum:.6g}",
                *measured,
                "1" if self.crossover_flag else "0",
            ]
        )


def sweep(config: dict) -> list[TradeoffPoint]:
    """Evaluate formula rows for an n x S grid, measuring where desk-scale.

    Config keys: "n" (list), "S" (list, or dict mapping str(n) to lists),
    optional "c" (default 1.0), "c_L", "decider" (exact | swnet | noisy:P),
    "seeds" (list, default [0]), "edge_prob", "measure_max_n" (default 64),
    "reps".  Duplicate (n, S) pairs are dropped; row order follows config
    order.  A measured point's ledger folds the dstcon ledgers of its seeds;
    points with n above measure_max_n carry no ledger.
    """
    if not isinstance(config, dict) or "n" not in config or "S" not in config:
        raise ConfigError('config must provide "n" and "S"')
    c = float(config.get("c", 1.0))
    c_L = float(config.get("c_L", 1.0))
    measure_max_n = int(config.get("measure_max_n", 64))
    seeds = list(config.get("seeds", [0]))
    edge_prob = float(config.get("edge_prob", 0.3))
    reps = int(config.get("reps", 1))
    decider_name = config.get("decider", "exact")

    def s_grid(n: int):
        S_cfg = config["S"]
        if isinstance(S_cfg, dict):
            return S_cfg.get(str(n), [])
        return S_cfg

    points, seen = [], set()
    for n in config["n"]:
        n = int(n)
        for S in s_grid(n):
            S = int(S)
            if (n, S) in seen:
                continue
            seen.add((n, S))
            ltc = log_T_classical(n, S, c)
            ltq = log_T_quantum(n, S, c)
            L = chosen_L(n, S, c_L)
            point = TradeoffPoint(
                n=n, S=S, L_chosen=L, log_T_classical=ltc, log_T_quantum=ltq,
                crossover_flag=ltq < ltc,
            )
            if n <= measure_max_n:
                ledger = ResourceLedger()
                for seed in seeds:
                    g = random_digraph(n, edge_prob, int(seed))
                    _, led = dstcon(g, 1, n, L, decider=decider_from_name(decider_name), boost_reps=reps)
                    ledger.fold(led)
                point.ledger = ledger
            points.append(point)
    return points


def sweep_csv(config: dict) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for point in sweep(config):
        out.write(point.csv_row() + "\n")
    return out.getvalue()
