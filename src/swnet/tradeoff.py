"""Time-space tradeoff curves and desk-scale measurement sweeps.

Formula mode compares the classical bound

    log2 T  =  log2(n/S)^2        + c * log2(n) * log2(log2 n)

with the quantum bound

    log2 T  =  log2(n) log2(n/S)/2 + c * log2(n) * log2(log2 n)

for total space S >= log2(n)^2, with log2(n/S) clamped at 0 past S = n,
where more space buys nothing.  Hidden constants are surfaced as the
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

from .driver import boosted, decider_from_name, dstcon
from .errors import ConfigError, DomainError
from .graphs import MAX_FILE_VERTICES, random_digraph
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
    return max(math.log2(n / S), 0.0) ** 2 + c * ln * math.log2(max(ln, 2))


def log_T_quantum(n: int, S: float, c: float = 1.0) -> float:
    """Exponent of the quantum bound, base-2 logs."""
    _check_domain(n, S)
    ln = math.log2(n)
    return 0.5 * ln * max(math.log2(n / S), 0.0) + c * ln * math.log2(max(ln, 2))


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


def _integer(key: str, value) -> int:
    """A config integer; anything else, bools and floats included, is a ConfigError."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    if type(value) not in (int, float):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integers(key: str, values) -> list[int]:
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of integers, got {values!r}")
    return [_integer(key, x) for x in values]


def sweep(config: dict) -> list[TradeoffPoint]:
    """Evaluate formula rows for an n x S grid, measuring where desk-scale.

    Config keys: "n" (list), "S" (list, or dict mapping str(n) to lists),
    optional "c" (default 1.0), "c_L", "decider" (exact | swnet | noisy:P),
    "seeds" (list, default [0]), "edge_prob", "measure_max_n" (default 64,
    at most graphs.MAX_FILE_VERTICES), "reps".  n, S and seeds are lists of
    integers, n, seeds and every n's S grid are not empty, and the keys of
    an S map are exactly the entries of n; c, c_L and edge_prob are
    numbers.  The decider and reps are checked before any row, measured or
    not.
    Duplicate (n, S) pairs are dropped; row order follows config order.
    A measured point's ledger folds the dstcon ledgers of its seeds; points
    with n above measure_max_n carry no ledger.
    """
    if not isinstance(config, dict) or "n" not in config or "S" not in config:
        raise ConfigError('config must provide "n" and "S"')
    c = _number("c", config.get("c", 1.0))
    c_L = _number("c_L", config.get("c_L", 1.0))
    measure_max_n = _integer("measure_max_n", config.get("measure_max_n", 64))
    if measure_max_n > MAX_FILE_VERTICES:
        raise ConfigError(f"measure_max_n = {measure_max_n} is above MAX_FILE_VERTICES={MAX_FILE_VERTICES}")
    ns = _integers("n", config["n"])
    if not ns:
        raise ConfigError("n must name at least one size")
    S_cfg = config["S"]
    if isinstance(S_cfg, dict):
        grids = {key: _integers(f"S[{key!r}]", grid) for key, grid in S_cfg.items()}
        stray = sorted(set(grids) - set(map(str, ns)))
        if stray:
            raise ConfigError(f"S keys {stray} name no entry of n")
        missing = [n for n in ns if str(n) not in grids]
        if missing:
            raise ConfigError(f"S map has no key for n = {missing}")
    else:
        grids = dict.fromkeys(map(str, ns), _integers("S", S_cfg))
    empty = [n for n in ns if not grids[str(n)]]
    if empty:
        raise ConfigError(f"S grid is empty for n = {empty}")
    seeds = _integers("seeds", config.get("seeds", [0]))
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    edge_prob = _number("edge_prob", config.get("edge_prob", 0.3))
    reps = _integer("reps", config.get("reps", 1))
    decider_name = config.get("decider", "exact")
    if not isinstance(decider_name, str):
        raise ConfigError(f"decider must be a name, got {decider_name!r}")
    boosted(decider_from_name(decider_name), reps)  # refuses a bad decider or reps before any row

    points, seen = [], set()
    for n in ns:
        for S in grids[str(n)]:
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
                    g = random_digraph(n, edge_prob, seed)
                    _, led = dstcon(g, 1, n, L, decider=boosted(decider_from_name(decider_name), reps))
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
