import math

import pytest

from swnet import tradeoff as to
from swnet.errors import ConfigError, DomainError
from swnet.graphs import MAX_FILE_VERTICES


def test_formula_values():
    assert to.log_T_classical(2**20, 2**10, c=0.0) == pytest.approx(100.0)
    assert to.log_T_quantum(2**20, 2**10, c=0.0) == pytest.approx(100.0)
    # below sqrt(n) the quantum exponent is strictly smaller
    assert to.log_T_quantum(2**40, 2**11, c=0.0) == pytest.approx(580.0)
    assert to.log_T_classical(2**40, 2**11, c=0.0) == pytest.approx(841.0)
    assert to.log_T_quantum(2**20, 2**20, c=0.0) == pytest.approx(0.0)
    n = 2**20
    assert to.log_T_classical(n, n, c=1.0) == pytest.approx(20 * math.log2(20))


def test_formula_domain():
    with pytest.raises(DomainError):
        to.log_T_classical(2**20, 399, c=0.0)
    with pytest.raises(DomainError):
        to.log_T_quantum(2**20, 1, c=0.0)


def test_monotone_in_space():
    n = 2**16
    values_c = [to.log_T_classical(n, 2**k, c=1.0) for k in range(8, 17)]
    values_q = [to.log_T_quantum(n, 2**k, c=1.0) for k in range(8, 17)]
    assert all(a >= b for a, b in zip(values_c, values_c[1:]))
    assert all(a >= b for a, b in zip(values_q, values_q[1:]))


@pytest.mark.parametrize("k", [10, 20, 30])
def test_crossover_at_sqrt_n(k):
    assert to.crossover_scan(2**k, c=0.0) == 2 ** (k // 2)


def test_crossover_unchanged_by_shared_constant():
    for c in (0.0, 1.0, 3.5):
        assert to.crossover_scan(2**20, c=c) == 2**10


def test_chosen_L_clamped():
    assert 1 <= to.chosen_L(16, 1024) <= 16
    assert to.chosen_L(16, 16) == 4


def test_sweep_rows_and_dedupe():
    config = {"n": [16, 16], "S": [16, 32, 16], "decider": "exact", "seeds": [0]}
    points = to.sweep(config)
    assert [(p.n, p.S) for p in points] == [(16, 16), (16, 32)]
    assert all(p.ledger is not None for p in points)
    # past S = n the two exponents are equal, so neither wins
    assert [p.crossover_flag for p in points] == [False, False]


def test_crossover_flag_is_set_exactly_below_sqrt_n():
    # log2(n/S) is clamped at 0 past S = n, so the flag cannot come from S > n
    ns = [2**k for k in range(1, 13)]
    grids = {str(n): list(range(math.ceil(math.log2(n) ** 2), 4 * n + 1)) for n in ns}
    points = to.sweep({"n": ns, "S": grids, "measure_max_n": 0})
    assert len(points) == sum(map(len, grids.values()))
    assert [p.crossover_flag for p in points] == [p.S < math.sqrt(p.n) for p in points]
    assert [(p.n, p.S) for p in points if p.crossover_flag] == [(2, 1)]


def test_sweep_formula_only_above_measure_cap():
    config = {"n": [1024], "S": [256], "measure_max_n": 64}
    (point,) = to.sweep(config)
    assert point.ledger is None
    row = point.csv_row()
    assert row.split(",")[5:8] == ["", "", ""]


def test_sweep_deterministic_under_seeds():
    config = {"n": [16], "S": [16, 64], "decider": "noisy:0.9", "seeds": [1, 2]}
    assert to.sweep_csv(config) == to.sweep_csv(config)


def test_sweep_quantum_cells_within_budget():
    config = {"n": [16], "S": [16, 32], "decider": "swnet", "seeds": [0]}
    points = to.sweep(config)
    for p in points:
        if p.ledger is None:
            continue
        kappa = 4
        budget = kappa * (1 + math.log2(p.L_chosen if p.L_chosen > 1 else 2)) * (
            1 + math.log2(p.n)
        )
        assert p.ledger.quantum_space_cells <= budget


def test_sweep_config_errors():
    with pytest.raises(ConfigError):
        to.sweep({"S": [4]})
    with pytest.raises(ConfigError):
        to.sweep({"n": [8], "S": [64], "decider": "bogus"})
    # an empty S grid is refused by its n, before any row is measured
    with pytest.raises(ConfigError, match=r"S grid is empty for n = \[8\]"):
        to.sweep({"n": [8], "S": []})
    with pytest.raises(ConfigError, match=r"S grid is empty for n = \[16\]"):
        to.sweep({"n": [8, 16], "S": {"8": [16], "16": []}})


def test_sweep_refuses_a_measure_cap_above_the_file_cap_before_generating(monkeypatch):
    # random_digraph(n) allocates n^2 cells and loops n^2 times in Python
    monkeypatch.setattr(to, "random_digraph", lambda *args: pytest.fail("generated a graph"))
    with pytest.raises(ConfigError, match="MAX_FILE_VERTICES"):
        to.sweep({"n": [8, 5000], "S": [169], "measure_max_n": MAX_FILE_VERTICES + 1})
    assert to.sweep({"n": [5000], "S": [169], "measure_max_n": MAX_FILE_VERTICES})[0].ledger is None


def test_csv_header_fixed():
    assert to.CSV_HEADER.startswith("n,S,L,logT_classical,logT_quantum,measured_time_steps")
