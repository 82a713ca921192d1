import json
import os
import resource
import subprocess
import sys

import pytest

import swnet as sw
from swnet import spaneval as se
from swnet.cli import main


@pytest.fixture
def path_graph(tmp_path):
    p = tmp_path / "path4.txt"
    sw.write_graph_file(p, sw.layered_path(4))
    return str(p)


def test_net_dump_lines(capsys):
    assert main(["net", "dump", "--n", "2", "--ell", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10  # (2n+1)^ell * n
    sigma, i, a, b = lines[3].split(";")
    assert int(i) in (0, 1) and int(a) in (1, 2) and int(b) in (1, 2)


def test_net_dump_golden_depth_zero(capsys):
    # frozen edge dump for the depth-0 star at n=2, root 1
    assert main(["net", "dump", "--n", "2", "--ell", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "-;0;1;1\n-;1;1;2\n"


def test_basis_dump_gram(capsys):
    assert main(["basis", "dump", "--n", "2", "--L", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("# complement basis")
    rows = [r for r in out if not r.startswith("#")]
    assert len(rows) == 5  # |E| + 4 - |V| at n=2, L=2
    first = [float(x) for x in rows[0].split(",")]
    assert first[0] == pytest.approx(1.0)
    assert max(abs(x) for x in first[1:]) < 1e-9


def test_prep_verify_table(capsys):
    assert main(["prep", "verify", "--n", "2", "--L", "2"]) == 0
    out = capsys.readouterr().out
    assert "sum-of-flows" in out and "optimal-flow" in out
    residuals = [float(line.split()[1]) for line in out.strip().splitlines()[1:]]
    assert max(residuals) < 1e-9


def test_decide_json(path_graph, capsys):
    rc = main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is True
    assert payload["ledger"]["oracle_queries"] > 0


def test_decide_exact_mode(path_graph, capsys):
    rc = main(["decide", "--graph", path_graph, "--u", "4", "--v", "1", "--L", "4", "--mode", "exact"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "False"


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_decide_grafts_non_power_of_two_L(path_graph, capsys, mode):
    rc = main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "3", "--mode", mode])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "True"


def test_decide_spectral_dense_refused_above_cap(path_graph, capsys, monkeypatch):
    # unpatched, this grafted instance would need dense 4628x4628 projectors
    monkeypatch.setattr(se, "SPECTRAL_DIM_CAP", 100)
    rc = main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "3", "--mode", "spectral-dense"])
    assert rc == 2
    assert "SPECTRAL_DIM_CAP=100" in capsys.readouterr().err


def test_decide_json_route_key(path_graph, capsys):
    assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["accepted", "overlap0", "witness_energy", "path_len", "threshold",
                             "route", "psi0", "ledger"]
    assert payload["route"] == "resistance"


def test_decide_witness_solve_single_blas_thread(tmp_path):
    # a least-squares witness solve failed to converge here with one BLAS thread
    graph = tmp_path / "g.txt"
    graph.write_text("6 4\n1 4\n2 1\n5 3\n6 4\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "swnet.cli", "decide", "--graph", str(graph),
         "--u", "6", "--v", "4", "--L", "3", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["accepted"] is True
    assert payload["overlap0"] == pytest.approx(2 / (2 * payload["witness_energy"] + 4), abs=1e-9)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_decide_witness_solve_is_bounded_at_16_3(tmp_path):
    # the source's on-component has 9493 vertices: a dense grounded Laplacian
    # of it (721 MB, then a copy) does not fit in a 1 GiB address space
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.random_digraph(16, 0.1, 3))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "swnet.cli", "decide", "--graph", str(graph),
         "--u", "1", "--v", "5", "--L", "8", "--json"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["accepted"], payload["route"], payload["path_len"]) == (True, "resistance", 27)
    assert payload["overlap0"] == pytest.approx(2 / (2 * payload["witness_energy"] + 4), abs=1e-12)


@pytest.mark.parametrize("command", [["basis", "dump"], ["prep", "verify"]])
@pytest.mark.parametrize("L", ["3", "0"])
def test_fixed_depth_commands_reject_bad_L(capsys, command, L):
    assert main([*command, "--n", "2", "--L", L]) == 2
    assert "power of two" in capsys.readouterr().err


def test_dstcon_json(path_graph, capsys):
    rc = main(["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "Connected"
    assert payload["ledger"]["decider_calls"] > 0


def test_dstcon_json_counts_network_evaluations(tmp_path, capsys):
    # one evaluation per (source, length) answers every sink: 27 charged
    # decider calls here, over 3 evaluations
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.random_digraph(8, 0.2, 1))
    argv = ["dstcon", "--graph", str(graph), "--s", "1", "--t", "8", "--L", "3", "--json"]
    assert main([*argv, "--decider", "swnet"]) == 0
    ledger = json.loads(capsys.readouterr().out)["ledger"]
    assert 0 < ledger["network_evaluations"] < ledger["decider_calls"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ledger"]["network_evaluations"] == 0


def test_import_and_decider_construction_load_no_scipy():
    # scipy is imported inside the solves, so the dump and prep commands,
    # and a decider nobody has asked yet, run without it
    code = ("import sys, swnet, swnet.cli; from swnet.driver import swnet_decider; "
            "swnet_decider('spectral'); print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pebble_trace(capsys):
    assert main(["pebble", "--L", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# L=4 path=1,2,3,4,5"
    assert len(lines) == 1 + 9
    assert all(line.split()[0] in ("P", "R") for line in lines[1:])


def test_sweep_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [16], "S": [16, 64], "decider": "exact"}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("n,S,L,")
    assert len(out) == 3


def test_exit_code_bad_input(tmp_path, capsys):
    assert main(["decide", "--graph", str(tmp_path / "missing.txt"), "--u", "1", "--v", "2", "--L", "1"]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text("{no json}")
    assert main(["sweep", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "bad2.json"
    cfg2.write_text(json.dumps({"S": [4]}))
    assert main(["sweep", "--config", str(cfg2)]) == 2


@pytest.mark.parametrize("header", ["1000000000 0", "0 0"])
def test_decide_rejects_graph_header_n_out_of_bounds(tmp_path, capsys, header):
    # refused before the n x n adjacency is allocated
    graph = tmp_path / "g.txt"
    graph.write_text(header + "\n")
    assert main(["decide", "--graph", str(graph), "--u", "1", "--v", "2", "--L", "1"]) == 2
    assert "MAX_FILE_VERTICES" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bogus", "noisy:abc"])
def test_dstcon_rejects_unknown_decider(path_graph, capsys, name):
    assert main(["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--decider", name]) == 2
    assert name in capsys.readouterr().err


def test_exit_code_bad_pebble_path(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.layered_path(4))
    rc = main(["pebble", "--graph", str(graph), "--path", "1,3"])
    assert rc == 2
