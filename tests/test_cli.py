import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import swnet as sw
from oracles import edge_symbols, symbol_of
from swnet import cli
from swnet import spaneval as se
from swnet.cli import main
from swnet.errors import CapExceeded, Disconnected, InvalidParams, InvariantViolation


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


def test_net_dump_golden_depth_one(capsys):
    # frozen edge dump at n=2, depth 1, root 2: one line per edge id leaf * n + i
    assert main(["net", "dump", "--n", "2", "--ell", "1", "--root", "2"]) == 0
    assert capsys.readouterr().out == (
        "0.0;0;2;1\n0.0;1;2;2\n1.0;0;1;1\n1.0;1;1;2\n1.1;0;2;1\n"
        "1.1;1;2;2\n2.0;0;2;1\n2.0;1;2;2\n2.1;0;2;1\n2.1;1;2;2\n"
    )


def test_net_dump_equals_scalar_decode(capsys):
    # every line: the edge's symbols as tag.payload, its sink slot, and its
    # query label (the payload of the deepest tag-1 symbol, else the root)
    n, ell, root = 4, 2, 3
    assert main(["net", "dump", "--n", str(n), "--ell", str(ell), "--root", str(root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (2 * n + 1) ** ell * n
    for e, line in enumerate(lines):
        sigma, i = edge_symbols(n, ell, e)
        symbols = [symbol_of(n, c) for c in sigma]
        label_from = ([root] + [payload + 1 for tag, payload in symbols if tag == 1])[-1]
        assert line == f"{','.join(f'{t}.{p}' for t, p in symbols)};{i};{label_from};{i + 1}", e


@pytest.mark.parametrize("root", [0, 68])
def test_net_dump_refuses_a_bad_root_before_building(capsys, root):
    # (67, 2) is the largest size the edge budget admits: 1.22M edges
    misses = sw.structure.cache_info().misses
    assert main(["net", "dump", "--n", "67", "--ell", "2", "--root", str(root)]) == 2
    assert "out of range 1..67" in capsys.readouterr().err
    assert sw.structure.cache_info().misses == misses


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


def test_prep_verify_table_at_4_2_is_pinned(capsys):
    # the references are the cached flow sum and the in-place signed sums
    assert main(["prep", "verify", "--n", "4", "--L", "2"]) == 0
    assert capsys.readouterr().out == (
        "family         max residual   gates\n"
        "sum-of-flows   0.000e+00      5\n"
        "signed-sums    2.776e-17      7\n"
        "circulations   2.776e-17      7\n"
        "optimal-flow   1.110e-16      9\n"
    )


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
    # this grafts to a (5, 2) network, whose dense projectors are 1214x1214
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


@pytest.mark.parametrize("L", [4097, 1048577])
def test_decide_refuses_a_network_past_the_edge_budget(tmp_path, L):
    # on 3 vertices, L = 4097 grafts to a (4098, 13) network whose edge count
    # overflowed int64, and L = 1048577 asked for a 1 TiB grafted adjacency;
    # both edge counts are checked before anything is grafted
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.layered_path(3))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "swnet.cli", "decide", "--graph", str(graph),
         "--u", "1", "--v", "3", "--L", str(L)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "MAX_NETWORK_EDGES" in lines[0]


def test_prep_verify_refuses_a_network_past_the_edge_budget():
    # --n 16 --L 16 asks for 33^4 * 16 = 19.0M edges; refused before any
    # preparer or reference flow allocates
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "swnet.cli", "prep", "verify", "--n", "16", "--L", "16"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "MAX_NETWORK_EDGES" in lines[0]


@pytest.mark.parametrize("n, code", [(67, 0), (68, 2)])
def test_decide_at_the_edge_budget(tmp_path, n, code):
    # (67, 2) is the largest network MAX_NETWORK_EDGES admits, and its
    # decision fits in a 1 GiB address space (VmPeak 483 MiB measured);
    # (68, 2) is refused before anything is built
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.random_digraph(n, 0.3, 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "swnet.cli", "decide", "--graph", str(graph),
         "--u", "1", "--v", str(n), "--L", "4", "--json"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["route"] == "resistance"
    else:
        assert proc.stdout == "" and "MAX_NETWORK_EDGES" in proc.stderr


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


@pytest.mark.parametrize("command", [["basis", "dump"], ["prep", "verify"]])
def test_fixed_depth_commands_take_no_root(capsys, command):
    # their output is the same at every root, so the option is gone
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n", "2", "--L", "2", "--root", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --root 2" in capsys.readouterr().err


def test_prep_verify_rejects_non_power_of_two_n(capsys):
    # the preparers' Hadamard layers act on log2 n qubits
    assert main(["prep", "verify", "--n", "3", "--L", "2"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_basis_dump_takes_any_n(capsys):
    # the complement basis signs by Helmert rows off the powers of two:
    # 9 = |E| + 4 - |V| orthonormal members at n = 3, L = 2
    assert main(["basis", "dump", "--n", "3", "--L", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "# complement basis of n=3 L=2: 9 members"
    gram = np.array([[float(x) for x in row.split(",")] for row in out if not row.startswith("#")])
    assert gram.shape == (9, 9) and np.abs(gram - np.eye(9)).max() < 1e-12


def test_dstcon_json(path_graph, capsys):
    rc = main(["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "Connected"
    assert payload["ledger"]["decider_calls"] > 0


def test_dstcon_json_counts_network_evaluations(tmp_path, capsys):
    # one evaluation per (source, length) answers every sink: 25 charged
    # decider calls here, over 3 evaluations
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.random_digraph(8, 0.2, 1))
    argv = ["dstcon", "--graph", str(graph), "--s", "1", "--t", "8", "--L", "3", "--json"]
    assert main([*argv, "--decider", "swnet"]) == 0
    ledger = json.loads(capsys.readouterr().out)["ledger"]
    assert 0 < ledger["network_evaluations"] < ledger["decider_calls"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ledger"]["network_evaluations"] == 0


def test_import_and_decider_construction_load_no_scipy(tmp_path):
    # scipy is imported inside the independent flow oracle only: importing,
    # building a decider, accepted decisions with their witness fields in
    # every mode, and dstcon with the swnet decider all run without it
    graph, path3 = tmp_path / "g.txt", tmp_path / "path3.txt"
    sw.write_graph_file(graph, sw.random_digraph(8, 0.2, 1))
    sw.write_graph_file(path3, sw.layered_path(3))
    code = (
        "import contextlib, io, json, sys\n"
        "import swnet, swnet.cli\n"
        "from swnet.driver import swnet_decider\n"
        "swnet_decider('spectral')\n"
        "loaded = ['scipy' in sys.modules]\n"
        f"g, p = {str(graph)!r}, {str(path3)!r}\n"
        "out = []\n"
        "for argv in (['decide', '--graph', g, '--u', '1', '--v', '8', '--L', '5', '--json'],\n"
        "             ['decide', '--graph', g, '--u', '1', '--v', '8', '--L', '5', '--json', '--mode', 'exact'],\n"
        "             ['decide', '--graph', p, '--u', '1', '--v', '3', '--L', '2', '--json', '--mode', 'spectral-dense'],\n"
        "             ['dstcon', '--graph', g, '--s', '1', '--t', '8', '--L', '3', '--decider', 'swnet', '--json']):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert swnet.cli.main(argv) == 0\n"
        "    out.append(json.loads(buf.getvalue()))\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(json.dumps({'loaded': loaded, 'out': out}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sw.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    spectral, exact, dense, connectivity = payload["out"]
    for report, route in ((spectral, "resistance"), (exact, "exact"), (dense, "dense")):
        assert (report["accepted"], report["route"]) == (True, route)
        assert report["witness_energy"] > 0 and report["path_len"] > 0
    assert dense["path_len"] == 3
    assert connectivity["ledger"]["network_evaluations"] > 0
    assert payload["loaded"] == [False] * 5


def test_reach_mismatch_exits_3(path_graph, capsys, monkeypatch):
    # cut the root's own sink, which the bounded BFS always reaches, out of
    # the source's component
    real = se.source_resistances

    def severed(adj, root, ell):
        R = real(adj, root, ell)
        R[root - 1] = float("nan")
        return R

    monkeypatch.setattr(se, "source_resistances", severed)
    # a rejection reads only the bounded BFS, never the resistances, so it still answers
    assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "2"]) == 0
    assert capsys.readouterr().out.strip() == "False"
    assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "3", "--L", "2"]) == 3
    assert capsys.readouterr().err.startswith("invariant violation: sink indices [0]: the boundary Laplacian")


def test_resistance_above_the_witness_bound_exits_3(path_graph, capsys, monkeypatch):
    # doubled, R exceeds 3^ell at the asked sink 3 (index 2) and at the root's
    # own sink; sink 2's doubled R = 3 attains the bound and passes
    real, scale = se.source_resistances, [2.0]
    monkeypatch.setattr(se, "source_resistances", lambda adj, root, ell: scale[0] * real(adj, root, ell))
    assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "3", "--L", "2", "--json"]) == 3
    assert capsys.readouterr().err == (
        "invariant violation: sink indices [0, 2]: effective resistance up to 5.666666666666666 above the witness "
        "bound 3^ell = 3\n"
    )
    # a rejection and dstcon's verdicts read no R, so they still answer
    assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "4", "--L", "2"]) == 0
    assert capsys.readouterr().out.strip() == "False"
    assert main(["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--decider", "swnet"]) == 0
    assert capsys.readouterr().out.strip() == "Connected"
    # at L = 1 every reached sink has R = 3^0 = 1, so the tolerance is relative
    for factor, code in ((1 + 1e-10, 0), (1 + 1e-8, 3)):
        scale[0] = factor
        assert main(["decide", "--graph", path_graph, "--u", "1", "--v", "2", "--L", "1", "--json"]) == code
    assert "sink indices [0, 1]" in capsys.readouterr().err


def test_exact_label_mismatch_exits_3(path_graph, capsys, monkeypatch):
    # invert the exact route's component labels against the bounded BFS: a
    # rejected and an accepted question both trip
    real = se.accepts_all
    monkeypatch.setattr(se, "accepts_all", lambda net, oracle: ~real(net, oracle))
    for v in (4, 3):
        assert main(["decide", "--graph", path_graph, "--u", "1", "--v", str(v), "--L", "2", "--mode", "exact"]) == 3
        assert capsys.readouterr().err.startswith(f"invariant violation: sink index {v - 1}: the component labels")


@pytest.mark.parametrize("mode", ["exact", "spectral", "spectral-dense"])
@pytest.mark.parametrize("u, v, L", [(1, 0, 2), (1, 9, 3), (1, 9, 2), (0, 1, 3), (9, 9, 2)])
def test_decide_refuses_vertices_out_of_range(tmp_path, capsys, mode, u, v, L):
    # sink 0 would wrap to the last vertex and sink 9 is the grafted feeder
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.random_digraph(8, 0.3, 1))
    argv = ["decide", "--graph", str(graph), "--u", str(u), "--v", str(v), "--L", str(L), "--mode", mode]
    assert main(argv) == 2
    assert "out of range 1..8" in capsys.readouterr().err


def test_dense_reach_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    # flip the dense spectrum's verdict against the bounded BFS, on an
    # accepted and on a rejected question
    real = se.decide_phase_estimation

    def flipped(pair, psi0):
        report = real(pair, psi0)
        report.accepted = not report.accepted
        return report

    monkeypatch.setattr(se, "decide_phase_estimation", flipped)
    graph = tmp_path / "path3.txt"
    sw.write_graph_file(graph, sw.layered_path(3))
    for u, v in ((1, 3), (3, 1)):
        argv = ["decide", "--graph", str(graph), "--u", str(u), "--v", str(v), "--L", "2", "--mode", "spectral-dense"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"invariant violation: sink index {v - 1}: the dense spectrum")


def test_a_graft_that_misses_u_exits_3_and_leaves_spectral_verdicts_right(tmp_path, capsys, monkeypatch):
    # the chain's last edge lands on u + 1, not u.  On the 6-path at L = 3
    # that puts v = 5 within 4 of the chain head though dist(1, 5) = 4 > 3.
    # Reach is read off the input graph, so the routes that read the graft
    # exit 3, and the spectral verdicts and dstcon, which never graft, answer
    # as BFS does
    real = se.attach_source_path

    def missing_u(g, u, a):
        grafted, head = real(g, u, a)
        adj = grafted.adj.copy()
        adj[g.n + a - 1, u - 1] = False
        adj[g.n + a - 1, u % g.n] = True
        return sw.Digraph(grafted.n, adj), head

    monkeypatch.setattr(se, "attach_source_path", missing_u)
    g = sw.layered_path(6)
    graph = tmp_path / "path6.txt"
    sw.write_graph_file(graph, g)
    for mode, v in (("exact", 5), ("exact", 4), ("spectral", 4)):  # 4: an accepted spectral report reads R
        argv = ["decide", "--graph", str(graph), "--u", "1", "--v", str(v), "--L", "3", "--mode", mode]
        assert main(argv) == 3, (mode, v)
        assert capsys.readouterr().err.startswith("invariant violation: sink ind"), (mode, v)
    for L in (3, 5, 6, 7):
        for u in range(1, 7):
            want = [sw.bfs_distance(g, u, v) <= L for v in range(1, 7)]
            assert se.Evaluation(g, u, L, "spectral").verdicts() == want, (L, u)
    for s, t, L in ((1, 5, 3), (1, 6, 3), (2, 6, 5), (6, 1, 3)):
        runs = []
        for decider in ("swnet", "exact"):
            argv = ["dstcon", "--graph", str(graph), "--s", str(s), "--t", str(t), "--L", str(L), "--decider", decider]
            assert main([*argv, "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            runs.append((out["result"], *(out["ledger"][k] for k in ("decider_calls", "peak_frontier", "space_cells"))))
        assert runs[0] == runs[1], (s, t, L)


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


@pytest.mark.parametrize("error, code, prefix", [
    *(pytest.param(error, 3, "invariant violation", id=error.__name__)
      for error in InvariantViolation.__subclasses__()),
    *(pytest.param(error, 2, "error", id=error.__name__)
      for error in (*InvalidParams.__subclasses__(), Disconnected, CapExceeded)),
])
def test_exit_code_follows_the_error_family(capsys, monkeypatch, error, code, prefix):
    # every InvariantViolation subclass exits 3, whichever command raises
    # it; bad inputs and the other package errors still exit 2
    def raising(args):
        raise error("tripped")

    monkeypatch.setattr(cli, "cmd_pebble", raising)
    assert main(["pebble"]) == code
    assert capsys.readouterr().err == f"{prefix}: tripped\n"


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


def test_decide_refuses_a_graph_file_with_one_vertex(tmp_path, capsys):
    # refused at the header, by the file's name, not later by Digraph's "need n >= 2"
    graph = tmp_path / "g.txt"
    graph.write_text("1 0\n")
    assert main(["decide", "--graph", str(graph), "--u", "1", "--v", "1", "--L", "1"]) == 2
    assert capsys.readouterr().err == f"error: {graph}: header n = 1 is not in 2..MAX_FILE_VERTICES=4096\n"


@pytest.mark.parametrize("header", ["3 7", "3 -1", "4096 16773121"])
def test_decide_rejects_graph_header_m_out_of_bounds(tmp_path, capsys, header):
    # m is at most n(n-1), the edges a digraph without self-loops has
    graph = tmp_path / "g.txt"
    graph.write_text(header + "\n1 2\n")
    assert main(["decide", "--graph", str(graph), "--u", "1", "--v", "2", "--L", "1"]) == 2
    assert "0..n(n-1)" in capsys.readouterr().err


def test_decide_refuses_a_graph_file_line_past_the_limit(tmp_path, capsys):
    # 20,000,000 characters on one line: exit 2 with a short message, not the line
    graph = tmp_path / "long_line.txt"
    graph.write_text("3 1\n" + "1" * 20_000_000)
    assert main(["decide", "--graph", str(graph), "--u", "1", "--v", "2", "--L", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 2 is longer than MAX_LINE_CHARS" in err and len(err) < 1000


@pytest.mark.parametrize("name", ["bogus", "noisy:abc"])
def test_dstcon_rejects_unknown_decider(path_graph, capsys, name):
    assert main(["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--decider", name]) == 2
    assert name in capsys.readouterr().err


def test_exit_code_bad_pebble_path(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    sw.write_graph_file(graph, sw.layered_path(4))
    rc = main(["pebble", "--graph", str(graph), "--path", "1,3"])
    assert rc == 2


@pytest.fixture
def c4_graph(tmp_path):
    p = tmp_path / "c4.txt"
    sw.write_graph_file(p, sw.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    return str(p)


@pytest.mark.parametrize("path", ["0,1,2", "1,2,3,5,6"])
def test_pebble_refuses_a_path_vertex_outside_the_graph(c4_graph, capsys, path):
    # vertex 0 must not read the adjacency's last row (index -1), which holds
    # the 4-cycle's edge 4 -> 1, and vertex 5 of 4 must not index past it
    assert main(["pebble", "--graph", c4_graph, "--path", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "out of range 1..4" in err


@pytest.mark.parametrize(
    "argv, length", [(["--L", "0"], 0), (["--L", "-1"], -1), (["--path", "1"], 0)], ids=["L0", "L-1", "path1"]
)
def test_pebble_refuses_a_short_path_by_its_length(capsys, argv, length):
    # without --graph the plain path is built on at least two vertices, so the
    # refusal is strategy_moves' own, as it is with a graph
    assert main(["pebble", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: path length {length} is not a positive power of two\n"


@pytest.mark.parametrize("argv", [["--L", "4096"], ["--path", "1,4097"]], ids=["L4096", "path4097"])
def test_pebble_refuses_a_plain_path_past_the_cap_before_building_it(monkeypatch, capsys, argv):
    # the first plain path above MAX_FILE_VERTICES: 4097 vertices
    def refuse(n):
        raise AssertionError("the plain path was built")

    monkeypatch.setattr(cli, "layered_path", refuse)
    assert main(["pebble", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a plain path on 4097 vertices is above MAX_FILE_VERTICES=4096\n"


def test_pebble_path_of_one_vertex_is_refused_alike_with_a_graph(c4_graph, capsys):
    assert main(["pebble", "--graph", c4_graph, "--path", "1"]) == 2
    assert capsys.readouterr().err == "error: path length 0 is not a positive power of two\n"


@pytest.mark.parametrize("config", [
    {"n": 8, "S": [16]},
    {"n": [8], "S": 16},
    {"n": [8], "S": {"8": 16}},
    {"n": [8], "S": [16], "seeds": 3},
    {"n": [8], "S": [16], "decider": 3},
    {"n": [8.0], "S": [16]},
    {"n": [8], "S": [1.5]},
    {"n": [8], "S": {"8": [16.5]}},
    {"n": [8], "S": [16], "seeds": [1.5]},
    {"n": [8], "S": [16], "seeds": [True]},
    {"n": [8], "S": [16], "reps": 1.5},
    {"n": [8], "S": [16], "measure_max_n": 4097},
    {"n": [8], "S": [16], "edge_prob": [0.3]},
    {"n": [8], "S": [16], "c": None},
    {"n": [8], "S": [16], "c_L": "1"},
    # refused before any row, so also when no row is measured
    {"n": [5000], "S": [169], "decider": "bogus"},
    {"n": [8], "S": [16], "decider": "noisy:abc", "measure_max_n": 4},
    {"n": [8], "S": [16], "reps": 2, "measure_max_n": 4},
    # no seed would print zero time and zero cells as a measurement
    {"n": [8], "S": [16], "seeds": []},
    # an S map key that names no n would print the header alone
    {"n": [8], "S": {"9": [16]}},
    # an n without an S map key, or no n at all, would drop its rows silently
    {"n": [8, 16], "S": {"8": [16]}},
    {"n": [], "S": [16]},
    # an empty S grid, for every n or for one, would print no row for it
    {"n": [8], "S": []},
    {"n": [8, 16], "S": {"8": [16], "16": []}},
], ids=repr)
def test_sweep_malformed_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("decider", ["exact", "swnet", "noisy:0.9"])
@pytest.mark.parametrize("reps", [0, -1, 2])
def test_dstcon_refuses_reps_that_are_not_odd_and_positive(path_graph, capsys, decider, reps):
    argv = ["dstcon", "--graph", path_graph, "--s", "1", "--t", "4", "--L", "2", "--decider", decider]
    assert main([*argv, "--reps", str(reps)]) == 2
    assert "reps must be odd and >= 1" in capsys.readouterr().err
    assert main([*argv, "--reps", "3"]) == 0
