"""`src/` holds only what a command runs, or what a stated reason keeps.

Runs one corpus through ``cli.main`` in-process under ``sys.setprofile``:
every subcommand, ``decide`` in each mode and at u == v, ``dstcon`` with
each decider, ``sweep`` with the swnet and a boosted noisy decider, and
``pebble`` along a plain path and along a path of a graph file.  Every
module-level function and method of ``swnet`` that the run never calls
must be listed in ``UNREACHED`` with its reason, so code that exists only
to cross-check lives in ``tests/oracles.py``:

- ``tracer``: a wrap point of the benchmark's tracer (``perfbench/tracer.py``);
- ``tracer-helper``: called only by a ``tracer`` function;
- ``api``: graph or flow API that demos and tests read;
- ``capability``: a documented capability no command exposes.

Closures nested in a function are not counted; they run when it does.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import runpy
import sys
import types
from pathlib import Path

import swnet
from swnet import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

UNREACHED = {
    # wrap points of the benchmark's tracer, and the helpers only they call
    "flows.optimal_flow_lsq": "tracer",
    "flows.grounded_laplacian": "tracer-helper",
    "flows.star_state": "tracer",
    "graphs.pad_to_power_of_two": "tracer",
    "network.accepts": "tracer",
    "network._component_and_parents": "tracer-helper",
    "pebbling.path_to_moves": "tracer",
    "pebbling.in_source_support": "tracer-helper",
    "spaneval.decide_distance": "tracer",
    "spaneval.decide_length_bounded": "tracer",
    "spaneval.phase_mass": "tracer",
    "spaneval.witness_energy": "tracer",
    # graph and flow API that demos and tests read
    "flows.divergence": "api",
    "graphs.Digraph.edge_count": "api",
    "graphs.Digraph.edges": "api",
    "graphs.GraphOracle.query": "api",
    "graphs.bfs_distance": "api",
    "graphs.bfs_distances": "api",
    "graphs.complete": "api",
    "graphs.write_graph_file": "api",
    # the amplitude loader step 1's closed form is held to, its prefix sums, and the crossover scan
    "prep.grover_rudolph": "capability",
    "prep.prefix_sum_S": "capability",
    "tradeoff.crossover_scan": "capability",
}


def _modules():
    return [importlib.import_module(f"swnet.{m.name}") for m in pkgutil.iter_modules(swnet.__path__)]


def _functions() -> dict[str, types.CodeType]:
    """qualname within the package -> code object, for every function and method defined in its source."""
    root = Path(swnet.__file__).resolve().parent
    out = {}

    def add(mod, obj):
        obj = inspect.unwrap(obj)  # an lru_cache wrapper's function
        code = obj.__code__
        if Path(code.co_filename).resolve().parent == root:
            out[f"{mod.__name__.removeprefix('swnet.')}.{obj.__qualname__}"] = code

    for mod in _modules():
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, property):
                        for f in (member.fget, member.fset, member.fdel):
                            if f is not None:
                                add(mod, f)
                    elif isinstance(member, functools.cached_property):
                        add(mod, member.func)
                    elif isinstance(member, (staticmethod, classmethod)):
                        add(mod, member.__func__)
                    elif inspect.isfunction(member):
                        add(mod, member)
            elif inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                add(mod, obj)
    return out


def _clear_caches():
    """Empty every lru_cache in the package, so a body an earlier test cached still counts as reached."""
    for mod in _modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def corpus(tmp: Path) -> list[list[str]]:
    """The one list of CLI commands every command-level check runs, with its input files written to tmp.

    This module traces it for reach; ``test_cli`` runs it again, with the
    demos, through ``python -m swnet.cli`` in a child interpreter that must
    never load scipy.
    """
    g8, path3, sweep, noisy = tmp / "g8.txt", tmp / "path3.txt", tmp / "sweep.json", tmp / "noisy.json"
    swnet.write_graph_file(g8, swnet.random_digraph(8, 0.2, 1))
    swnet.write_graph_file(path3, swnet.layered_path(3))
    sweep.write_text(json.dumps({"n": [8], "S": [9, 16], "decider": "swnet", "seeds": [0]}))
    noisy.write_text(json.dumps({"n": [8], "S": [16], "decider": "noisy:0.9", "reps": 3}))
    decide = ["decide", "--graph", str(g8), "--u", "1", "--v", "8", "--L", "5"]
    dstcon = ["dstcon", "--graph", str(g8), "--s", "1", "--t", "8", "--L", "3"]
    return [
        [*decide, "--mode", "exact", "--json"],
        [*decide, "--mode", "spectral", "--json"],
        decide,
        ["decide", "--graph", str(path3), "--u", "1", "--v", "3", "--L", "2", "--mode", "spectral-dense", "--json"],
        ["decide", "--graph", str(g8), "--u", "2", "--v", "2", "--L", "1", "--json"],
        [*dstcon, "--decider", "exact", "--json"],
        [*dstcon, "--decider", "swnet", "--json"],
        [*dstcon, "--decider", "noisy:0.9", "--reps", "11"],
        ["sweep", "--config", str(sweep)],
        ["sweep", "--config", str(noisy)],
        ["prep", "verify", "--n", "4", "--L", "2"],
        ["basis", "dump", "--n", "3", "--L", "2"],
        ["net", "dump", "--n", "3", "--ell", "2", "--root", "2"],
        ["pebble", "--L", "4"],
        ["pebble", "--graph", str(path3), "--path", "1,2,3"],
    ]


def _reached(commands) -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            exits = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(commands), list(zip(commands, exits))
    return codes


def unreached(tmp: Path) -> set[str]:
    functions = _functions()
    reached = _reached(corpus(tmp))
    return {name for name, code in functions.items() if code not in reached}


def test_every_unreached_function_is_listed_with_its_reason(tmp_path):
    assert set(UNREACHED.values()) <= {"tracer", "tracer-helper", "api", "capability"}
    assert unreached(tmp_path) == set(UNREACHED)


def test_every_tracer_entry_is_a_wrap_point():
    targets = {f"{module}.{attr}" for module, attr, *_ in runpy.run_path(str(TRACER))["TARGETS"]}
    assert {name for name, reason in UNREACHED.items() if reason == "tracer"} <= targets
