"""Command-line front end.

Subcommands: ``net dump``, ``basis dump``, ``prep verify``, ``decide``,
``dstcon``, ``pebble``, ``sweep``.  Exit codes: 0 on success, 2 for bad
inputs or configuration, 3 when an internal invariant check trips.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import flows as fl
from . import pebbling as pb
from . import prep
from .driver import boosted, decider_from_name, dstcon
from .errors import InvalidParams, InvariantViolation, SwnetError
from .graphs import MAX_FILE_VERTICES, layered_path, read_graph_file
from .network import build, leaf_symbols
from .spaneval import decide_distance_report
from .tradeoff import sweep_csv


def _depth(L: int) -> int:
    """log2 L for the fixed-depth commands, whose bases need L = 2^ell exactly."""
    if L < 1 or L & (L - 1):
        raise InvalidParams(f"--L must be a positive power of two, got {L}")
    return L.bit_length() - 1


def cmd_net_dump(args) -> int:
    net = build(args.n, args.ell, args.root)
    tags, payloads = leaf_symbols(net.n, net.ell)
    sigmas = [",".join(f"{t}.{p}" for t, p in zip(*row)) or "-" for row in zip(tags.tolist(), payloads.tolist())]
    a, b = (x.tolist() for x in net.struct.label_arrays(net.root))
    for e in range(net.edge_count):
        print(f"{sigmas[e // net.n]};{e % net.n};{a[e]};{b[e]}")
    return 0


def cmd_basis_dump(args) -> int:
    ell = _depth(args.L)
    net = build(args.n, ell, 1)  # the basis reads no query label, so it is the same at every root
    Q = fl.build_Bperp_basis(net, args.sink - 1)
    G = Q.T @ Q
    print(f"# complement basis of n={args.n} L={args.L}: {Q.shape[1]} members")
    print(f"# dims: E={net.edge_count} V={net.vertex_count} "
          f"dimH={2 * net.edge_count + 4} dimBperp={net.edge_count + 4 - net.vertex_count}")
    for row in G:
        print(",".join(f"{x:.12g}" for x in row))
    return 0


def cmd_prep_verify(args) -> int:
    n = args.n
    ell = _depth(args.L)

    def residual(got, targ):
        g = got / np.linalg.norm(got)
        t = targ / np.linalg.norm(targ)
        if g @ t < 0:
            return 2.0
        return float(np.abs(g - t).max())

    def families():
        """Each family's name and its ((state, circuit), reference) pairs, built one pair at a time."""
        yield "sum-of-flows", [(prep.prepare_sum_of_flows(n, ell), fl._sum_unit_flows(n, ell))]
        yield "signed-sums", ((prep.fourier_flows_C(n, ell, x), fl._signed_unit_flow_sum(n, ell, x)) for x in range(n))
        if ell >= 1:
            yield "circulations", (
                (prep.prepare_psi(n, ell, z, x), fl.fourier_circulation(n, ell, z, x))
                for z in range(1, n) for x in range(n)
            )
        net = build(n, ell, 1)  # flow_state reads no query label, so it is the same at every root
        yield "optimal-flow", (
            (prep.prepare_theta(n, ell, j, with_boundary=True), fl.flow_state(net, j)) for j in range(n)
        )

    rows = []
    for name, pairs in families():
        worst, gates = 0.0, 0
        for (v, c), targ in pairs:
            worst, gates = max(worst, residual(v, targ)), max(gates, c.gate_count)
        rows.append((name, worst, gates))
    print(f"{'family':<14} {'max residual':<14} gates")
    for name, res, g in rows:
        print(f"{name:<14} {res:<14.3e} {g}")
    return 0


def cmd_decide(args) -> int:
    g = read_graph_file(args.graph)
    report = decide_distance_report(g, args.u, args.v, args.L, mode=args.mode)
    if args.json:
        print(json.dumps(asdict(report), indent=2))
    else:
        print(report.accepted)
    return 0


def cmd_dstcon(args) -> int:
    g = read_graph_file(args.graph)
    decider = boosted(decider_from_name(args.decider, seed=args.seed), args.reps)
    result, ledger = dstcon(g, args.s, args.t, args.L, decider=decider)
    payload = {"result": result, "ledger": asdict(ledger)}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result)
    return 0


def cmd_pebble(args) -> int:
    path = [int(tok) for tok in args.path.split(",")] if args.path else None
    if path and args.graph:
        g = read_graph_file(args.graph)
    else:
        # a plain path has at least two vertices, so strategy_moves refuses a short path by its length;
        # its dense adjacency is refused, before it is built, past a graph file's cap
        n = max(2, *path) if path else max(2, args.L + 1)
        if n > MAX_FILE_VERTICES:
            raise InvalidParams(f"a plain path on {n} vertices is above MAX_FILE_VERTICES={MAX_FILE_VERTICES}")
        g = layered_path(n)
        path = path or list(range(1, args.L + 2))
    L = len(path) - 1
    moves = pb.strategy_moves(g, path)
    pb.replay(g, path[0], moves)  # refuse to print an illegal trace
    sys.stdout.write(pb.format_trace(L, path, moves))
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    sys.stdout.write(sweep_csv(config))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="switching-network inspection")
    net_sub = p_net.add_subparsers(dest="subcommand", required=True)
    p = net_sub.add_parser("dump", help="emit edges as sigma;i;label_from;label_to")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--root", type=int, default=1)
    p.set_defaults(func=cmd_net_dump)

    p_basis = sub.add_parser("basis", help="flow-basis inspection")
    basis_sub = p_basis.add_subparsers(dest="subcommand", required=True)
    p = basis_sub.add_parser("dump", help="emit the complement-basis Gram matrix as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--sink", type=int, default=1)
    p.set_defaults(func=cmd_basis_dump)

    p_prep = sub.add_parser("prep", help="state-preparation checks")
    prep_sub = p_prep.add_subparsers(dest="subcommand", required=True)
    p = prep_sub.add_parser("verify", help="print per-family max residual and gate count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(func=cmd_prep_verify)

    p = sub.add_parser("decide", help="bounded-length reachability decision")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "spectral", "spectral-dense"], default="spectral")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("dstcon", help="directed st-connectivity via the outer BFS")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--decider", default="exact", help="exact | swnet | noisy:P")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dstcon)

    p = sub.add_parser("pebble", help="dump a doubling-strategy pebbling trace")
    p.add_argument("--L", type=int, default=4, help="path length (power of two)")
    p.add_argument("--path", help="comma-separated vertex list overriding --L")
    p.add_argument("--graph", help="graph file for --path (default: a plain path)")
    p.set_defaults(func=cmd_pebble)

    p = sub.add_parser("sweep", help="emit tradeoff-curve CSV for a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (SwnetError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
