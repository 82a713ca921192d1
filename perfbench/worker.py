"""One workload in one fresh process; started by run.py, prints one JSON line.

Modes:
  --setup-only   import, generate the inputs, warm the caches, report setup_s
  --trace 0      then run round(seconds / SECONDS_PER_CYCLE[workload]) whole cycles,
                 at least one, closed loop
  --trace 1      then one cycle untraced and the same cycle traced; report the
                 per-layer metrics, the tracing overhead and the exact counts

The address-space limit is set before numpy is imported, so a regression into
a dense allocation fails as a counted MemoryError instead of exhausting the
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")  # the run's JSON files; ignored by git
# Address-space cap.  The largest observed peak is about 0.6 GB of RSS (the
# dense least-squares witness at n'=16, ell=2) in about 1.2 GB of address
# space; 3 GiB leaves room and stops a dense regression early.
AS_LIMIT_MB = 3072

# Seconds of the timed pass that buy one cycle of each workload.  Cycles are
# counted, not clocked, so a faster program runs the same operations.  run.py
# keeps each op's fastest run: on a shared host the speed of identical work
# swings by up to 2x in spells of seconds to minutes, and the fastest of runs
# spread over the pass reads the program rather than a short spell.  On a
# 2-core x86 VM a cycle takes 18-25 s (decide-corpus), 6-9 s (dstcon-swnet)
# or 0.5-0.7 s (verify-dense).
SECONDS_PER_CYCLE = {"decide-corpus": 20, "dstcon-swnet": 5, "verify-dense": 0.5}


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True, help="time.time() when run.py spawned this process")
    return p.parse_args(argv)


def run_cycle(ops, tracer=None) -> list[dict]:
    """Run every op once, closed loop; one record per op, with its index."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        rec = {"op": i, "key": op.key, "known_defect": False, "answer": None, "ledger": {}}
        t0 = time.perf_counter()
        try:
            out = tracer.call("op", op.run) if tracer is not None else op.run()
            rec["latency_s"] = time.perf_counter() - t0
            res = op.check(out)
        except Exception as exc:  # any exception is a counted failure
            rec.setdefault("latency_s", time.perf_counter() - t0)
            rec.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        else:
            rec.update(ok=res.ok, reason=res.reason, known_defect=res.known_defect,
                       answer=res.answer, ledger=res.ledger)
        records.append(rec)
    return records


def composition(records) -> dict:
    """Share of ops per (n', ell), per route and per answer."""
    def shares(keys):
        out = {}
        for k in keys:
            out[k] = out.get(k, 0) + 1
        return {k: round(v / len(records), 6) for k, v in sorted(out.items())}

    keys = [r["key"] for r in records]
    comp = {"ops": len(records)}
    if "n_prime" in keys[0]:
        comp["per_size"] = shares(f"n'={k['n_prime']},ell={k['ell']}" for k in keys)
        comp["per_route"] = shares(k["route"] for k in keys)
    decisions = [k["want"] for k in keys if "want" in k]
    comp["accepted_share"] = round(sum(decisions) / len(decisions), 6)
    return comp


PREPARERS = ("prep.prepare_sum_of_flows", "prep.fourier_flows_C", "prep.prepare_psi", "prep.prepare_theta")


def layer_metrics(spans, ledgers) -> dict:
    """The per-layer table, from the traced set-up and the traced cycle."""
    from tracer import LayerTotals, T0, T1

    lt = LayerTotals(spans)
    calls, total, self_total = lt.calls, lt.total, lt.self_total
    struct_spans = [s for s in spans if s[0] == "network.structure"]
    built = [s for s in struct_spans if s[5]]
    decisions = calls.get("spaneval.decide_length_bounded", 0)
    sector_dims = lt.attr_values("spaneval.phase_mass", "dim")
    m = {
        "network.structure.build_s": sum(s[T1] - s[T0] for s in built),
        "network.structure.misses": len(built),
        "network.structure.hits": len(struct_spans) - len(built),
        "network.structure.edges_built": sum(s[5]["edges"] for s in built),
        "network.on_edge_mask.s": total.get("network.on_edge_mask", 0.0),
        "network.accepts.self_s": self_total.get("network.accepts", 0.0),
        "network.accepts.calls": calls.get("network.accepts", 0),
        "network.accepts.edges_scanned": sum(lt.attr_values("network.on_edge_mask", "on", parent="network.accepts")),
        "graphs.attach_source_path.s": total.get("graphs.attach_source_path", 0.0),
        "graphs.pad_to_power_of_two.s": total.get("graphs.pad_to_power_of_two", 0.0),
        "graphs.padded_vertices": sum(lt.attr_values("graphs.pad_to_power_of_two", "n", parent="spaneval.decide_length_bounded")),
        "spaneval.phase_mass.self_s": self_total.get("spaneval.phase_mass", 0.0),
        "spaneval.phase_mass.calls": calls.get("spaneval.phase_mass", 0),
        "spaneval.phase_mass.sector_dim": sum(sector_dims) / len(sector_dims) if sector_dims else 0.0,
        "spaneval.sector_share": calls.get("spaneval.phase_mass", 0) / decisions if decisions else 0.0,
        "flows.build_Bperp_basis.s": total.get("flows.build_Bperp_basis", 0.0),
        "flows.build_Bperp_basis.calls": calls.get("flows.build_Bperp_basis", 0),
        "spaneval.witness_energy.s": total.get("spaneval.witness_energy", 0.0),
        "flows.optimal_flow_lsq.s": total.get("flows.optimal_flow_lsq", 0.0),
        "flows.optimal_flow_lsq.dense_mb": max(lt.attr_values("flows.optimal_flow_lsq", "mb"), default=0.0),
        "spaneval.build_reflections.self_s": self_total.get("spaneval.build_reflections", 0.0),
        "spaneval.build_reflections.dim": max(lt.attr_values("spaneval.build_reflections", "dim"), default=0),
        "flows.build_B_spanning.s": total.get("flows.build_B_spanning", 0.0),
        "flows.star_state.calls": calls.get("flows.star_state", 0),
        "flows.orthonormalize.s": total.get("flows.orthonormalize", 0.0),
        "flows.projector.s": total.get("flows.projector", 0.0),
        "spaneval.decide_phase_estimation.s": total.get("spaneval.decide_phase_estimation", 0.0),
        "prep.prepare_sum_of_flows.s": total.get("prep.prepare_sum_of_flows", 0.0),
        "prep.fourier_flows_C.s": total.get("prep.fourier_flows_C", 0.0),
        "prep.prepare_psi.s": total.get("prep.prepare_psi", 0.0),
        "prep.prepare_theta.s": total.get("prep.prepare_theta", 0.0),
        "prep.gate_count": sum(
            g for name in PREPARERS for g in lt.attr_values(name, "gates", parent="op")),
        "pebbling.path_to_moves.s": total.get("pebbling.path_to_moves", 0.0),
        "pebbling.replay.s": total.get("pebbling.replay", 0.0),
        "pebbling.moves": sum(lt.attr_values("pebbling.path_to_moves", "moves")),
        "driver.dstcon.self_s": self_total.get("driver.dstcon", 0.0),
        "driver.decider_wait_s": lt.child_time("spaneval.decide_distance", "driver.dstcon"),
    }
    dstcon = [led for key, led in ledgers if key["kind"] == "dstcon"]
    m["driver.decider_calls"] = sum(led["decider_calls"] for led in dstcon)
    m["driver.oracle_queries"] = sum(led["oracle_queries"] for led in dstcon)
    m["driver.model_time_steps"] = sum(led["time_steps"] for led in dstcon)
    m["driver.quantum_space_cells"] = max((led["quantum_space_cells"] for led in dstcon), default=0)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    limit = AS_LIMIT_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)

    import workloads
    from tracer import TARGETS, Tracer

    tracer = Tracer() if args.trace else None
    snaps = []  # cache counters around the traced phases
    if tracer is not None:
        snaps.append(cache_counts())
        tracer.install()
        tracer.op = "setup"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.call("setup", workloads.warm, wl)
        tracer.uninstall()
        snaps.append(cache_counts())
    else:
        workloads.warm(wl)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "as_limit_mb": AS_LIMIT_MB}
    t_start = time.perf_counter()
    records = run_cycle(wl.ops)
    untraced_wall = time.perf_counter() - t_start
    if tracer is None:
        cycles = max(1, round(args.seconds / SECONDS_PER_CYCLE[args.workload]))
        for _ in range(cycles - 1):
            records += run_cycle(wl.ops)
        result["cycles"] = cycles
    else:
        snaps.append(cache_counts())
        tracer.install()
        t1 = time.perf_counter()
        traced_records = run_cycle(wl.ops, tracer)
        traced_wall = time.perf_counter() - t1
        tracer.uninstall()
        snaps.append(cache_counts())
        # the set-up and the traced cycle; the untraced cycle sits between them
        b, s, m, a = snaps
        cache = {k: {f: s[k][f] - b[k][f] + a[k][f] - m[k][f] for f in ("hits", "misses")} for k in a}
        layers = layer_metrics(tracer.spans, [(r["key"], r["ledger"]) for r in traced_records])
        layers["trace.overhead_ratio"] = traced_wall / untraced_wall
        result["layers"] = layers
        result["missing_targets"] = sorted(tracer.missing)
        result["layers_not_called"] = sorted({name for _, _, name, _ in TARGETS} - {sp[0] for sp in tracer.spans})
        counts = exact_counts(wl, traced_records, layers, cache)
        write_json(os.path.join(OUT, f"{args.workload}-seed{args.seed}-counts.json"), counts)
        write_json(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"),
                   {"fields": ["name", "t0", "t1", "parent", "op", "attrs"], "spans": tracer.spans})
        records = traced_records
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["composition"] = composition(records[: len(wl.ops)])
    if tracer is None:
        write_json(os.path.join(OUT, f"{args.workload}-seed{args.seed}-run.json"), result)
    print(json.dumps(result))
    return 0


def cache_counts() -> dict:
    """Hits and misses of the structure and complement-basis caches so far."""
    from swnet import network
    from swnet import spaneval as se

    out = {}
    caches = {"network.structure": network.structure, "spaneval._cached_bperp": getattr(se, "_cached_bperp", None)}
    for name, fn in caches.items():
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[name] = {"hits": info.hits if info else 0, "misses": info.misses if info else 0}
    return out


def exact_counts(wl, records, layers, cache) -> dict:
    """What two runs at one seed must reproduce exactly: no times in here."""
    count_keys = [k for k in layers if not k.endswith(("_s", ".s")) and k != "trace.overhead_ratio"]
    ledger_total = {}
    for r in records:
        for k, v in r["ledger"].items():
            ledger_total[k] = ledger_total.get(k, 0) + v
    return {
        "workload": wl.name,
        "composition": composition(records),
        "cache_info": cache,
        "layer_counts": {k: layers[k] for k in count_keys},
        "ledger_total": ledger_total,
        "answers": [r["answer"] for r in records],
        "failures": [[i, r["reason"], r["known_defect"]] for i, r in enumerate(records) if not r["ok"]],
    }


def write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
