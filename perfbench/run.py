"""swnet benchmark: three checked workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload decide-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the library is imported from ``src/``).
Each workload runs in a fresh child process (perfbench/worker.py) with the
BLAS thread count fixed and an address-space limit set, so ``peak_rss_mb``
is that workload alone and a runaway allocation fails as a counted
MemoryError.  The loop is closed: one caller, each operation starts after
the previous one returns.

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 prints
the per-layer metrics of a traced run (see worker.py).  The timed pass runs
the workload's cycle of operations one or more times; every run of every
operation is checked, and each operation's latency is its fastest run.  Set-up
is measured in SETUP_RUNS fresh processes and reported as their median.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("decide-corpus", "dstcon-swnet", "verify-dense")
# Set-up samples per run: the measured child plus set-up-only children, half
# of them before it and half after, so a slow spell of the machine in one
# part of the run moves one sample, not the median.
SETUP_RUNS = 5
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared 2-core machine steady
DEADLINE_S = 170  # the whole run, all children included

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="length of the timed pass; whole cycles, see worker.SECONDS_PER_CYCLE")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the library alike
    t0 = time.time()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.time(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fastest_runs(records: list[dict]) -> list[float]:
    """Each operation's fastest latency over its runs, in cycle order.

    The cycles of the timed pass repeat the same operations on the same
    inputs (see worker.SECONDS_PER_CYCLE for why the fastest run is kept).
    """
    best = {}
    for r in records:
        best[r["op"]] = min(best.get(r["op"], r["latency_s"]), r["latency_s"])
    return [best[i] for i in sorted(best)]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond).

    With 10 samples or fewer no percentile qualifies; the maximum is reported
    with 0 samples beyond it.
    """
    s = sorted(latencies)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), 10


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.time() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "swnet", "__init__.py")):
        print(f"error: no swnet library under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        extra = 0 if args.trace else SETUP_RUNS - 1
        setups = [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(extra // 2)]
        res = spawn(args, deadline)
        setups.append(res["setup_s"])
        setups += [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    records = res["records"]
    attempted = len(records)
    failures = [r for r in records if not r["ok"]]
    known = [r for r in failures if r["known_defect"]]
    lat = fastest_runs(records)
    tail_v, tail_pct, beyond = tail(lat)
    correct = len(known) == len(failures)
    info = {
        "workload": args.workload, "seed": args.seed,
        "latency_tail": f"p{tail_pct:.1f} of {len(lat)} operations, {beyond} beyond it",
        "cycles": res.get("cycles", 1),
        "blas_threads": res["blas_threads"], "as_limit_mb": res["as_limit_mb"],
        "composition": res["composition"],
    }
    if args.trace:
        values = res["layers"]
        # a wrapper target a refactor removed would read as a layer taking no time
        info["missing_targets"] = res["missing_targets"]
        info["layers_not_called"] = res["layers_not_called"]
        correct = correct and not res["missing_targets"]
    else:
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail_v,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        info["setup_samples_s"] = setups
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    for r in failures:
        tag = "known defect" if r["known_defect"] else "FAILURE"
        print(f"# {tag}: {r['key']} -> {r['reason']}")
    for k, v in info.items():
        print(f"# {k}: {v}")
    print(f"# fail_rate {len(failures) / attempted:.6f} ({len(failures)} of {attempted}; {len(known)} known defect)")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
