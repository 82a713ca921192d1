"""The committed digest of the dstcon record corpus: outputs held equal across refactors.

The corpus is G(n, p) at n 2..9, p in PROBS, seeds 0..2, every (s, t)
(s == t included) and every L in 1..n, run through ``driver.dstcon`` with
a fresh exact and a fresh spectral swnet decider per run.  A record holds
the result, every ledger field (``time_steps`` as ``float.hex``) and the
frontier trace, or for a refused run its error class and message.  The
records are built in-process, and hashed in shards keyed by
("dstcon", n, p, seed): ``tests/golden/DIGEST`` holds one line per shard
with its record count and SHA-256, so a change that moves any output names
the shards it moved.  Boosted ``noisy:P`` is left out: NumPy does not
promise its Generator stream across versions.

Run from the repository root with ``src`` on PYTHONPATH:

    python tests/golden.py            # check: exit 1 naming every shard that moved
    python tests/golden.py --write    # rewrite tests/golden/DIGEST
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from swnet import driver
from swnet.errors import SwnetError
from swnet.graphs import random_digraph

DIGEST = Path(__file__).resolve().parent / "golden" / "DIGEST"
SIZES = range(2, 10)
PROBS = (0.15, 0.3, 0.5)
SEEDS = range(3)
DECIDERS = {"exact": driver.exact_bfs_decider, "swnet": lambda: driver.swnet_decider("spectral")}


def dstcon_record(g, s: int, t: int, L: int, decider: str) -> list:
    """One run's record: [decider, s, t, L, result, ledger, trace], or the refusal in place of the last three."""
    trace = []
    try:
        result, ledger = driver.dstcon(g, s, t, L, decider=DECIDERS[decider](), frontier_trace=trace)
    except SwnetError as exc:
        return [decider, s, t, L, "refused", type(exc).__name__, str(exc)]
    fields = asdict(ledger)
    fields["time_steps"] = float.hex(fields["time_steps"])
    return [decider, s, t, L, result, fields, [[j, i, sorted(admitted)] for j, i, admitted in trace]]


def shard_records(n: int, p: float, seed: int):
    """Every record of one shard, in a fixed order."""
    g = random_digraph(n, p, seed)
    for decider in DECIDERS:
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                for L in range(1, n + 1):
                    yield dstcon_record(g, s, t, L, decider)


def digests() -> dict[str, tuple[int, str]]:
    """Shard name -> (record count, SHA-256 of its records, one JSON line each)."""
    out = {}
    for n in SIZES:
        for p in PROBS:
            for seed in SEEDS:
                sha, count = hashlib.sha256(), 0
                for record in shard_records(n, p, seed):
                    sha.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                    count += 1
                out[f"dstcon n={n} p={p} seed={seed}"] = count, sha.hexdigest()
    return out


def read_digest(path: Path = DIGEST) -> dict[str, tuple[int, str]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        *name, count, sha = line.split()
        out[" ".join(name)] = int(count), sha
    return out


def moved_shards(path: Path = DIGEST) -> list[str]:
    """The shards whose count or hash differs from the committed digest, or that only one side has."""
    want, got = read_digest(path), digests()
    return [name for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        got = digests()
        DIGEST.parent.mkdir(exist_ok=True)
        DIGEST.write_text("".join(f"{name} {count} {sha}\n" for name, (count, sha) in got.items()), encoding="utf-8")
        print(f"wrote {len(got)} shards, {sum(count for count, _ in got.values())} records to {DIGEST}")
        return 0
    if argv:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    moved = moved_shards()
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(moved)} of {len(read_digest())} shards moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
