"""The dstcon record corpus still hashes to the committed digest (tests/golden.py)."""

import time

import golden

TIME_BOUND_S = 15.0  # the 36,432 records build in about 3 s on 2 cores


def test_dstcon_records_hash_to_the_committed_digest():
    t0 = time.perf_counter()
    moved = golden.moved_shards()
    elapsed = time.perf_counter() - t0
    assert moved == [], f"shards moved from tests/golden/DIGEST: {moved}"
    assert sum(count for count, _ in golden.read_digest().values()) == 36432
    assert elapsed <= TIME_BOUND_S, f"the digest took {elapsed:.1f} s, above its bound of {TIME_BOUND_S} s"
