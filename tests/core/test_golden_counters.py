"""Golden counters for the four cracking registry names.

One seeded stream per name — queries only for the read-only names, queries
interleaved with insert/delete/update for the updatable ones — with the
total :class:`CostCounters`, final ``piece_count``, ``nbytes``, pending
depths and a hash of the sorted answers pinned to literals.  The literals
were recorded at commit d51987e (the last commit that carried two parallel
class hierarchies), so any refactor of the cracked-column stack has to
reproduce the logical work of both hierarchies exactly.

The literals are keyed without ``parallel``: the thread fan-out must charge
exactly what the sequential run charges.

The base column drifts (partition ``p`` of four holds values from
``[4000 p, 4000 p + 8000)``) so that partition bounds prune, inserts are
routed to every partition, and every partition merges more inserts than
deletes at some point of the stream.
"""

import hashlib

import numpy as np
import pytest

from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters

ROWS = 2_000
DOMAIN = 20_000
OPERATIONS = 260
MERGE_BATCH = 4
SEED = 1206

#: (name, partitions, policy, sort_threshold) ->
#: (scanned, moved, comparisons, random_accesses, bytes_allocated,
#:  pieces_created, piece_count, nbytes, pending_inserts, pending_deletes,
#:  answer_hash)
GOLDEN = {
    ('cracking', None, None, 0):
        (200215, 19665, 28756, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('updatable-cracking', None, 'ripple', 0):
        (129502, 20291, 24821, 4751, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('updatable-cracking', None, 'gradual', 0):
        (129329, 20621, 25353, 5108, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-cracking', 1, None, 0):
        (202215, 19665, 32756, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('partitioned-updatable-cracking', 1, 'ripple', 0):
        (131502, 20291, 28821, 4751, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-updatable-cracking', 1, 'gradual', 0):
        (131329, 20621, 29353, 5108, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-cracking', 4, None, 0):
        (200694, 18144, 33709, 0, 32000, 640, 644, 32000, 0, 0, '325c99bd6a15f014'),
    ('partitioned-updatable-cracking', 4, 'ripple', 0):
        (129691, 15957, 27817, 1885, 0, 392, 396, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-updatable-cracking', 4, 'gradual', 0):
        (129646, 15993, 27896, 1928, 0, 392, 396, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('cracking', None, None, 64):
        (194801, 16127, 33778, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('updatable-cracking', None, 'ripple', 64):
        (126294, 20016, 35901, 4751, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('updatable-cracking', None, 'gradual', 64):
        (126125, 20344, 36408, 5106, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-cracking', 1, None, 64):
        (196801, 16127, 37778, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('partitioned-updatable-cracking', 1, 'ripple', 64):
        (128294, 20016, 39901, 4751, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-updatable-cracking', 1, 'gradual', 64):
        (128125, 20344, 40408, 5106, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-cracking', 4, None, 64):
        (193622, 13064, 37960, 0, 32000, 640, 644, 32000, 0, 0, '325c99bd6a15f014'),
    ('partitioned-updatable-cracking', 4, 'ripple', 64):
        (125033, 14729, 39148, 1886, 0, 392, 396, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-updatable-cracking', 4, 'gradual', 64):
        (124991, 14803, 39410, 1928, 0, 392, 396, 39952, 1, 1, '30b0d8793f0d41d8'),
}


def _cases():
    for sort_threshold in (0, 64):
        yield ("cracking", None, None, sort_threshold)
        for policy in ("ripple", "gradual"):
            yield ("updatable-cracking", None, policy, sort_threshold)
        for partitions in (1, 4):
            yield ("partitioned-cracking", partitions, None, sort_threshold)
            for policy in ("ripple", "gradual"):
                yield ("partitioned-updatable-cracking", partitions, policy,
                       sort_threshold)


def base_values() -> np.ndarray:
    rng = np.random.default_rng(SEED)
    quarter = ROWS // 4
    return np.concatenate([
        rng.integers(4_000 * p, 4_000 * p + 8_000, size=quarter)
        for p in range(4)
    ]).astype(np.int64)


def run_stream(name, partitions, policy, sort_threshold, parallel):
    """Drive the seeded stream; returns the tuple pinned in ``GOLDEN``."""
    values = base_values()
    options = {"sort_threshold": sort_threshold, "repartition": False}
    if partitions is not None:
        options.update(partitions=partitions, parallel=parallel)
    if policy is not None:
        options.update(policy=policy, merge_batch=MERGE_BATCH)
    strategy = create_strategy(name, values, **options)
    updatable = strategy.supports_updates
    visible = dict(enumerate(values.tolist()))
    rng = np.random.default_rng(SEED + 1)
    counters = CostCounters()
    digest = hashlib.sha256()
    try:
        for step in range(OPERATIONS):
            # queries, an insert burst, then one DML in three operations
            if not updatable or step < 20 or (step >= 60 and step % 3):
                kind = "query"
            elif step < 60:
                kind = "insert"
            else:
                kind = ("insert", "insert", "delete", "update")[
                    int(rng.integers(0, 4))
                ]
            if kind == "query":
                width = int(rng.choice([200, 2_000, DOMAIN]))
                low = int(rng.integers(0, DOMAIN - width + 1))
                answer = np.sort(strategy.search(low, low + width, counters))
                expected = sorted(
                    r for r, v in visible.items() if low <= v < low + width
                )
                assert answer.tolist() == expected
                digest.update(answer.astype(np.int64).tobytes())
                continue
            value = int(rng.integers(0, DOMAIN))
            victim = sorted(visible)[int(rng.integers(0, len(visible)))]
            if kind == "insert":
                visible[strategy.insert(value, counters)] = value
            elif kind == "delete":
                strategy.delete(victim, counters)
                del visible[victim]
            else:
                del visible[victim]
                visible[strategy.update(victim, value, counters)] = value
        cracked = strategy.cracked
        return (
            counters.tuples_scanned, counters.tuples_moved,
            counters.comparisons, counters.random_accesses,
            counters.bytes_allocated, counters.pieces_created,
            cracked.piece_count, cracked.nbytes,
            cracked.pending_inserts, cracked.pending_deletes,
            digest.hexdigest()[:16],
        )
    finally:
        strategy.close()


@pytest.mark.parametrize(
    "case,parallel",
    [(case, parallel) for case in _cases()
     # only the partitioned names have a fan-out to run in parallel
     for parallel in ((False, True) if case[1] is not None else (False,))],
    ids=lambda value: ("thread" if value else "seq") if isinstance(value, bool)
    else "-".join(str(part) for part in value if part is not None),
)
def test_stream_matches_recorded_literals(case, parallel):
    assert run_stream(*case, parallel=parallel) == GOLDEN[case]


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/core/test_golden_counters.py
    for case in _cases():
        sequential = run_stream(*case, parallel=False)
        if case[1] is not None:
            assert run_stream(*case, parallel=True) == sequential, case
        print(f"    {case!r}: {sequential!r},")
