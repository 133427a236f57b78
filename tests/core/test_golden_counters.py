"""Golden counters for the four cracking registry names and the engine's modes.

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
from repro.engine.database import Database
from repro.engine.query import Query

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



# -- the indexing modes through the engine's front door ---------------------------
#
# One seeded stream per mode through ``Session.execute``: enough queries for
# the online and soft tuners to build, one insert, one delete, then the same
# number of queries again — so "a tuner keeps its statistics across an insert,
# drops its index and rebuilds on the next qualifying query", "a full index
# is rebuilt", "an updatable column absorbs" are pinned per query.  Beside the
# per-operation counters every stage pins the ``physical_design_report()``
# structure string and ``memory.breakdown()``.

ENGINE_ROWS = 100
ENGINE_DOMAIN = 1_000
ENGINE_QUERIES = 8

#: label -> (mode, options)
ENGINE_CASES = {
    "scan": ("scan", {}),
    "full-index": ("full-index", {}),
    "online": ("online", {}),
    "online-eager": ("online", {"build_threshold_factor": 0.5}),
    "soft": ("soft", {}),
    "soft-5": ("soft", {"recommendation_threshold": 5}),
    "cracking": ("cracking", {}),
    "partitioned-cracking-2": ("partitioned-cracking", {"partitions": 2}),
    "updatable-cracking": ("updatable-cracking", {}),
    "partitioned-updatable-cracking-2":
        ("partitioned-updatable-cracking", {"partitions": 2}),
}


def _counter_tuple(counters):
    return (
        counters.tuples_scanned, counters.tuples_moved, counters.comparisons,
        counters.random_accesses, counters.bytes_allocated,
        counters.pieces_created,
    )


def run_engine_stream(label):
    """Drive one mode through a session; returns the dict pinned in
    ``ENGINE_GOLDEN``: per-operation counters in stream order and, per stage,
    ``(structure string, memory breakdown)``."""
    mode, options = ENGINE_CASES[label]
    rng = np.random.default_rng(SEED + 2)
    database = Database("golden")
    database.create_table("T", {
        "a": rng.integers(0, ENGINE_DOMAIN, size=ENGINE_ROWS).astype(np.int64),
        "b": np.arange(ENGINE_ROWS, dtype=np.int64),
    })
    database.set_indexing("T", "a", mode, **options)
    operations = []
    stages = {}
    digest = hashlib.sha256()

    def stage(name):
        structures = [
            record["structure"] for record in database.physical_design_report()
        ]
        assert len(structures) == 1
        stages[name] = (structures[0], database.memory.breakdown())

    def queries(session):
        for _ in range(ENGINE_QUERIES):
            low = int(rng.integers(0, ENGINE_DOMAIN - 100))
            result = session.execute(Query.range_query("T", "a", low, low + 100))
            values = database.table("T")["a"].values
            expected = np.flatnonzero((values >= low) & (values < low + 100))
            expected = database.visible_positions("T", expected)
            answer = np.sort(result.positions)
            assert answer.tolist() == expected.tolist()
            digest.update(answer.astype(np.int64).tobytes())
            operations.append(_counter_tuple(result.counters))

    try:
        stage("install")
        with database.session() as session:
            queries(session)
            stage("queried")
            counters = CostCounters()
            session.insert_row("T", {"a": 500, "b": ENGINE_ROWS}, counters)
            operations.append(_counter_tuple(counters))
            stage("inserted")
            counters = CostCounters()
            session.delete_row("T", 7, counters)
            operations.append(_counter_tuple(counters))
            stage("deleted")
            queries(session)
            stage("final")
    finally:
        database.close()
    return {
        "operations": operations,
        "stages": stages,
        "answers": digest.hexdigest()[:16],
    }


ENGINE_GOLDEN = {
    'scan': {
        'operations': [
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0),
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0),
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (101, 0, 202, 0, 0, 0), (101, 0, 202, 0, 0, 0),
            (101, 0, 202, 0, 0, 0), (101, 0, 202, 0, 0, 0), (101, 0, 202, 0, 0, 0),
            (101, 0, 202, 0, 0, 0), (101, 0, 202, 0, 0, 0), (101, 0, 202, 0, 0, 0),
        ],
        'stages': {
            'install': (
                '',
                {'table:T': 1600}),
            'queried': (
                '',
                {'table:T': 1600}),
            'inserted': (
                '',
                {'table:T': 1616}),
            'deleted': (
                '',
                {'table:T': 1616}),
            'final': (
                '',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'full-index': {
        'operations': [
            (4, 0, 14, 2, 0, 0), (11, 0, 14, 2, 0, 0), (8, 0, 14, 2, 0, 0),
            (7, 0, 14, 2, 0, 0), (4, 0, 14, 2, 0, 0), (12, 0, 14, 2, 0, 0),
            (10, 0, 14, 2, 0, 0), (14, 0, 14, 2, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (7, 0, 14, 2, 0, 0), (7, 0, 14, 2, 0, 0),
            (9, 0, 14, 2, 0, 0), (15, 0, 14, 2, 0, 0), (13, 0, 14, 2, 0, 0),
            (8, 0, 14, 2, 0, 0), (10, 0, 14, 2, 0, 0), (5, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'full index (1600 bytes)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'queried': (
                'full index (1600 bytes)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'full index (1616 bytes)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'deleted': (
                'full index (1616 bytes)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'final': (
                'full index (1616 bytes)',
                {'table:T': 1616, 'index:T.a': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'online': {
        'operations': [
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0),
            (100, 0, 200, 0, 0, 0), (200, 100, 864, 0, 1600, 1), (12, 0, 14, 2, 0, 0),
            (10, 0, 14, 2, 0, 0), (14, 0, 14, 2, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (202, 101, 874, 0, 1616, 1), (7, 0, 14, 2, 0, 0),
            (9, 0, 14, 2, 0, 0), (15, 0, 14, 2, 0, 0), (13, 0, 14, 2, 0, 0),
            (8, 0, 14, 2, 0, 0), (10, 0, 14, 2, 0, 0), (5, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'online tuner (0 indexes built)',
                {'table:T': 1600}),
            'queried': (
                'online tuner (1 indexes built)',
                {'table:T': 1600}),
            'inserted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'deleted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'final': (
                'online tuner (1 indexes built)',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'online-eager': {
        'operations': [
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (200, 100, 864, 0, 1600, 1),
            (7, 0, 14, 2, 0, 0), (4, 0, 14, 2, 0, 0), (12, 0, 14, 2, 0, 0),
            (10, 0, 14, 2, 0, 0), (14, 0, 14, 2, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (202, 101, 874, 0, 1616, 1), (7, 0, 14, 2, 0, 0),
            (9, 0, 14, 2, 0, 0), (15, 0, 14, 2, 0, 0), (13, 0, 14, 2, 0, 0),
            (8, 0, 14, 2, 0, 0), (10, 0, 14, 2, 0, 0), (5, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'online tuner (0 indexes built)',
                {'table:T': 1600}),
            'queried': (
                'online tuner (1 indexes built)',
                {'table:T': 1600}),
            'inserted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'deleted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'final': (
                'online tuner (1 indexes built)',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'soft': {
        'operations': [
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (100, 100, 864, 0, 1600, 1),
            (7, 0, 14, 2, 0, 0), (4, 0, 14, 2, 0, 0), (12, 0, 14, 2, 0, 0),
            (10, 0, 14, 2, 0, 0), (14, 0, 14, 2, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (101, 101, 874, 0, 1616, 1), (7, 0, 14, 2, 0, 0),
            (9, 0, 14, 2, 0, 0), (15, 0, 14, 2, 0, 0), (13, 0, 14, 2, 0, 0),
            (8, 0, 14, 2, 0, 0), (10, 0, 14, 2, 0, 0), (5, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'soft indexes (0 built)',
                {'table:T': 1600}),
            'queried': (
                'soft indexes (1 built)',
                {'table:T': 1600}),
            'inserted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'deleted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'final': (
                'soft indexes (1 built)',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'soft-5': {
        'operations': [
            (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0), (100, 0, 200, 0, 0, 0),
            (100, 0, 200, 0, 0, 0), (100, 100, 864, 0, 1600, 1), (12, 0, 14, 2, 0, 0),
            (10, 0, 14, 2, 0, 0), (14, 0, 14, 2, 0, 0), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (101, 101, 874, 0, 1616, 1), (7, 0, 14, 2, 0, 0),
            (9, 0, 14, 2, 0, 0), (15, 0, 14, 2, 0, 0), (13, 0, 14, 2, 0, 0),
            (8, 0, 14, 2, 0, 0), (10, 0, 14, 2, 0, 0), (5, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'soft indexes (0 built)',
                {'table:T': 1600}),
            'queried': (
                'soft indexes (1 built)',
                {'table:T': 1600}),
            'inserted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'deleted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'final': (
                'soft indexes (1 built)',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'cracking': {
        'operations': [
            (204, 200, 201, 0, 1600, 2), (56, 45, 92, 0, 0, 2), (59, 51, 105, 0, 0, 2),
            (32, 25, 53, 0, 0, 2), (8, 4, 12, 0, 0, 2), (25, 13, 21, 0, 0, 2),
            (35, 25, 33, 0, 0, 2), (35, 21, 30, 0, 0, 2), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (209, 202, 203, 0, 1616, 2), (94, 87, 176, 0, 0, 2),
            (81, 72, 147, 0, 0, 2), (70, 55, 113, 0, 0, 2), (27, 14, 22, 0, 0, 2),
            (25, 17, 25, 0, 0, 2), (20, 10, 18, 0, 0, 2), (29, 24, 52, 0, 0, 2),
        ],
        'stages': {
            'install': (
                'cracking: 1 pieces',
                {'table:T': 1600}),
            'queried': (
                'cracking: 17 pieces',
                {'table:T': 1600}),
            'inserted': (
                'cracking: 1 pieces',
                {'table:T': 1616}),
            'deleted': (
                'cracking: 1 pieces',
                {'table:T': 1616}),
            'final': (
                'cracking: 17 pieces',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'partitioned-cracking-2': {
        'operations': [
            (304, 200, 402, 0, 1600, 4), (56, 45, 94, 0, 0, 4), (59, 51, 108, 0, 0, 4),
            (32, 25, 56, 0, 0, 4), (8, 4, 20, 0, 0, 4), (25, 13, 29, 0, 0, 4),
            (35, 25, 41, 0, 0, 4), (35, 21, 39, 0, 0, 4), (0, 2, 0, 0, 16, 0),
            (0, 1, 0, 0, 0, 0), (310, 202, 406, 0, 1616, 4), (94, 87, 178, 0, 0, 4),
            (81, 72, 150, 0, 0, 4), (70, 55, 116, 0, 0, 4), (27, 14, 30, 0, 0, 4),
            (25, 17, 33, 0, 0, 4), (20, 10, 26, 0, 0, 4), (29, 24, 56, 0, 0, 4),
        ],
        'stages': {
            'install': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1600}),
            'queried': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces',
                {'table:T': 1600}),
            'inserted': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1616}),
            'deleted': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1616}),
            'final': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces',
                {'table:T': 1616}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'updatable-cracking': {
        'operations': [
            (104, 100, 201, 0, 0, 2), (56, 45, 92, 0, 0, 2), (59, 51, 105, 0, 0, 2),
            (32, 25, 53, 0, 0, 2), (8, 4, 12, 0, 0, 2), (25, 13, 21, 0, 0, 2),
            (35, 25, 33, 0, 0, 2), (35, 21, 30, 0, 0, 2), (0, 3, 0, 0, 16, 0),
            (0, 2, 0, 0, 0, 0), (45, 38, 83, 0, 0, 2), (31, 24, 55, 0, 0, 2),
            (25, 16, 28, 0, 0, 2), (31, 16, 28, 0, 0, 2), (27, 14, 26, 0, 0, 2),
            (23, 15, 27, 0, 0, 2), (20, 10, 22, 0, 0, 2), (14, 9, 22, 0, 0, 2),
        ],
        'stages': {
            'install': (
                'cracking: 1 pieces, 0+0 pending (ripple)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'queried': (
                'cracking: 17 pieces, 0+0 pending (ripple)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'cracking: 17 pieces, 1+0 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1632}),
            'deleted': (
                'cracking: 17 pieces, 1+1 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1648}),
            'final': (
                'cracking: 33 pieces, 1+1 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1648}),
        },
        'answers': 'cb4529db5a25dab6',
    },
    'partitioned-updatable-cracking-2': {
        'operations': [
            (204, 100, 402, 0, 0, 4), (56, 45, 94, 0, 0, 4), (59, 51, 108, 0, 0, 4),
            (32, 25, 56, 0, 0, 4), (8, 4, 20, 0, 0, 4), (25, 13, 29, 0, 0, 4),
            (35, 25, 41, 0, 0, 4), (35, 21, 39, 0, 0, 4), (0, 3, 0, 0, 16, 0),
            (0, 2, 0, 0, 0, 0), (45, 38, 88, 0, 0, 4), (31, 24, 60, 0, 0, 4),
            (25, 16, 38, 0, 0, 4), (31, 16, 38, 0, 0, 4), (27, 14, 36, 0, 0, 4),
            (23, 15, 37, 0, 0, 4), (20, 10, 32, 0, 0, 4), (14, 9, 33, 0, 0, 4),
        ],
        'stages': {
            'install': (
                'partitioned cracking: 2 partitions (2 touched), 2 pieces, 0+0 pending (ripple)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'queried': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces, 0+0 pending (ripple)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces, 1+0 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1632}),
            'deleted': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces, 1+1 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1648}),
            'final': (
                'partitioned cracking: 2 partitions (2 touched), 66 pieces, 1+1 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1648}),
        },
        'answers': 'cb4529db5a25dab6',
    },
}


@pytest.mark.parametrize("label", sorted(ENGINE_CASES))
def test_engine_stream_matches_recorded_literals(label):
    assert run_engine_stream(label) == ENGINE_GOLDEN[label]


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/core/test_golden_counters.py
    for case in _cases():
        sequential = run_stream(*case, parallel=False)
        if case[1] is not None:
            assert run_stream(*case, parallel=True) == sequential, case
        print(f"    {case!r}: {sequential!r},")
    print("ENGINE_GOLDEN = {")
    for label in ENGINE_CASES:
        recorded = run_engine_stream(label)
        print(f"    {label!r}: {{")
        print("        'operations': [")
        operations = [repr(operation) for operation in recorded["operations"]]
        for start in range(0, len(operations), 3):
            print(" " * 12 + ", ".join(operations[start:start + 3]) + ",")
        print("        ],")
        print("        'stages': {")
        for name, (structure, memory) in recorded["stages"].items():
            print(f"            {name!r}: (")
            print(f"                {structure!r},")
            print(f"                {memory!r}),")
        print("        },")
        print(f"        'answers': {recorded['answers']!r},")
        print("    },")
    print("}")
