"""Golden counters for the cracking names, the engine's modes, merging and hybrids.

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
from repro.engine.query import Aggregate, Query, RangeSelection
from repro.workloads.generators import (
    WorkloadSpec,
    random_workload,
    sequential_workload,
)

ROWS = 2_000
DOMAIN = 20_000
OPERATIONS = 260
MERGE_BATCH = 4
SEED = 1206

#: (name, partitions, policy) ->
#: (scanned, moved, comparisons, random_accesses, bytes_allocated,
#:  pieces_created, piece_count, nbytes, pending_inserts, pending_deletes,
#:  answer_hash)
GOLDEN = {
    ('cracking', None, None):
        (200215, 19665, 28756, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('updatable-cracking', None, 'ripple'):
        (129502, 20291, 24821, 4751, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('updatable-cracking', None, 'gradual'):
        (129329, 20620, 25353, 5107, 0, 209, 210, 39952, 1, 1, '30b0d8793f0d41d8'),
    ('partitioned-cracking', 1, None):
        (202215, 19665, 32756, 0, 32000, 361, 362, 32000, 0, 0, '325c99bd6a15f014'),
    ('partitioned-cracking', 4, None):
        (200694, 18144, 33709, 0, 32000, 640, 644, 32000, 0, 0, '325c99bd6a15f014'),
}


def _cases():
    yield ("cracking", None, None)
    for policy in ("ripple", "gradual"):
        yield ("updatable-cracking", None, policy)
    for partitions in (1, 4):
        yield ("partitioned-cracking", partitions, None)


def base_values() -> np.ndarray:
    rng = np.random.default_rng(SEED)
    quarter = ROWS // 4
    return np.concatenate([
        rng.integers(4_000 * p, 4_000 * p + 8_000, size=quarter)
        for p in range(4)
    ]).astype(np.int64)


def run_stream(name, partitions, policy, parallel):
    """Drive the seeded stream; returns the tuple pinned in ``GOLDEN``."""
    values = base_values()
    options = {}
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
        cracked = strategy
        return (
            counters.tuples_scanned, counters.tuples_moved,
            counters.comparisons, counters.random_accesses,
            counters.bytes_allocated, counters.pieces_created,
            cracked.piece_count, cracked.nbytes,
            *((cracked.pending_inserts, cracked.pending_deletes) if updatable
              else (0, 0)),
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
def test_stream_matches_recorded_literals(case, parallel, pooled_fan_out):
    assert run_stream(*case, parallel=parallel) == GOLDEN[case]



# -- the indexing modes through the engine's front door ---------------------------
#
# One seeded stream per mode through ``Session.execute``: enough queries for
# the online and soft tuners to build, one insert, one delete, then the same
# number of queries again — so "a tuner keeps its statistics across an insert,
# drops its index and rebuilds on the next qualifying query", "a full index
# is rebuilt", "an updatable column absorbs" are pinned per query — and last
# one full-domain query, which merges the updatable column's queued insert
# and delete.  Beside the per-operation counters every stage pins the
# ``physical_design_report()`` structure string and ``memory.breakdown()``.

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
            # a full-domain query merges what the DML queued on an updatable
            # column (the stages above each read 1+1 pending): one ripple
            # merge after session DML, checked but kept out of the digest
            result = session.execute(Query.range_query("T", "a", 0, ENGINE_DOMAIN))
            expected = database.visible_positions(
                "T", np.arange(ENGINE_ROWS + 1, dtype=np.int64))
            assert np.sort(result.positions).tolist() == expected.tolist()
            operations.append(_counter_tuple(result.counters))
            stage("merged")
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
            (101, 0, 202, 0, 0, 0),
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
            'merged': (
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
            (101, 0, 14, 2, 0, 0),
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
            'merged': (
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
            (101, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'online tuner (0 indexes built)',
                {'table:T': 1600}),
            'queried': (
                'online tuner (1 indexes built)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'deleted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'final': (
                'online tuner (1 indexes built)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'online tuner (1 indexes built)',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (101, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'online tuner (0 indexes built)',
                {'table:T': 1600}),
            'queried': (
                'online tuner (1 indexes built)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'deleted': (
                'online tuner (0 indexes built)',
                {'table:T': 1616}),
            'final': (
                'online tuner (1 indexes built)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'online tuner (1 indexes built)',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (101, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'soft indexes (0 built)',
                {'table:T': 1600}),
            'queried': (
                'soft indexes (1 built)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'deleted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'final': (
                'soft indexes (1 built)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'soft indexes (1 built)',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (101, 0, 14, 2, 0, 0),
        ],
        'stages': {
            'install': (
                'soft indexes (0 built)',
                {'table:T': 1600}),
            'queried': (
                'soft indexes (1 built)',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'deleted': (
                'soft indexes (0 built)',
                {'table:T': 1616}),
            'final': (
                'soft indexes (1 built)',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'soft indexes (1 built)',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (119, 18, 28, 0, 0, 2),
        ],
        'stages': {
            'install': (
                'cracking: 1 pieces',
                {'table:T': 1600}),
            'queried': (
                'cracking: 17 pieces',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'cracking: 1 pieces',
                {'table:T': 1616}),
            'deleted': (
                'cracking: 1 pieces',
                {'table:T': 1616}),
            'final': (
                'cracking: 17 pieces',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'cracking: 19 pieces',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (119, 18, 38, 0, 0, 4),
        ],
        'stages': {
            'install': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1600}),
            'queried': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces',
                {'table:T': 1600, 'index:T.a': 1600}),
            'inserted': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1616}),
            'deleted': (
                'partitioned cracking: 2 partitions (0 touched), 2 pieces',
                {'table:T': 1616}),
            'final': (
                'partitioned cracking: 2 partitions (2 touched), 34 pieces',
                {'table:T': 1616, 'index:T.a': 1616}),
            'merged': (
                'partitioned cracking: 2 partitions (2 touched), 38 pieces',
                {'table:T': 1616, 'index:T.a': 1616}),
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
            (119, 24, 24, 14, 0, 2),
        ],
        'stages': {
            'install': (
                'cracking: 1 pieces, 0+0 pending (ripple)',
                {'table:T': 1600}),
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
            'merged': (
                'cracking: 35 pieces, 0+0 pending (ripple)',
                {'table:T': 1616, 'index:T.a': 1936}),
        },
        'answers': 'cb4529db5a25dab6',
    },
}


@pytest.mark.parametrize("label", sorted(ENGINE_CASES))
def test_engine_stream_matches_recorded_literals(label):
    assert run_engine_stream(label) == ENGINE_GOLDEN[label]


# -- adaptive merging and the hybrids ---------------------------------------------
#
# Sixteen seeded range queries per name over the drifting base column, each
# pinned as ``(per-query counters, nbytes, structure_description)``: the
# first query pays run generation / initial partitioning, later ones move
# only the not-yet-merged part of their range.  Recorded at commit b7279e0,
# before the hybrids' sorted initial partition became ``merging.runs.SortedRun``
# and the five hybrid classes became registrations of one class.

MERGE_QUERIES = 16

MERGE_NAMES = (
    "adaptive-merging", "hybrid-crack-crack", "hybrid-crack-sort", "hybrid-sort-sort",
)


def run_merge_stream(name):
    """Per query: ``(counter tuple, nbytes, structure_description)``, plus a
    hash of the sorted answers."""
    values = base_values()
    strategy = create_strategy(name, values)
    rng = np.random.default_rng(SEED + 3)
    digest = hashlib.sha256()
    recorded = []
    for _ in range(MERGE_QUERIES):
        width = int(rng.choice([200, 2_000, DOMAIN // 2]))
        low = int(rng.integers(0, DOMAIN - width + 1))
        counters = CostCounters()
        answer = np.sort(strategy.search(low, low + width, counters))
        expected = np.flatnonzero((values >= low) & (values < low + width))
        assert answer.tolist() == expected.tolist()
        digest.update(answer.astype(np.int64).tobytes())
        recorded.append((
            _counter_tuple(counters), strategy.nbytes,
            strategy.structure_description,
        ))
    return {"queries": recorded, "answers": digest.hexdigest()[:16]}


MERGE_GOLDEN = {
    'adaptive-merging': {
        'queries': [
            ((2498, 2498, 13434, 92, 32000, 46), 32000, 'adaptive merging: 46 runs left, 249 tuples merged'),
            ((50, 75, 679, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 274 tuples merged'),
            ((30, 45, 617, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 289 tuples merged'),
            ((419, 492, 2152, 184, 0, 0), 32000, 'adaptive merging: 46 runs left, 453 tuples merged'),
            ((299, 324, 1265, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 561 tuples merged'),
            ((46, 69, 626, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 584 tuples merged'),
            ((20, 30, 555, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 594 tuples merged'),
            ((32, 48, 584, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 610 tuples merged'),
            ((48, 72, 630, 92, 0, 0), 32000, 'adaptive merging: 46 runs left, 634 tuples merged'),
            ((2241, 2955, 9641, 256, 0, 0), 32000, 'adaptive merging: 30 runs left, 1619 tuples merged'),
            ((22, 33, 303, 60, 0, 0), 32000, 'adaptive merging: 30 runs left, 1630 tuples merged'),
            ((283, 120, 475, 60, 0, 0), 32000, 'adaptive merging: 24 runs left, 1670 tuples merged'),
            ((26, 0, 22, 0, 0, 0), 32000, 'adaptive merging: 24 runs left, 1670 tuples merged'),
            ((245, 345, 1129, 96, 0, 0), 32000, 'adaptive merging: 24 runs left, 1785 tuples merged'),
            ((24, 0, 22, 0, 0, 0), 32000, 'adaptive merging: 24 runs left, 1785 tuples merged'),
            ((1249, 0, 22, 0, 0, 0), 32000, 'adaptive merging: 24 runs left, 1785 tuples merged'),
        ],
        'answers': '94b4381bbe302a0e',
    },
    'hybrid-crack-crack': {
        'queries': [
            ((4249, 4498, 4048, 0, 35984, 139), 32000, 'hybrid-crack-crack: 249 tuples in final partition (1 pieces)'),
            ((476, 501, 998, 0, 400, 93), 32000, 'hybrid-crack-crack: 274 tuples in final partition (2 pieces)'),
            ((1315, 1330, 2744, 0, 240, 93), 32000, 'hybrid-crack-crack: 289 tuples in final partition (3 pieces)'),
            ((810, 883, 1505, 0, 2624, 50), 32000, 'hybrid-crack-crack: 453 tuples in final partition (5 pieces)'),
            ((573, 598, 883, 0, 1728, 49), 32000, 'hybrid-crack-crack: 561 tuples in final partition (6 pieces)'),
            ((1249, 1272, 2650, 0, 368, 93), 32000, 'hybrid-crack-crack: 584 tuples in final partition (7 pieces)'),
            ((164, 174, 508, 0, 160, 93), 32000, 'hybrid-crack-crack: 594 tuples in final partition (8 pieces)'),
            ((1004, 1020, 2178, 0, 256, 93), 32000, 'hybrid-crack-crack: 610 tuples in final partition (9 pieces)'),
            ((858, 882, 1872, 0, 384, 93), 32000, 'hybrid-crack-crack: 634 tuples in final partition (10 pieces)'),
            ((1900, 2614, 1955, 0, 15760, 41), 32000, 'hybrid-crack-crack: 1619 tuples in final partition (13 pieces)'),
            ((145, 156, 446, 0, 176, 61), 32000, 'hybrid-crack-crack: 1630 tuples in final partition (14 pieces)'),
            ((614, 451, 1074, 0, 640, 5), 32000, 'hybrid-crack-crack: 1670 tuples in final partition (15 pieces)'),
            ((192, 166, 364, 0, 0, 2), 32000, 'hybrid-crack-crack: 1670 tuples in final partition (15 pieces)'),
            ((327, 427, 711, 0, 1840, 50), 32000, 'hybrid-crack-crack: 1785 tuples in final partition (17 pieces)'),
            ((422, 398, 834, 0, 0, 4), 32000, 'hybrid-crack-crack: 1785 tuples in final partition (17 pieces)'),
            ((1559, 310, 458, 0, 0, 4), 32000, 'hybrid-crack-crack: 1785 tuples in final partition (17 pieces)'),
        ],
        'answers': '94b4381bbe302a0e',
    },
    'hybrid-crack-sort': {
        'queries': [
            ((4249, 4498, 6030, 0, 35984, 139), 32000, 'hybrid-crack-sort: 249 tuples in final partition (1 pieces)'),
            ((476, 501, 1114, 0, 400, 93), 32000, 'hybrid-crack-sort: 274 tuples in final partition (2 pieces)'),
            ((1315, 1330, 2802, 0, 240, 93), 32000, 'hybrid-crack-sort: 289 tuples in final partition (3 pieces)'),
            ((561, 634, 2090, 0, 2624, 48), 32000, 'hybrid-crack-sort: 453 tuples in final partition (5 pieces)'),
            ((453, 478, 1385, 0, 1728, 47), 32000, 'hybrid-crack-sort: 561 tuples in final partition (6 pieces)'),
            ((1249, 1272, 2754, 0, 368, 93), 32000, 'hybrid-crack-sort: 584 tuples in final partition (7 pieces)'),
            ((164, 174, 541, 0, 160, 93), 32000, 'hybrid-crack-sort: 594 tuples in final partition (8 pieces)'),
            ((1004, 1020, 2242, 0, 256, 93), 32000, 'hybrid-crack-sort: 610 tuples in final partition (9 pieces)'),
            ((858, 882, 1982, 0, 384, 93), 32000, 'hybrid-crack-sort: 634 tuples in final partition (10 pieces)'),
            ((1651, 2365, 9998, 0, 15760, 39), 32000, 'hybrid-crack-sort: 1619 tuples in final partition (13 pieces)'),
            ((145, 156, 484, 0, 176, 61), 32000, 'hybrid-crack-sort: 1630 tuples in final partition (14 pieces)'),
            ((243, 80, 570, 0, 640, 1), 32000, 'hybrid-crack-sort: 1670 tuples in final partition (15 pieces)'),
            ((26, 0, 48, 0, 0, 0), 32000, 'hybrid-crack-sort: 1670 tuples in final partition (15 pieces)'),
            ((327, 427, 1398, 0, 1840, 50), 32000, 'hybrid-crack-sort: 1785 tuples in final partition (17 pieces)'),
            ((24, 0, 66, 0, 0, 0), 32000, 'hybrid-crack-sort: 1785 tuples in final partition (17 pieces)'),
            ((1249, 0, 66, 0, 0, 0), 32000, 'hybrid-crack-sort: 1785 tuples in final partition (17 pieces)'),
        ],
        'answers': '94b4381bbe302a0e',
    },
    'hybrid-sort-sort': {
        'queries': [
            ((2498, 2498, 13420, 92, 35984, 47), 32000, 'hybrid-sort-sort: 249 tuples in final partition (1 pieces)'),
            ((50, 50, 656, 92, 400, 1), 32000, 'hybrid-sort-sort: 274 tuples in final partition (2 pieces)'),
            ((30, 30, 596, 92, 240, 1), 32000, 'hybrid-sort-sort: 289 tuples in final partition (3 pieces)'),
            ((419, 328, 2142, 184, 2624, 2), 32000, 'hybrid-sort-sort: 453 tuples in final partition (5 pieces)'),
            ((299, 216, 1261, 92, 1728, 1), 32000, 'hybrid-sort-sort: 561 tuples in final partition (6 pieces)'),
            ((46, 46, 610, 92, 368, 1), 32000, 'hybrid-sort-sort: 584 tuples in final partition (7 pieces)'),
            ((20, 20, 541, 92, 160, 1), 32000, 'hybrid-sort-sort: 594 tuples in final partition (8 pieces)'),
            ((32, 32, 572, 92, 256, 1), 32000, 'hybrid-sort-sort: 610 tuples in final partition (9 pieces)'),
            ((48, 48, 620, 92, 384, 1), 32000, 'hybrid-sort-sort: 634 tuples in final partition (10 pieces)'),
            ((2241, 1970, 9629, 256, 15760, 3), 32000, 'hybrid-sort-sort: 1619 tuples in final partition (13 pieces)'),
            ((22, 22, 298, 60, 176, 1), 32000, 'hybrid-sort-sort: 1630 tuples in final partition (14 pieces)'),
            ((283, 80, 500, 60, 640, 1), 32000, 'hybrid-sort-sort: 1670 tuples in final partition (15 pieces)'),
            ((26, 0, 48, 0, 0, 0), 32000, 'hybrid-sort-sort: 1670 tuples in final partition (15 pieces)'),
            ((245, 230, 1119, 96, 1840, 2), 32000, 'hybrid-sort-sort: 1785 tuples in final partition (17 pieces)'),
            ((24, 0, 66, 0, 0, 0), 32000, 'hybrid-sort-sort: 1785 tuples in final partition (17 pieces)'),
            ((1249, 0, 66, 0, 0, 0), 32000, 'hybrid-sort-sort: 1785 tuples in final partition (17 pieces)'),
        ],
        'answers': '94b4381bbe302a0e',
    },
}


@pytest.mark.parametrize("name", MERGE_NAMES)
def test_merge_stream_matches_recorded_literals(name):
    assert run_merge_stream(name) == MERGE_GOLDEN[name]


# -- sideways cracking through the engine, partial cracking at its kernel ----------
#
# Recorded at commit e138017, where sideways cracking was switched on by a
# ``Database`` method of its own ``(table, head, budget=, sort_threshold=)`` and
# ``PartialCrackedColumn(values, budget=, …)`` was constructed directly;
# putting both behind the strategy registry changed the set-up lines of the
# two drivers below and nothing else.
#
# The sideways stream is sixteen operations through ``Session``: select-project,
# select-project-where on two attributes, aggregates over a projected column,
# a selection that projects nothing, one on an attribute that is not the head
# (an ordinary scan), an insert (the maps are dropped and re-materialise by
# replaying the crack history) and a delete (tombstones filter the aligned
# columns).  Per operation: the counters, the maps' ``nbytes`` and the map
# names afterwards.  The budgeted case fits one and a half maps, so every
# change of projected attribute evicts.

SIDEWAYS_ROWS = 200

#: label -> budget in bytes
SIDEWAYS_CASES = {"unlimited": None, "budget-1.5-maps": 7_200}


#: (selections, projections, aggregates) | ("insert", row) | ("delete", rowid)
SIDEWAYS_STREAM = (
    ([("a", 100, 400)], ["c"], []),
    ([("a", 250, 700)], ["b", "c"], []),
    ([("a", 100, 700), ("b", 20, 150)], ["c"], []),
    ([("a", 50, 900), ("b", 10, 190), ("c", 0.25, 0.75)], ["b"], []),
    ([("a", 300, 600)], [], [("c", "sum")]),
    ([("a", 0, 500), ("b", 50, 200)], ["b"], [("c", "mean"), ("b", "max")]),
    ([("a", 420, 480)], [], []),
    ("insert", {"a": 450, "b": SIDEWAYS_ROWS, "c": 0.5}),
    ([("a", 400, 500)], ["c"], []),
    ([("a", 100, 700), ("b", 20, 201)], ["c"], []),
    ("delete", None),  # the victim is the first row of the previous answer
    ([("a", 100, 700)], [], [("c", "sum"), ("c", "count")]),
    ([("a", None, 300)], ["b", "c"], []),
    ([("b", 40, 60)], ["c"], []),
    ([("a", 600, None), ("c", 0.5, None)], ["b"], []),
    ([("a", 100, 400)], ["c"], []),
)


def run_sideways_stream(label):
    """Per operation ``(counter tuple, maps' nbytes, map names)``, plus a hash
    of the answers (positions, projected columns, aggregates)."""
    budget = SIDEWAYS_CASES[label]
    rng = np.random.default_rng(SEED + 4)
    database = Database("golden-sideways")
    table = database.create_table("T", {
        "a": rng.integers(0, ENGINE_DOMAIN, size=SIDEWAYS_ROWS).astype(np.int64),
        "b": np.arange(SIDEWAYS_ROWS, dtype=np.int64),
        "c": rng.random(SIDEWAYS_ROWS),
    })
    database.set_indexing("T", "a", "sideways-cracking", budget_bytes=budget)

    def cracker():  # looked up per operation: an insert may replace it
        return database.access_path("T", "a")

    recorded = []
    digest = hashlib.sha256()
    deleted = set()
    previous = None
    try:
        with database.session() as session:
            for operation in SIDEWAYS_STREAM:
                counters = CostCounters()
                if operation[0] == "insert":
                    session.insert_row("T", operation[1], counters)
                elif operation[0] == "delete":
                    victim = int(np.sort(previous.positions)[0])
                    session.delete_row("T", victim, counters)
                    deleted.add(victim)
                else:
                    bounds, projections, aggregates = operation
                    previous = session.execute(Query(
                        table="T",
                        selections=[RangeSelection(*bound) for bound in bounds],
                        projections=list(projections),
                        aggregates=[Aggregate(c, f) for c, f in aggregates],
                    ))
                    counters = previous.counters
                    keep = np.ones(table.row_count, dtype=bool)
                    keep[sorted(deleted)] = False
                    for column, low, high in bounds:
                        values = table[column].values
                        if low is not None:
                            keep &= values >= low
                        if high is not None:
                            keep &= values < high
                    order = np.argsort(previous.positions, kind="stable")
                    answer = previous.positions[order]
                    assert answer.tolist() == np.flatnonzero(keep).tolist()
                    assert sorted(previous.columns) == sorted(projections)
                    digest.update(answer.astype(np.int64).tobytes())
                    for name in projections:
                        column = previous.columns[name][order]
                        assert column.tolist() == table[name].values[answer].tolist()
                        digest.update(column.astype(np.float64).tobytes())
                    digest.update(repr(sorted(previous.aggregates.items())).encode())
                recorded.append((
                    _counter_tuple(counters), cracker().nbytes,
                    tuple(cracker().map_names()),
                ))
    finally:
        database.close()
    return {"operations": recorded, "answers": digest.hexdigest()[:16]}


SIDEWAYS_GOLDEN = {
    'unlimited': {
        'operations': [
            ((848, 782, 389, 0, 4800, 2), 4800, ('c',)),
            ((1312, 1146, 771, 0, 4800, 6), 9600, ('b', 'c')),
            ((236, 0, 130, 0, 0, 0), 9600, ('b', 'c')),
            ((486, 164, 510, 0, 0, 4), 9600, ('b', 'c')),
            ((197, 83, 98, 0, 0, 2), 9600, ('b', 'c')),
            ((529, 175, 315, 0, 0, 6), 9600, ('b', 'c')),
            ((38, 30, 46, 0, 0, 2), 9600, ('b', 'c')),
            ((0, 3, 0, 0, 24, 0), 0, ()),
            ((1232, 1214, 857, 0, 4824, 12), 4824, ('c',)),
            ((1452, 1214, 984, 0, 4824, 12), 9648, ('b', 'c')),
            ((0, 1, 0, 0, 0, 0), 9648, ('b', 'c')),
            ((355, 0, 8, 0, 0, 0), 9648, ('b', 'c')),
            ((126, 0, 8, 0, 0, 0), 9648, ('b', 'c')),
            ((201, 0, 402, 20, 0, 0), 9648, ('b', 'c')),
            ((160, 0, 88, 0, 0, 0), 9648, ('b', 'c')),
            ((66, 0, 8, 0, 0, 0), 9648, ('b', 'c')),
        ],
        'answers': '2f0fd3f73f653a68',
    },
    'budget-1.5-maps': {
        'operations': [
            ((848, 782, 389, 0, 4800, 2), 4800, ('c',)),
            ((2094, 1928, 1156, 0, 9600, 8), 4800, ('c',)),
            ((2164, 1928, 1274, 0, 9600, 8), 4800, ('c',)),
            ((2414, 2092, 1654, 0, 9600, 12), 4800, ('c',)),
            ((197, 83, 98, 0, 0, 2), 4800, ('c',)),
            ((2704, 2350, 1725, 0, 9600, 20), 4800, ('c',)),
            ((1213, 1205, 850, 0, 4800, 12), 4800, ('b',)),
            ((0, 3, 0, 0, 24, 0), 0, ()),
            ((1232, 1214, 857, 0, 4824, 12), 4824, ('c',)),
            ((2666, 2428, 1833, 0, 9648, 24), 4824, ('c',)),
            ((0, 1, 0, 0, 0, 0), 4824, ('c',)),
            ((355, 0, 8, 0, 0, 0), 4824, ('c',)),
            ((2554, 2428, 1706, 0, 9648, 24), 4824, ('c',)),
            ((201, 0, 402, 20, 0, 0), 4824, ('c',)),
            ((1374, 1214, 937, 0, 4824, 12), 4824, ('b',)),
            ((1280, 1214, 857, 0, 4824, 12), 4824, ('c',)),
        ],
        'answers': '2f0fd3f73f653a68',
    },
}


@pytest.mark.parametrize("label", sorted(SIDEWAYS_CASES))
def test_sideways_stream_matches_recorded_literals(label):
    assert run_sideways_stream(label) == SIDEWAYS_GOLDEN[label]


# ``PartialCrackedColumn`` searched directly over the drifting base column:
# unlimited, every touched fragment stays (48 000 bytes in the end); a quarter
# of that holds one or two of the eight fragments, so every wide query evicts;
# a budget below one expected fragment materialises nothing and scans.

PARTIAL_FRAGMENTS = 8
PARTIAL_QUERIES = 16

#: label -> budget in bytes
PARTIAL_CASES = {"unlimited": None, "quarter": 12_000, "below-one-fragment": 4_000}


def run_partial_stream(label):
    """Per query ``(counter tuple, nbytes, materialised fragments, evictions,
    fallback scans)``, plus a hash of the sorted answers."""
    values = base_values()
    strategy = create_strategy(
        "partial-cracking", values, budget_bytes=PARTIAL_CASES[label],
        fragments=PARTIAL_FRAGMENTS,
    )
    partial, search = strategy, strategy.search
    rng = np.random.default_rng(SEED + 5)
    digest = hashlib.sha256()
    recorded = []
    for _ in range(PARTIAL_QUERIES):
        width = int(rng.choice([200, 2_000, DOMAIN // 2]))
        low = int(rng.integers(0, DOMAIN - width + 1))
        counters = CostCounters()
        answer = np.sort(search(low, low + width, counters))
        expected = np.flatnonzero((values >= low) & (values < low + width))
        assert answer.tolist() == expected.tolist()
        partial.check_invariants()
        digest.update(answer.astype(np.int64).tobytes())
        recorded.append((
            _counter_tuple(counters), partial.nbytes,
            partial.materialised_fragments, partial.evictions,
            partial.fallback_scans,
        ))
    return {"queries": recorded, "answers": digest.hexdigest()[:16]}


PARTIAL_GOLDEN = {
    'unlimited': {
        'queries': [
            ((12742, 2968, 22973, 0, 35616, 15), 35616, 5, 0, 0),
            ((4497, 746, 8748, 0, 8952, 6), 44568, 7, 0, 0),
            ((3723, 765, 4783, 0, 3432, 5), 48000, 8, 0, 0),
            ((722, 490, 500, 0, 0, 2), 48000, 8, 0, 0),
            ((139, 123, 248, 0, 0, 2), 48000, 8, 0, 0),
            ((175, 147, 297, 0, 0, 2), 48000, 8, 0, 0),
            ((538, 292, 302, 0, 0, 2), 48000, 8, 0, 0),
            ((625, 374, 386, 0, 0, 2), 48000, 8, 0, 0),
            ((1683, 462, 489, 0, 0, 4), 48000, 8, 0, 0),
            ((233, 117, 128, 0, 0, 2), 48000, 8, 0, 0),
            ((76, 56, 115, 0, 0, 2), 48000, 8, 0, 0),
            ((1161, 140, 170, 0, 0, 2), 48000, 8, 0, 0),
            ((203, 188, 379, 0, 0, 2), 48000, 8, 0, 0),
            ((299, 96, 109, 0, 0, 2), 48000, 8, 0, 0),
            ((69, 57, 117, 0, 0, 2), 48000, 8, 0, 0),
            ((703, 432, 445, 0, 0, 2), 48000, 8, 0, 0),
        ],
        'answers': 'e3ce4f1204021119',
    },
    'quarter': {
        'queries': [
            ((12742, 2968, 22973, 0, 35616, 15), 7488, 1, 4, 0),
            ((4497, 746, 8748, 0, 8952, 6), 8952, 2, 5, 0),
            ((12416, 2630, 22635, 0, 31560, 15), 7224, 1, 11, 0),
            ((4774, 1084, 9086, 0, 13008, 6), 7488, 1, 13, 0),
            ((2172, 312, 4313, 0, 3744, 3), 11232, 2, 13, 0),
            ((2329, 602, 4603, 0, 7224, 3), 10968, 2, 14, 0),
            ((2746, 812, 4818, 0, 7488, 5), 7488, 1, 16, 0),
            ((4793, 1084, 9086, 0, 13008, 6), 7488, 1, 18, 0),
            ((10577, 2515, 18718, 0, 27816, 14), 5208, 1, 22, 0),
            ((4489, 746, 8748, 0, 8952, 6), 8952, 2, 23, 0),
            ((2332, 624, 4625, 0, 7488, 3), 7488, 1, 25, 0),
            ((12336, 2630, 22635, 0, 31560, 15), 7224, 1, 30, 0),
            ((2327, 624, 4625, 0, 7488, 3), 7488, 1, 31, 0),
            ((2533, 547, 4663, 0, 5208, 5), 5208, 1, 32, 0),
            ((2242, 460, 4461, 0, 5520, 3), 10728, 2, 32, 0),
            ((4901, 1260, 9262, 0, 15120, 6), 7224, 1, 35, 0),
        ],
        'answers': 'e3ce4f1204021119',
    },
    'below-one-fragment': {
        'queries': [
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 1),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 2),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 3),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 4),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 5),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 6),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 7),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 8),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 9),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 10),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 11),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 12),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 13),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 14),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 15),
            ((2000, 0, 4000, 0, 0, 0), 0, 0, 0, 16),
        ],
        'answers': 'e3ce4f1204021119',
    },
}


@pytest.mark.parametrize("label", sorted(PARTIAL_CASES))
def test_partial_stream_matches_recorded_literals(label):
    assert run_partial_stream(label) == PARTIAL_GOLDEN[label]


# -- the robustness claim: plain vs stochastic cracking per access pattern -----------
#
# Row e07 of ``benchmarks/figures.py`` states the shape as inequalities; here
# it is literals.  Totals over one seeded ``random_workload`` and one
# ``sequential_workload`` (disjoint ranges sweeping left to right — every
# query shaves a sliver off the one huge remaining piece) for plain cracking
# and for stochastic cracking (``ddr``, seed 0): ``(counter tuple, piece
# count, answer hash)``.  Recorded at commit 12c90bf.

PATTERN_SPEC = WorkloadSpec(
    domain_low=0, domain_high=DOMAIN, query_count=96, selectivity=0.005,
    seed=SEED + 5,
)
PATTERNS = {"random": random_workload, "sequential": sequential_workload}
PATTERN_OPTIONS = {
    "cracking": {}, "stochastic-cracking": {"variant": "ddr", "seed": 0},
}
PATTERN_CASES = [
    (name, pattern) for name in PATTERN_OPTIONS for pattern in PATTERNS
]


def run_pattern_stream(name, pattern):
    values = base_values()
    strategy = create_strategy(name, values, **PATTERN_OPTIONS[name])
    counters = CostCounters()
    digest = hashlib.sha256()
    for query in PATTERNS[pattern](PATTERN_SPEC):
        answer = np.sort(strategy.search(query.low, query.high, counters))
        expected = np.flatnonzero((values >= query.low) & (values < query.high))
        assert answer.tolist() == expected.tolist()
        digest.update(answer.astype(np.int64).tobytes())
    return (_counter_tuple(counters), strategy.piece_count,
            digest.hexdigest()[:16])


PATTERN_GOLDEN = {
    ('cracking', 'random'):
        ((18302, 17383, 30364, 0, 32000, 192), 193, '9037615f87de67f3'),
    ('cracking', 'sequential'):
        ((157423, 156463, 157576, 0, 32000, 97), 98, '71b589488be82ecc'),
    ('stochastic-cracking', 'random'):
        ((22985, 22066, 22870, 0, 32000, 353), 354, '9037615f87de67f3'),
    ('stochastic-cracking', 'sequential'):
        ((17119, 16159, 16098, 0, 32000, 192), 193, '71b589488be82ecc'),
}


@pytest.mark.parametrize("name, pattern", PATTERN_CASES)
def test_pattern_stream_matches_recorded_literals(name, pattern):
    assert run_pattern_stream(name, pattern) == PATTERN_GOLDEN[(name, pattern)]


def test_a_sequential_sweep_hurts_cracking_not_stochastic_cracking():
    moved = {case: PATTERN_GOLDEN[case][0][1] for case in PATTERN_CASES}
    assert moved["cracking", "sequential"] > 2 * moved["cracking", "random"]
    assert moved["stochastic-cracking", "sequential"] < moved["cracking", "sequential"] / 2


if __name__ == "__main__":  # re-record: PYTHONPATH=src python tests/core/test_golden_counters.py
    from repro.core import partitioned
    partitioned._POOL_MIN_WORK = 0  # as the ``pooled_fan_out`` fixture does
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
    print("MERGE_GOLDEN = {")
    for name in MERGE_NAMES:
        recorded = run_merge_stream(name)
        print(f"    {name!r}: {{")
        print("        'queries': [")
        for query in recorded["queries"]:
            print(f"            {query!r},")
        print("        ],")
        print(f"        'answers': {recorded['answers']!r},")
        print("    },")
    print("}")
    for title, cases, run, key in (
        ("SIDEWAYS_GOLDEN", SIDEWAYS_CASES, run_sideways_stream, "operations"),
        ("PARTIAL_GOLDEN", PARTIAL_CASES, run_partial_stream, "queries"),
    ):
        print(f"{title} = {{")
        for label in cases:
            recorded = run(label)
            print(f"    {label!r}: {{")
            print(f"        {key!r}: [")
            for entry in recorded[key]:
                print(f"            {entry!r},")
            print("        ],")
            print(f"        'answers': {recorded['answers']!r},")
            print("    },")
        print("}")
    print("PATTERN_GOLDEN = {")
    for case in PATTERN_CASES:
        print(f"    {case!r}:")
        print(f"        {run_pattern_stream(*case)!r},")
    print("}")
