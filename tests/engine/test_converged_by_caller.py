"""A column's convergence does not depend on who calls it.

A cracked column that has become fully sorted answers by binary search.
It learns that it is sorted when :attr:`converged` is asked, and the
session's lock classifier asks it before every query.  The column's own
``search_many`` must ask too, or one query stream is charged differently
when it is run on the strategy directly and when it goes through a session.
"""

import numpy as np
import pytest

from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.engine.database import Database
from repro.engine.query import Query

ROWS = 400

#: the names whose columns latch, with the options they are installed with
CASES = [
    ("cracking", {}),
    ("stochastic-cracking", {"seed": 3}),
    ("partitioned-cracking", {"partitions": 4}),
    ("updatable-cracking", {}),
]


def _stream():
    """A crack at every key (the column ends up sorted), then wider ranges."""
    return [(key, key + 1) for key in range(ROWS)] + [
        (100, 200), (0, ROWS), (150, 151), (None, 50), (350, None),
    ]


def _values():
    return np.random.default_rng(7).permutation(ROWS).astype(np.int64)


def _counter_tuple(counters):
    return (
        counters.tuples_scanned, counters.tuples_moved, counters.comparisons,
        counters.random_accesses, counters.bytes_allocated,
        counters.pieces_created,
    )


def _batches(ranges, size):
    return [ranges[start:start + size] for start in range(0, len(ranges), size)]


def run_directly(name, options, batch):
    strategy = create_strategy(name, _values(), **options)
    charged, answers = [], []
    try:
        for ranges in _batches(_stream(), batch):
            counters_list = [CostCounters() for _ in ranges]
            answers += strategy.search_many(ranges, counters_list)
            charged += [_counter_tuple(counters) for counters in counters_list]
    finally:
        strategy.close()
    return charged, [sorted(answer.tolist()) for answer in answers]


def run_in_a_session(name, options, batch):
    database = Database("by-caller")
    database.create_table("t", {"x": _values()})
    database.set_indexing("t", "x", name, **options)
    charged, answers = [], []
    try:
        with database.session() as session:
            for ranges in _batches(_stream(), batch):
                queries = [Query.range_query("t", "x", low, high)
                           for low, high in ranges]
                results = (session.execute_many(queries) if batch > 1
                           else [session.execute(queries[0])])
                charged += [_counter_tuple(result.counters) for result in results]
                answers += [sorted(result.positions.tolist()) for result in results]
    finally:
        database.close()
    return charged, answers


@pytest.mark.parametrize("batch", [1, 25], ids=["single", "batch"])
@pytest.mark.parametrize("name, options", CASES, ids=[name for name, _ in CASES])
def test_a_stream_is_charged_alike_directly_and_through_a_session(
    name, options, batch
):
    direct = run_directly(name, options, batch)
    session = run_in_a_session(name, options, batch)
    assert session[1] == direct[1]
    assert session[0] == direct[0]


def test_a_sorted_whole_column_answers_by_binary_search_when_called_directly():
    """The case that showed it: after a crack at every key, ``[100, 200)``
    touches no piece on a sorted column, whoever asks."""
    strategy = create_strategy("cracking", _values())
    for key in range(ROWS):
        strategy.search(key, key + 1)
    counters = CostCounters()
    strategy.search(100, 200, counters)
    assert strategy.converged
    assert counters.random_accesses == 2
    assert counters.tuples_moved == 0
