"""Unit tests for the strategy registry and the access-path contract."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.core.access_path import SearchStrategy
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.partial import PartialCrackedColumn
from repro.core.cracking.sideways import SidewaysCracker
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.core.partitioned import PartitionedCrackedColumn
from repro.core.strategies import (
    ScanColumn,
    SortFirstColumn,
    TunedColumn,
    available_strategies,
    create_strategy,
    rebuild,
)
from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex

EXPECTED_STRATEGIES = {
    "scan",
    "full-index",
    "sort-first",
    "online",
    "soft",
    "cracking",
    "partitioned-cracking",
    "updatable-cracking",
    "stochastic-cracking",
    "sideways-cracking",
    "partial-cracking",
    "adaptive-merging",
    "hybrid-crack-crack",
    "hybrid-crack-sort",
    "hybrid-sort-sort",
}


class TestRegistry:
    def test_exactly_the_expected_strategies_registered(self):
        # every suite that iterates the registry (DML upkeep, the session and
        # batch property suites) covers exactly these fifteen
        assert set(available_strategies()) == EXPECTED_STRATEGIES

    def test_create_unknown_strategy(self, small_values):
        with pytest.raises(ValueError, match="unknown strategy"):
            create_strategy("btree-of-doom", small_values)

    @pytest.mark.parametrize("name", sorted(EXPECTED_STRATEGIES))
    @pytest.mark.parametrize("option", [
        "sort_threshold", "radix_bits", "executor", "size_threshold_fraction",
        "decay", "max_indexes", "partition_size", "bogus",
    ])
    def test_an_option_the_strategy_does_not_take_is_refused(
        self, name, option, small_values
    ):
        # retired options among them: kept silently in ``options`` they
        # would reach new journals
        with pytest.raises(ValueError, match=f"takes no option '{option}'"):
            create_strategy(name, small_values, **{option: 0})


@pytest.mark.parametrize("name", sorted(EXPECTED_STRATEGIES))
class TestAllStrategies:
    def test_results_match_reference(self, name, medium_values, reference):
        strategy = create_strategy(name, medium_values)
        rng = np.random.default_rng(0)
        for _ in range(10):
            low = int(rng.integers(0, 90_000))
            high = low + int(rng.integers(1, 20_000))
            assert set(strategy.search(low, high).tolist()) == reference(
                medium_values, low, high
            ), f"{name} returned a wrong answer for [{low}, {high})"

    def test_queries_processed_counted(self, name, small_values):
        strategy = create_strategy(name, small_values)
        strategy.search(0, 10)
        strategy.search(20, 30)
        assert strategy.queries_processed == 2

    def test_structure_description_is_text(self, name, small_values):
        strategy = create_strategy(name, small_values)
        strategy.search(0, 50)
        assert isinstance(strategy.structure_description, str)
        assert strategy.structure_description

    def test_nbytes_nonnegative(self, name, small_values):
        strategy = create_strategy(name, small_values)
        strategy.search(0, 50)
        assert strategy.nbytes >= 0

    def test_queries_processed_has_one_owner(self, name, small_values):
        """A path counts each of its searches once, whatever structure
        inside it answers."""
        strategy = create_strategy(name, small_values)
        strategy.search(0, 10)
        assert strategy.queries_processed == 1


@pytest.mark.parametrize("name", available_strategies())
def test_the_structure_declares_whether_reads_reorganize(name, small_values):
    """The access-path base class gives ``reorganizes_on_read`` no default:
    the first class of the path's MRO that defines it is the structure's
    own, never ``SearchStrategy``."""
    path = create_strategy(name, small_values)
    declaring = next((cls for cls in type(path).__mro__
                      if "reorganizes_on_read" in vars(cls)), None)
    assert declaring is not None and declaring is not SearchStrategy
    assert isinstance(path.reorganizes_on_read, bool)


#: the structure each name builds: the path is the structure itself
STRUCTURES = {
    "scan": ScanColumn,
    "full-index": FullIndex,
    "sort-first": SortFirstColumn,
    "online": TunedColumn,
    "soft": TunedColumn,
    "cracking": CrackedColumn,
    "updatable-cracking": CrackedColumn,
    "partitioned-cracking": PartitionedCrackedColumn,
    "stochastic-cracking": StochasticCrackedColumn,
    "sideways-cracking": SidewaysCracker,
    "partial-cracking": PartialCrackedColumn,
    "adaptive-merging": AdaptiveMergingIndex,
    "hybrid-crack-crack": HybridIndex,
    "hybrid-crack-sort": HybridIndex,
    "hybrid-sort-sort": HybridIndex,
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_a_name_builds_its_structure(name, small_values):
    path = create_strategy(name, small_values)
    assert type(path) is STRUCTURES[name]
    assert SearchStrategy in type(path).__mro__
    assert path.supports_updates is (name == "updatable-cracking")
    path.close()


def test_the_table_covers_the_registry():
    assert set(STRUCTURES) == EXPECTED_STRATEGIES


class TestCoveringStrategy:
    """``sideways-cracking`` answers select-projects from its own maps."""

    def test_only_sideways_cracking_covers_projections(self, small_values):
        covering = {
            name for name in EXPECTED_STRATEGIES
            if create_strategy(name, small_values).covers_projection
        }
        assert covering == {"sideways-cracking"}
        with pytest.raises(
            NotImplementedError, match="CrackedColumn does not cover projections"
        ):
            create_strategy("cracking", small_values).select_project(
                0, 10, {}, [], None
            )

    def test_select_project_over_the_owning_table(self, sample_table):
        strategy = create_strategy(
            "sideways-cracking", sample_table.column("a"), table=sample_table
        )
        counters = CostCounters()
        rowids, columns = strategy.select_project(
            1000, 6000, {"b": (100, 500)}, ["a", "c"], counters
        )
        a, b = sample_table["a"].values, sample_table["b"].values
        expected = np.flatnonzero((a >= 1000) & (a < 6000) & (b >= 100) & (b < 500))
        assert sorted(rowids.tolist()) == expected.tolist()
        assert list(columns) == ["a", "c"]
        assert np.array_equal(columns["a"], a[rowids])
        assert np.array_equal(columns["c"], sample_table["c"].values[rowids])
        assert counters.random_accesses == 0
        assert strategy.map_names() == ["b", "c"]

    def test_bare_array_is_a_one_column_table(self, small_values):
        strategy = create_strategy("sideways-cracking", small_values)
        rowids, columns = strategy.select_project(10, 60, {}, ["value"])
        assert np.array_equal(columns["value"], small_values[rowids])
        assert strategy.map_names() == ["value"]

    def test_rebuilt_keeps_the_crack_history_and_drops_the_maps(self, sample_table):
        strategy = create_strategy(
            "sideways-cracking", sample_table.column("a"), table=sample_table,
            budget_bytes=10**6,
        )
        strategy.select_project(1000, 6000, {}, ["c"])
        sample_table.append_rows({"a": 1500, "b": 1, "c": 0.5, "d": 2})
        fresh = rebuild(
            "sideways-cracking", strategy, sample_table.column("a"),
            table=sample_table, budget_bytes=10**6,
        )
        strategy.close()
        assert strategy.nbytes == 0 and strategy.budget.used_bytes == 0
        assert fresh.budget.limit_bytes == 10**6
        assert fresh.crack_history == [1000, 6000] and fresh.nbytes == 0
        rowids, columns = fresh.select_project(1000, 2000, {}, ["c"])
        assert len(sample_table) - 1 in rowids.tolist()
        fresh.check_invariants()
        assert fresh.budget.used_bytes == fresh.nbytes > 0


class TestPartialCrackingStrategy:
    def test_budget_is_enforced_and_described(self, medium_values, reference):
        budget = medium_values.nbytes  # room for about a third of the fragments
        strategy = create_strategy(
            "partial-cracking", medium_values, fragments=8, budget_bytes=budget
        )
        assert strategy.reorganizes_on_read and not strategy.supports_updates
        for low in range(0, 100_000, 9_000):
            assert set(strategy.search(low, low + 30_000).tolist()) == reference(
                medium_values, low, low + 30_000
            )
            assert 0 < strategy.nbytes <= budget
        strategy.check_invariants()
        assert strategy.evictions > 0
        assert strategy.structure_description == (
            f"partial cracking: {strategy.materialised_fragments} of 8 "
            f"fragments held, {strategy.evictions} evictions, "
            f"{strategy.fallback_scans} fallback scans"
        )


@pytest.mark.parametrize("name,options,build_query", [
    ("online", {}, None),
    ("online", {"build_threshold_factor": 0.5}, None),
    ("soft", {}, 3),
    ("soft", {"recommendation_threshold": 5}, 5),
])
@pytest.mark.parametrize("as_column", [True, False], ids=["column", "array"])
class TestTunerStrategies:
    """``online`` and ``soft`` are the tuner classes behind the one contract."""

    def test_answers_and_the_build_is_charged_to_its_query(
        self, name, options, build_query, as_column, small_values, reference
    ):
        source = Column(small_values, name="key") if as_column else small_values
        strategy = create_strategy(name, source, **options)
        rng = np.random.default_rng(3)
        empty = strategy.structure_description
        assert strategy.nbytes == 0
        built_at = None
        for number in range(1, 41):
            low = int(rng.integers(0, 90))
            counters = CostCounters()
            before = strategy.structure_description
            answer = strategy.search(low, low + 10, counters)
            assert sorted(answer.tolist()) == sorted(
                reference(small_values, low, low + 10)
            )
            if strategy.structure_description != before:
                # the structure string reflects built structure only, so it
                # changes exactly on the query that pays for the sort
                assert built_at is None and before == empty
                assert counters.tuples_moved == len(small_values)
                assert counters.pieces_created == 1
                built_at = number
            else:
                assert counters.tuples_moved == 0
        assert built_at is not None
        if build_query is not None:
            assert built_at == build_query
        assert strategy.nbytes == 2 * small_values.nbytes

    def test_declares_that_reads_reorganize(
        self, name, options, build_query, as_column, small_values
    ):
        strategy = create_strategy(name, small_values, **options)
        # declared on the class: the base class gives the flag no default
        declaring = [
            cls for cls in type(strategy).__mro__
            if "reorganizes_on_read" in vars(cls)
        ]
        assert declaring[0] is not SearchStrategy
        assert strategy.reorganizes_on_read is True
        assert strategy.supports_updates is False
        assert strategy.selection_priority > create_strategy(
            "full-index", small_values
        ).selection_priority

    def test_rebuilt_keeps_statistics_and_drops_the_index(
        self, name, options, build_query, as_column, small_values, reference
    ):
        source = Column(small_values, name="key") if as_column else small_values
        strategy = create_strategy(name, source, **options)
        while not strategy.nbytes:
            strategy.search(40, 60)
        grown = np.append(small_values, 50)
        fresh = rebuild(
            name, strategy, Column(grown, name="key") if as_column else grown,
            **options,
        )
        assert fresh is not strategy and type(fresh) is type(strategy)
        assert len(fresh) == len(grown)
        assert fresh.nbytes == 0
        # the statistics came along: the very next query rebuilds
        counters = CostCounters()
        answer = fresh.search(40, 60, counters)
        assert sorted(answer.tolist()) == sorted(reference(grown, 40, 60))
        assert len(small_values) in answer.tolist()
        assert fresh.nbytes and counters.tuples_moved == len(grown)


def test_tuner_options_are_forwarded_only_when_given(small_values):
    online = create_strategy("online", small_values)
    assert online.tuner.build_threshold_factor == 1.0
    assert create_strategy("soft", small_values).tuner.recommendation_threshold == 3
    tuned = create_strategy("online", small_values, build_threshold_factor=2.5)
    assert tuned.tuner.build_threshold_factor == 2.5
    # the tuners validate their own options
    with pytest.raises(ValueError):
        create_strategy("online", small_values, build_threshold_factor=-1)
    with pytest.raises(ValueError):
        create_strategy("soft", small_values, recommendation_threshold=0)


class TestCostShapes:
    """The qualitative cost relationships the tutorial describes."""

    def _first_query_cost(self, name, values, **options):
        strategy = create_strategy(name, values, **options)
        counters = CostCounters()
        strategy.search(1000, 2000, counters)
        return counters

    def test_scan_has_no_initialization_overhead(self, medium_values):
        scan = self._first_query_cost("scan", medium_values)
        cracking = self._first_query_cost("cracking", medium_values)
        sort_first = self._first_query_cost("sort-first", medium_values)
        assert scan.tuples_moved == 0
        # cracking pays a copy + one partition pass; far below a full sort
        assert 0 < cracking.comparisons < sort_first.comparisons

    def test_adaptive_merging_between_cracking_and_sort(self, medium_values):
        cracking = self._first_query_cost("cracking", medium_values)
        merging = self._first_query_cost("adaptive-merging", medium_values, run_size=2000)
        sort_first = self._first_query_cost("sort-first", medium_values)
        assert cracking.comparisons < merging.comparisons <= sort_first.comparisons * 1.1

    def test_full_index_queries_are_cheap(self, medium_values):
        full = create_strategy("full-index", medium_values)
        counters = CostCounters()
        full.search(1000, 2000, counters)
        assert counters.comparisons < 100
        # ... because the build cost was paid offline
        assert full.build_counters.tuples_moved == len(medium_values)

    def test_cracking_converges_toward_index_cost(self, medium_values):
        strategy = create_strategy("cracking", medium_values)
        rng = np.random.default_rng(1)
        costs = []
        for _ in range(300):
            low = int(rng.integers(0, 95_000))
            counters = CostCounters()
            strategy.search(low, low + 2000, counters)
            costs.append(counters.tuples_scanned + counters.tuples_moved)
        # late queries touch little more than their own result
        average_result = np.mean(costs[-30:])
        assert average_result < len(medium_values) / 20
