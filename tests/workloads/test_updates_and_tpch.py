"""Unit tests for update workloads and the TPC-H-like generator."""

from collections import Counter

import numpy as np
import pytest

from repro.engine.query import Query
from repro.workloads.generators import WorkloadSpec
from repro.workloads.tpch_like import (
    TPCHLikeConfig,
    build_database,
    generate_tables,
    shipping_priority_queries,
)
from repro.workloads.updates import UpdateOperation, mixed_update_workload, write_workload


SPEC = WorkloadSpec(domain_low=0, domain_high=10_000, query_count=200, seed=5)


def split_operations(stream):
    return Counter(operation.kind for operation in stream)


class TestUpdateWorkload:
    def test_operation_validation(self):
        with pytest.raises(ValueError):
            UpdateOperation(kind="mutate")
        with pytest.raises(ValueError):
            UpdateOperation(kind="query")
        with pytest.raises(ValueError):
            UpdateOperation(kind="insert")
        with pytest.raises(ValueError):
            UpdateOperation(kind="update")

    def test_mixed_stream_composition(self):
        stream = mixed_update_workload(SPEC, updates_per_query=0.5)
        summary = split_operations(stream)
        assert summary["query"] == SPEC.query_count
        total_updates = summary["insert"] + summary["delete"]
        # Poisson(0.5) per query: expect about half as many updates as queries
        assert 0.2 * SPEC.query_count < total_updates < 0.9 * SPEC.query_count

    def test_update_ratio_scales(self):
        light = split_operations(mixed_update_workload(SPEC, updates_per_query=0.1))
        heavy = split_operations(mixed_update_workload(SPEC, updates_per_query=2.0))
        assert heavy["insert"] + heavy["delete"] > 3 * (light["insert"] + light["delete"])

    def test_insert_fraction(self):
        all_inserts = split_operations(
            mixed_update_workload(SPEC, updates_per_query=1.0, insert_fraction=1.0)
        )
        assert all_inserts["delete"] == 0 and all_inserts["insert"] > 0

    def test_insert_values_in_domain_and_integer(self):
        stream = mixed_update_workload(SPEC, updates_per_query=1.0, insert_fraction=1.0)
        for operation in stream:
            if operation.kind == "insert":
                assert SPEC.domain_low <= operation.value <= SPEC.domain_high
                assert operation.value == int(operation.value)

    def test_hot_fraction_confines_the_inserts_and_nothing_else(self):
        everywhere = mixed_update_workload(SPEC, updates_per_query=1.0)
        hot = mixed_update_workload(SPEC, updates_per_query=1.0, hot_fraction=0.1)
        assert [op.kind for op in hot] == [op.kind for op in everywhere]
        assert [op.query for op in hot] == [op.query for op in everywhere]
        inserted = [op.value for op in hot if op.kind == "insert"]
        assert inserted and max(inserted) < 0.1 * SPEC.domain_high

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_update_workload(SPEC, updates_per_query=-1)
        with pytest.raises(ValueError):
            mixed_update_workload(SPEC, insert_fraction=2.0)
        with pytest.raises(ValueError):
            mixed_update_workload(SPEC, hot_fraction=0.0)

    def test_write_workload_has_exactly_the_writes_asked_for(self):
        spec = WorkloadSpec(domain_low=0, domain_high=10_000, query_count=30, seed=5)
        stream = write_workload(spec, writes=300)
        summary = split_operations(stream)
        assert summary["query"] == 30
        assert summary["insert"] + summary["delete"] + summary["update"] == 300
        assert min(summary["insert"], summary["delete"], summary["update"]) > 30
        # a query after every tenth write, none before the first
        assert [op.kind == "query" for op in stream[:11]] == [False] * 10 + [True]
        assert stream == write_workload(spec, writes=300)


class TestTPCHLike:
    CONFIG = TPCHLikeConfig(fact_rows=5_000, customers=100, parts=200, seed=1)

    def test_schema_shape(self):
        tables = generate_tables(self.CONFIG)
        assert set(tables) == {"lineorder", "customer", "part"}
        assert len(tables["lineorder"]["orderkey"]) == 5_000
        assert len(tables["customer"]["custkey"]) == 100
        assert len(tables["part"]["partkey"]) == 200

    def test_foreign_keys_reference_dimensions(self):
        tables = generate_tables(self.CONFIG)
        assert tables["lineorder"]["custkey"].max() < self.CONFIG.customers
        assert tables["lineorder"]["partkey"].max() < self.CONFIG.parts

    def test_correlations_present(self):
        tables = generate_tables(self.CONFIG)
        lineorder = tables["lineorder"]
        # order dates grow with order keys; prices grow with quantities
        assert np.corrcoef(lineorder["orderkey"], lineorder["orderdate"])[0, 1] > 0.9
        assert np.corrcoef(lineorder["quantity"], lineorder["extendedprice"])[0, 1] > 0.9
        # ship dates never precede order dates
        assert np.all(lineorder["shipdate"] >= lineorder["orderdate"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TPCHLikeConfig(fact_rows=0)
        with pytest.raises(ValueError):
            TPCHLikeConfig(customers=0)

    def test_build_database_and_run_query(self):
        database = build_database(self.CONFIG)
        queries = shipping_priority_queries(self.CONFIG, query_count=5, seed=2)
        assert all(isinstance(q, Query) for q in queries)
        with database.session() as session:
            result = session.execute(queries[0])
        # verify against a direct reference evaluation
        lineorder = database.table("lineorder")
        orderdate = lineorder["orderdate"].values
        quantity = lineorder["quantity"].values
        discount = lineorder["discount"].values
        selections = {s.column: s for s in queries[0].selections}
        mask = (
            (orderdate >= selections["orderdate"].low)
            & (orderdate < selections["orderdate"].high)
            & (quantity >= selections["quantity"].low)
            & (quantity < selections["quantity"].high)
            & (discount >= selections["discount"].low)
            & (discount < selections["discount"].high)
        )
        assert set(result.positions.tolist()) == set(np.flatnonzero(mask).tolist())

    def test_deterministic_given_seed(self):
        first = generate_tables(self.CONFIG)
        second = generate_tables(self.CONFIG)
        assert np.array_equal(first["lineorder"]["extendedprice"],
                              second["lineorder"]["extendedprice"])
