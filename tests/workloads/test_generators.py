"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.workloads.generators import (
    WORKLOAD_PATTERNS,
    RangeQuery,
    WorkloadSpec,
    generate_column_data,
    periodic_workload,
    piecewise_focus_workload,
    random_workload,
    sequential_workload,
    skewed_workload,
)


SPEC = WorkloadSpec(domain_low=0, domain_high=100_000, query_count=500,
                    selectivity=0.01, seed=3)


def assert_within_domain(queries, spec=SPEC):
    for query in queries:
        assert spec.domain_low <= query.low <= query.high <= spec.domain_high


class TestSpecAndQuery:
    def test_range_query_validation(self):
        with pytest.raises(ValueError):
            RangeQuery(10, 5)
        assert RangeQuery(5, 10).width == 5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(domain_low=10, domain_high=5)
        with pytest.raises(ValueError):
            WorkloadSpec(selectivity=0)
        with pytest.raises(ValueError):
            WorkloadSpec(query_count=0)
        assert SPEC.range_width == pytest.approx(1000)


class TestPatterns:
    def test_random_workload_shape(self):
        queries = random_workload(SPEC)
        assert len(queries) == SPEC.query_count
        assert_within_domain(queries)
        widths = {round(q.width) for q in queries}
        assert widths == {round(SPEC.range_width)}

    def test_random_workload_deterministic_by_seed(self):
        assert random_workload(SPEC) == random_workload(SPEC)
        other = random_workload(WorkloadSpec(seed=99, query_count=500,
                                             domain_high=100_000))
        assert other != random_workload(SPEC)

    def test_skewed_workload_concentrates_queries(self):
        queries = skewed_workload(SPEC, alpha=2.0, hot_regions=10)
        assert_within_domain(queries)
        # with strong skew, the most popular decile receives far more than 10%
        region = np.array([int(q.low // 10_000) for q in queries])
        counts = np.bincount(region, minlength=10)
        assert counts.max() > len(queries) * 0.4

    def test_skewed_workload_alpha_zero_is_roughly_uniform(self):
        queries = skewed_workload(SPEC, alpha=0.0, hot_regions=10)
        region = np.array([int(q.low // 10_000) for q in queries])
        counts = np.bincount(region, minlength=10)
        assert counts.max() < len(queries) * 0.25

    def test_skewed_workload_validation(self):
        with pytest.raises(ValueError):
            skewed_workload(SPEC, hot_regions=0)
        with pytest.raises(ValueError):
            skewed_workload(SPEC, alpha=-1)

    def test_sequential_workload_sweeps_left_to_right(self):
        queries = sequential_workload(SPEC)
        assert_within_domain(queries)
        lows = [q.low for q in queries[:50]]
        assert lows == sorted(lows)
        assert queries[1].low >= queries[0].high  # disjoint by default

    def test_sequential_workload_overlap(self):
        queries = sequential_workload(SPEC, overlap=0.5)
        assert queries[1].low < queries[0].high
        with pytest.raises(ValueError):
            sequential_workload(SPEC, overlap=1.0)

    def test_periodic_workload_restarts(self):
        queries = periodic_workload(SPEC, period=50)
        assert queries[0].low == queries[50].low
        assert queries[10].low == queries[60].low
        with pytest.raises(ValueError):
            periodic_workload(SPEC, period=0)

    def test_piecewise_focus_shifts(self):
        queries = piecewise_focus_workload(SPEC, shift_every=100, focus_fraction=0.05)
        assert_within_domain(queries)
        # within one focus period the queries stay inside a narrow band
        first_period = queries[:100]
        band = max(q.high for q in first_period) - min(q.low for q in first_period)
        assert band <= SPEC.domain_width * 0.05 + SPEC.range_width * 2
        with pytest.raises(ValueError):
            piecewise_focus_workload(SPEC, shift_every=0)
        with pytest.raises(ValueError):
            piecewise_focus_workload(SPEC, focus_fraction=0)

    def test_pattern_table_dispatch(self):
        """The CLI's ``--pattern`` names are the pattern table's keys, and
        each builds the spec's number of queries."""
        assert sorted(WORKLOAD_PATTERNS) == [
            "periodic", "piecewise", "random", "sequential", "skewed"]
        for generator in WORKLOAD_PATTERNS.values():
            assert len(generator(SPEC)) == SPEC.query_count


class TestColumnData:
    def test_uniform_data_in_domain(self):
        data = generate_column_data(10_000, 0, 1000, "uniform", seed=1)
        assert data.min() >= 0 and data.max() <= 1000
        assert data.dtype == np.int64

    def test_normal_and_clustered_distributions(self):
        normal = generate_column_data(10_000, 0, 1000, "normal", seed=1)
        clustered = generate_column_data(10_000, 0, 1000, "clustered", seed=1)
        assert normal.min() >= 0 and normal.max() <= 1000
        assert clustered.min() >= 0 and clustered.max() <= 1000
        # clustered data has far fewer distinct values than uniform data
        assert len(np.unique(clustered)) < len(np.unique(normal))

    def test_float_dtype(self):
        data = generate_column_data(100, 0, 1, "uniform", dtype=np.float64)
        assert data.dtype == np.float64

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_column_data(-1)
        with pytest.raises(ValueError):
            generate_column_data(10, distribution="exotic")
