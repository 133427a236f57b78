"""Unit tests for aggregation."""

import numpy as np
import pytest

from repro.columnstore.operators import aggregate


class TestAggregation:
    def test_aggregate_functions(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert aggregate(values, "sum") == 10.0
        assert aggregate(values, "min") == 1.0
        assert aggregate(values, "max") == 4.0
        assert aggregate(values, "mean") == 2.5
        assert aggregate(values, "count") == 4.0

    def test_aggregate_empty(self):
        assert aggregate(np.array([]), "count") == 0.0
        with pytest.raises(ValueError):
            aggregate(np.array([]), "sum")

    def test_aggregate_unknown_function(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            aggregate(np.array([1.0]), "median")
