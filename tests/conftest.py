"""Shared fixtures for the test suite."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.table import Table


@pytest.fixture
def rng():
    """Deterministic random generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_values(rng):
    """A small integer array with duplicates (good for edge cases)."""
    return rng.integers(0, 100, size=500).astype(np.int64)


@pytest.fixture
def medium_values(rng):
    """A medium-sized integer array for behavioural tests."""
    return rng.integers(0, 100_000, size=20_000).astype(np.int64)


@pytest.fixture
def float_values(rng):
    """A float array for type-dispatch tests."""
    return rng.uniform(0.0, 1000.0, size=2_000)


@pytest.fixture
def small_column(small_values):
    return Column(small_values, name="key")


@pytest.fixture
def sample_table(rng):
    """A four-column table for multi-column / sideways tests."""
    size = 2_000
    return Table(
        "facts",
        {
            "a": rng.integers(0, 10_000, size=size).astype(np.int64),
            "b": rng.integers(0, 1_000, size=size).astype(np.int64),
            "c": rng.uniform(0.0, 1.0, size=size),
            "d": rng.integers(0, 50, size=size).astype(np.int64),
        },
    )


@pytest.fixture
def pooled_fan_out(monkeypatch):
    """Every sub-selection of a ``parallel=True`` partitioned column clears
    the hand-off bar, so a test-sized column runs its fan-out on the thread
    pool — which its own decision (pieces of 32k elements and more) would
    never give it."""
    monkeypatch.setattr("repro.core.partitioned._POOL_MIN_WORK", 0)


@pytest.fixture
def pool_submits(monkeypatch):
    """The callable of every ``ThreadPoolExecutor.submit`` made during the
    test, in order: how a test sees a hand-off without reading a clock."""
    submitted = []
    submit = ThreadPoolExecutor.submit

    def recording(self, fn, /, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    return submitted


def reference_range_positions(values: np.ndarray, low, high) -> set:
    """Scan-based reference answer for a half-open range query."""
    values = np.asarray(values)
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low
    if high is not None:
        mask &= values < high
    return set(np.flatnonzero(mask).tolist())


@pytest.fixture
def reference():
    """Expose the reference-answer helper as a fixture."""
    return reference_range_positions


@pytest.fixture
def session(database):
    """A session on the requesting module's ``database`` fixture — the one
    way operations enter the engine — closed when the test ends."""
    with database.session() as session:
        yield session
