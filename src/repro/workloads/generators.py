"""Range-query workload generators.

All generators produce sequences of :class:`RangeQuery` (half-open value
ranges) over a numeric key domain.  The patterns mirror the workloads used
across the adaptive-indexing papers:

* ``random``      — query position uniform over the domain (CIDR 2007);
* ``skewed``      — query focus drawn from a zipf-like distribution so a few
  hot regions receive most queries (PVLDB 2011 robustness studies);
* ``sequential``  — ranges sweep the domain left to right (the adversarial
  pattern for plain cracking);
* ``periodic``    — sequential sweep that restarts every ``period`` queries;
* ``piecewise focus`` — the workload concentrates on one region for a while,
  then jumps to another (workload-shift experiments for online tuning
  versus adaptive indexing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class RangeQuery:
    """A half-open range query ``low <= key < high``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"invalid range query: high ({self.high}) < low ({self.low})")

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters shared by all workload generators."""

    domain_low: float = 0.0
    domain_high: float = 1_000_000.0
    query_count: int = 1000
    selectivity: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.domain_high <= self.domain_low:
            raise ValueError("domain_high must be greater than domain_low")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")

    @property
    def domain_width(self) -> float:
        return self.domain_high - self.domain_low

    @property
    def range_width(self) -> float:
        return self.domain_width * self.selectivity


def _clamp_query(low: float, width: float, spec: WorkloadSpec) -> RangeQuery:
    low = min(max(low, spec.domain_low), spec.domain_high - width)
    low = max(low, spec.domain_low)
    return RangeQuery(low=low, high=min(low + width, spec.domain_high))


def random_workload(spec: WorkloadSpec) -> List[RangeQuery]:
    """Uniformly random range queries of fixed selectivity."""
    rng = np.random.default_rng(spec.seed)
    width = spec.range_width
    lows = rng.uniform(spec.domain_low, spec.domain_high - width, size=spec.query_count)
    return [_clamp_query(low, width, spec) for low in lows]


def skewed_workload(spec: WorkloadSpec, alpha: float = 1.0, hot_regions: int = 8) -> List[RangeQuery]:
    """Zipf-skewed workload: region ``k`` is queried with weight ``1/(k+1)**alpha``.

    ``alpha = 0`` degenerates to uniform; larger values concentrate queries
    on fewer regions, which is the setting where adaptive indexing optimises
    only the hot key ranges and leaves the rest untouched.
    """
    if hot_regions < 1:
        raise ValueError("hot_regions must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    rng = np.random.default_rng(spec.seed)
    width = spec.range_width
    weights = np.array([1.0 / (k + 1) ** alpha for k in range(hot_regions)])
    weights /= weights.sum()
    region_width = spec.domain_width / hot_regions
    # shuffle region order so the hottest region is not always the leftmost
    region_order = rng.permutation(hot_regions)
    queries: List[RangeQuery] = []
    regions = rng.choice(hot_regions, size=spec.query_count, p=weights)
    for region in regions:
        base = spec.domain_low + region_order[region] * region_width
        offset = rng.uniform(0.0, max(region_width - width, 1e-9))
        queries.append(_clamp_query(base + offset, width, spec))
    return queries


def sequential_workload(spec: WorkloadSpec, overlap: float = 0.0) -> List[RangeQuery]:
    """Ranges sweeping the domain left to right.

    ``overlap`` in [0, 1) controls how much consecutive ranges overlap; the
    default 0 gives disjoint consecutive ranges, the classic adversarial
    pattern for plain cracking (every query shaves a sliver off the one huge
    remaining piece).
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    width = spec.range_width
    step = width * (1.0 - overlap)
    queries: List[RangeQuery] = []
    position = spec.domain_low
    for _ in range(spec.query_count):
        if position + width > spec.domain_high:
            position = spec.domain_low
        queries.append(_clamp_query(position, width, spec))
        position += step
    return queries


def periodic_workload(spec: WorkloadSpec, period: int = 100) -> List[RangeQuery]:
    """Sequential sweep that restarts from the domain start every ``period`` queries."""
    if period < 1:
        raise ValueError("period must be >= 1")
    width = spec.range_width
    step = max((spec.domain_width - width) / max(period - 1, 1), 0.0)
    queries: List[RangeQuery] = []
    for index in range(spec.query_count):
        position_in_period = index % period
        low = spec.domain_low + position_in_period * step
        queries.append(_clamp_query(low, width, spec))
    return queries


def piecewise_focus_workload(
    spec: WorkloadSpec,
    shift_every: int = 250,
    focus_fraction: float = 0.1,
) -> List[RangeQuery]:
    """Workload that concentrates on one sub-domain, then shifts to another.

    Every ``shift_every`` queries the focus jumps to a new random sub-domain
    covering ``focus_fraction`` of the key space.  Offline tuning indexes the
    wrong region after each shift; online tuning needs to re-observe; adaptive
    indexing starts refining the new region with the first query that touches
    it — which is exactly the comparison experiment E13/E14 runs.
    """
    if shift_every < 1:
        raise ValueError("shift_every must be >= 1")
    if not 0.0 < focus_fraction <= 1.0:
        raise ValueError("focus_fraction must be in (0, 1]")
    rng = np.random.default_rng(spec.seed)
    width = spec.range_width
    focus_width = spec.domain_width * focus_fraction
    queries: List[RangeQuery] = []
    focus_low = spec.domain_low
    for index in range(spec.query_count):
        if index % shift_every == 0:
            focus_low = rng.uniform(
                spec.domain_low, max(spec.domain_high - focus_width, spec.domain_low)
            )
        low = rng.uniform(focus_low, max(focus_low + focus_width - width, focus_low + 1e-9))
        queries.append(_clamp_query(low, width, spec))
    return queries


WORKLOAD_PATTERNS = {
    "random": random_workload,
    "skewed": skewed_workload,
    "sequential": sequential_workload,
    "periodic": periodic_workload,
    "piecewise": piecewise_focus_workload,
}


def generate_column_data(
    size: int,
    domain_low: float = 0.0,
    domain_high: float = 1_000_000.0,
    distribution: str = "uniform",
    seed: int = 0,
    dtype=np.int64,
) -> np.ndarray:
    """Generate base column data for the experiments.

    ``distribution`` is one of ``uniform`` (default), ``normal`` (clipped to
    the domain) or ``clustered`` (values clustered around a few centroids,
    giving duplicate-heavy columns).
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        data = rng.uniform(domain_low, domain_high, size=size)
    elif distribution == "normal":
        centre = (domain_low + domain_high) / 2.0
        spread = (domain_high - domain_low) / 6.0
        data = np.clip(rng.normal(centre, spread, size=size), domain_low, domain_high)
    elif distribution == "clustered":
        centroids = rng.uniform(domain_low, domain_high, size=max(4, size // 10_000 or 4))
        picks = rng.integers(0, len(centroids), size=size)
        spread = (domain_high - domain_low) / 100.0
        data = np.clip(
            centroids[picks] + rng.normal(0.0, spread, size=size),
            domain_low,
            domain_high,
        )
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    if np.issubdtype(np.dtype(dtype), np.integer):
        return data.astype(np.int64).astype(dtype)
    return data.astype(dtype)
