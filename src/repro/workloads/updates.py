"""Update workload generation (for the cracking-updates experiments)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.workloads.generators import RangeQuery, WorkloadSpec, random_workload


@dataclass(frozen=True)
class UpdateOperation:
    """One operation of a mixed query/update stream."""

    kind: str  # "query" | "insert" | "delete" | "update"
    query: Optional[RangeQuery] = None
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("query", "insert", "delete", "update"):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "query" and self.query is None:
            raise ValueError("query operations need a RangeQuery")
        if self.kind in ("insert", "update") and self.value is None:
            raise ValueError(f"{self.kind} operations need a value")


def mixed_update_workload(
    spec: WorkloadSpec,
    updates_per_query: float = 0.1,
    insert_fraction: float = 0.5,
    integer_values: bool = True,
    hot_fraction: float = 1.0,
) -> List[UpdateOperation]:
    """Interleave range queries with inserts and deletes.

    ``updates_per_query`` is the expected number of update operations issued
    between consecutive queries (the SIGMOD 2007 experiments use ratios from
    one update per hundred queries up to ten updates per query);
    ``insert_fraction`` splits updates between inserts and deletes;
    ``hot_fraction`` confines the inserted keys to that bottom share of the
    domain (a skewed insert stream).  Delete operations carry no target row
    (the harness picks a victim from the rows currently visible) — only
    their position in the stream matters here.
    """
    if updates_per_query < 0:
        raise ValueError("updates_per_query must be non-negative")
    if not 0.0 <= insert_fraction <= 1.0:
        raise ValueError("insert_fraction must be in [0, 1]")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")
    rng = np.random.default_rng(spec.seed + 1)
    queries = random_workload(spec)
    insert_high = spec.domain_low + hot_fraction * spec.domain_width
    stream: List[UpdateOperation] = []
    for query in queries:
        update_count = rng.poisson(updates_per_query)
        for _ in range(update_count):
            if rng.random() < insert_fraction:
                value = rng.uniform(spec.domain_low, insert_high)
                if integer_values:
                    value = float(int(value))
                stream.append(UpdateOperation(kind="insert", value=value))
            else:
                stream.append(UpdateOperation(kind="delete"))
        stream.append(UpdateOperation(kind="query", query=query))
    return stream


def write_workload(spec: WorkloadSpec, writes: int) -> List[UpdateOperation]:
    """``writes`` writes of integer keys — half inserts, a quarter deletes, a
    quarter updates — with ``spec.query_count`` random range queries spread
    evenly between them: the stream the durability experiment journals."""
    rng = np.random.default_rng(spec.seed + 1)
    queries = random_workload(spec)
    every = max(1, writes // len(queries))
    stream: List[UpdateOperation] = []
    for index in range(writes):
        roll = rng.random()
        value = float(int(rng.uniform(spec.domain_low, spec.domain_high)))
        if roll < 0.5:
            stream.append(UpdateOperation(kind="insert", value=value))
        elif roll < 0.75:
            stream.append(UpdateOperation(kind="delete"))
        else:
            stream.append(UpdateOperation(kind="update", value=value))
        if (index + 1) % every == 0 and queries:
            stream.append(UpdateOperation(kind="query", query=queries.pop(0)))
    return stream
