"""Spans recorded from the benchmark's own files, around calls into each layer.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the span that caused it (-1 for a root) and spans of one operation share an
``op_id``.  Spans are kept in memory and written as JSON lines when the run
ends.  A span's *self time* is its duration minus the part of that interval
its children cover.

The clock is read immediately around the traced call and the span is
appended afterwards, so the bookkeeping of a child lands in its parent's
self time, never in the child's own duration.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

ROOT = -1


class Tracer:
    """An in-memory span log."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.op_ids: List[int] = []
        self._next_op = 0

    def new_op(self) -> int:
        """A fresh operation identifier."""
        self._next_op += 1
        return self._next_op

    def add(self, name: str, start: float, end: float, op_id: int,
            parent: int = ROOT) -> int:
        """Record a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.op_ids.append(op_id)
        return len(self.names) - 1

    def open(self, name: str, op_id: int, parent: int = ROOT) -> int:
        """Start a span whose children are recorded before it ends."""
        index = self.add(name, 0.0, 0.0, op_id, parent)
        self.starts[index] = time.perf_counter()
        return index

    def close(self, index: int) -> float:
        """End a span started with :meth:`open`; returns its duration."""
        end = time.perf_counter()
        self.ends[index] = end
        return end - self.starts[index]

    def call(self, name: str, op_id: int, parent: int, function, *args):
        """Span around ``function(*args)``; returns ``(seconds, result)``."""
        start = time.perf_counter()
        result = function(*args)
        end = time.perf_counter()
        self.add(name, start, end, op_id, parent)
        return end - start, result

    # -- reading the log ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> List[float]:
        """Per span: duration minus the interval its children cover.

        Children of one parent never overlap here (one client thread), so
        the covered interval is the sum of the children's durations clipped
        to the parent.
        """
        covered = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent == ROOT:
                continue
            start = max(self.starts[index], self.starts[parent])
            end = min(self.ends[index], self.ends[parent])
            covered[parent] += max(0.0, end - start)
        return [
            (self.ends[i] - self.starts[i]) - covered[i]
            for i in range(len(self.names))
        ]

    def problems(self) -> List[str]:
        """Ways in which the log is not well-formed (empty when it is)."""
        found = []
        roots_of_op: Dict[int, int] = {}
        for index in range(len(self.names)):
            label = f"span {index} ({self.names[index]})"
            if self.ends[index] < self.starts[index]:
                found.append(f"{label} ends before it starts")
            parent = self.parents[index]
            if parent == ROOT:
                op_id = self.op_ids[index]
                roots_of_op[op_id] = roots_of_op.get(op_id, 0) + 1
                continue
            if not 0 <= parent < len(self.names):
                found.append(f"{label} names a parent that does not exist")
                continue
            if self.op_ids[parent] != self.op_ids[index]:
                found.append(f"{label} and its parent belong to different ops")
            if (self.starts[index] < self.starts[parent]
                    or self.ends[index] > self.ends[parent]):
                found.append(f"{label} is not inside its parent's interval")
        for op_id in sorted(set(self.op_ids)):
            if roots_of_op.get(op_id, 0) != 1:
                found.append(
                    f"op {op_id} has {roots_of_op.get(op_id, 0)} root spans, expected 1"
                )
        # 1 ns of slack: subtracting clipped float intervals can round below zero
        if any(value < -1e-9 for value in self.self_times()):
            found.append("a span has negative self time")
        return found

    @classmethod
    def read_jsonl(cls, path: Path) -> "Tracer":
        """Load a span file written by :meth:`write_jsonl`."""
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                tracer.add(span["name"], span["start"], span["end"],
                           span["op_id"], span["parent"])
        return tracer

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.names)):
                handle.write(json.dumps({
                    "name": self.names[index],
                    "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index],
                    "op_id": self.op_ids[index],
                }))
                handle.write("\n")
