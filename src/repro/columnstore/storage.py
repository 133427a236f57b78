"""Memory accounting and storage budgets.

Partial cracking (Idreos et al., SIGMOD 2009) bounds the storage available to
auxiliary cracking structures; the :class:`StorageBudget` models that bound
and the :class:`MemoryTracker` gives a global view of the memory used by a
database instance (base columns plus all auxiliary index structures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


class StorageExceededError(RuntimeError):
    """Raised when an allocation would exceed a hard storage budget."""


@dataclass
class StorageBudget:
    """A byte budget for auxiliary index structures.

    ``limit_bytes`` of ``None`` means unlimited.  Consumers *reserve* bytes
    before allocating and *release* them when structures are dropped; the
    partial-cracking machinery uses the budget to decide when pieces must be
    evicted instead of materialised.
    """

    limit_bytes: int = None
    used_bytes: int = 0

    def can_allocate(self, nbytes: int) -> bool:
        """True when ``nbytes`` more bytes fit in the budget."""
        if self.limit_bytes is None:
            return True
        return self.used_bytes + nbytes <= self.limit_bytes

    def reserve(self, nbytes: int) -> None:
        """Reserve ``nbytes``; raises :class:`StorageExceededError` if over budget."""
        if nbytes < 0:
            raise ValueError("cannot reserve a negative number of bytes")
        if not self.can_allocate(nbytes):
            raise StorageExceededError(
                f"allocation of {nbytes} bytes exceeds budget "
                f"({self.used_bytes}/{self.limit_bytes} bytes used)"
            )
        self.used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Release previously reserved bytes."""
        if nbytes < 0:
            raise ValueError("cannot release a negative number of bytes")
        self.used_bytes = max(0, self.used_bytes - nbytes)


@dataclass
class MemoryTracker:
    """Tracks memory used by named components of a database instance."""

    components: Dict[str, int] = field(default_factory=dict)

    def set_usage(self, component: str, nbytes: int) -> None:
        """Record the current memory footprint of a component."""
        if nbytes < 0:
            raise ValueError("memory usage cannot be negative")
        self.components[component] = int(nbytes)

    def remove(self, component: str) -> None:
        """Forget a component (e.g. a dropped index)."""
        self.components.pop(component, None)

    @property
    def total_bytes(self) -> int:
        return sum(self.components.values())

    def breakdown(self) -> Dict[str, int]:
        """Per-component memory usage (copy)."""
        return dict(self.components)
