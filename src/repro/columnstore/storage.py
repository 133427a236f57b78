"""Storage budgets.

Partial cracking (Idreos et al., SIGMOD 2009) bounds the storage available to
auxiliary cracking structures; the :class:`StorageBudget` models that bound.
"""

from __future__ import annotations

from dataclasses import dataclass


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
