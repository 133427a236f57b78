"""Cracking under updates — the historical name of the cracked column.

The pending insert/delete queues and the ripple merge live in
:class:`~repro.core.cracking.cracked_column.CrackedColumn` itself (a column
nobody updates is one whose queues stay empty); the ripple kernels are in
:mod:`~repro.core.cracking.crack_engine`.  ``UpdatableCrackedColumn`` is
that class with the cracker-column copy made up front and charged to no
query — the accounting the updatable registry names use.  It is a factory
(a :func:`functools.partial`), not a type: call it to build a column, and
use :class:`CrackedColumn` for ``isinstance``, annotations and subclassing.
"""

from functools import partial

from repro.core.cracking.cracked_column import CrackedColumn

UpdatableCrackedColumn = partial(CrackedColumn, lazy_copy=False)
