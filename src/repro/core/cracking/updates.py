"""Cracking under updates — the historical name of the cracked column.

The pending insert/delete queues and the ripple merge live in
:class:`~repro.core.cracking.cracked_column.CrackedColumn` itself (a column
nobody updates is one whose queues stay empty); the ripple kernels are in
:mod:`~repro.core.cracking.crack_engine`.  ``UpdatableCrackedColumn`` is
that class as an updatable access path: its cracker column is built by its
first search, as every cracked column's is, and that copy is charged to no
operation — the accounting the updatable registry names use.  It is a factory
(a :func:`functools.partial`), not a type: call it to build a column, and
use :class:`CrackedColumn` for ``isinstance``, annotations and subclassing.
"""

from functools import partial

from repro.core.cracking.cracked_column import CrackedColumn

UpdatableCrackedColumn = partial(CrackedColumn, supports_updates=True)
