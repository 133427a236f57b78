"""RL002 fixture (clean): the five declared levels, outermost first.

``guards.LOCK_ORDER``: schema lock -> table gates -> path locks ->
WAL-order mutex -> stats leaves.  Parsed by reprolint in tests, never run.
"""

import threading


class OrderedEngine:
    def __init__(self, path_locks, table_gates):
        self._schema_lock = threading.Lock()
        self._table_gates = table_gates
        self._path_locks = path_locks
        self._wal_order_lock = threading.Lock()
        self._stats_lock = threading.Lock()

    def full_stack(self, key, table):
        with self._schema_lock:
            with self._table_gates.write_all([table]):
                with self._path_locks.lock_for(key):
                    with self._wal_order_lock:
                        with self._stats_lock:
                            pass

    def levels_may_be_skipped(self, table):
        with self._schema_lock:
            with self._stats_lock:
                pass
        with self._table_gates.write(table):
            with self._wal_order_lock:
                pass
