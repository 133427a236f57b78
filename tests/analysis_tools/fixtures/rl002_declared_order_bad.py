"""RL002 fixture: every back-edge of the five declared levels.

Each method acquires a lock of an earlier (or the same) level of
``guards.LOCK_ORDER`` than the one it holds.  Parsed by reprolint in tests,
never run.
"""

import threading


class BackwardsEngine:
    def __init__(self, path_locks, table_gates):
        self._schema_lock = threading.Lock()
        self._table_gates = table_gates
        self._path_locks = path_locks
        self._wal_order_lock = threading.Lock()
        self._stats_lock = threading.Lock()

    def schema_lock_under_gate(self, table):
        with self._table_gates.read([table]):
            with self._schema_lock:  # expect[RL002]
                pass

    def gate_under_path_lock(self, key, table):
        with self._path_locks.lock_for(key):
            with self._table_gates.write(table):  # expect[RL002]
                pass

    def path_lock_under_wal_order(self, key):
        with self._wal_order_lock:
            with self._path_locks.locked([key]):  # expect[RL002]
                pass

    def wal_order_under_leaf(self):
        with self._stats_lock:
            with self._wal_order_lock:  # expect[RL002]
                pass

    def schema_lock_under_wal_order(self):
        with self._wal_order_lock:
            with self._schema_lock:  # expect[RL002]
                pass

    def same_level_twice(self, left, right):
        with self._table_gates.write(left):
            with self._table_gates.write(right):  # expect[RL002]
                pass
