"""One process owns a data directory (``durability/lock.py``).

The oracle runs real processes: a second process's open is refused while
the first holds the directory, and admitted once the first is gone — after
``close`` or after a ``kill -9``, whose stamp the next opener takes over.
Inside one process a second open is admitted, which is how the fault suite
simulates a crash and a restart; a directory that only shares a held one's
inode, and a forked child, are not admitted that way.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.durability import lock
from repro.durability.lock import LOCK_NAME, DataDirectoryLocked, DirectoryLock
from repro.engine.database import Database

SRC = Path(__file__).resolve().parents[2] / "src"

OPEN = """
import sys
from repro.engine.database import Database
from repro.durability.lock import DataDirectoryLocked
try:
    database = Database.open(sys.argv[1])
except DataDirectoryLocked as exc:
    print(exc)
    sys.exit(3)
print(database.table("t").row_count)
"""

HOLD = """
import sys, time
import numpy as np
from repro.engine.database import Database
database = Database(data_dir=sys.argv[1])
database.create_table("t", {"x": np.arange(5, dtype=np.int64)})
with database.session() as session:
    session.insert_row("t", {"x": 9})
database.durability.sync()
print("ready", flush=True)
time.sleep(120)
"""


def python(script, *args, **popen):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)],
                            env=env, stdout=subprocess.PIPE, text=True, **popen)


def open_elsewhere(data_dir):
    """(exit code, output) of a ``Database.open`` in another process."""
    process = python(OPEN, data_dir)
    output, _ = process.communicate(timeout=60)
    return process.returncode, output.strip()


def durable(data_dir):
    database = Database(data_dir=data_dir)
    database.create_table("t", {"x": np.arange(5, dtype=np.int64)})
    return database


def test_another_process_is_refused_while_this_one_holds_it(tmp_path):
    database = durable(tmp_path / "db")
    code, output = open_elsewhere(tmp_path / "db")
    assert code == 3
    assert f"in use by process {os.getpid()}" in output
    database.close()
    assert open_elsewhere(tmp_path / "db") == (0, "5")


def test_a_second_open_in_this_process_is_admitted(tmp_path):
    abandoned = durable(tmp_path / "db")  # as if crashed: never closed
    recovered = Database.open(tmp_path / "db")
    assert recovered.table("t").row_count == 5
    recovered.close()
    # the abandoned holder still holds the directory for this process
    assert open_elsewhere(tmp_path / "db")[0] == 3
    abandoned.close()
    assert open_elsewhere(tmp_path / "db")[0] == 0


def test_a_killed_owner_is_taken_over(tmp_path):
    holder = python(HOLD, tmp_path / "db")
    try:
        assert holder.stdout.readline().strip() == "ready"
        stamp = (tmp_path / "db" / LOCK_NAME).read_text().strip()
        assert stamp == str(holder.pid)
        code, output = open_elsewhere(tmp_path / "db")
        assert code == 3 and f"in use by process {holder.pid}" in output
        with pytest.raises(DataDirectoryLocked):
            Database.open(tmp_path / "db")
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=60)
        holder.stdout.close()
    # the stale stamp stays behind; the flock went with the process
    assert (tmp_path / "db" / LOCK_NAME).read_text().strip() == str(holder.pid)
    recovered = Database.open(tmp_path / "db")
    assert recovered.table("t").row_count == 6
    assert (tmp_path / "db" / LOCK_NAME).read_text().strip() == str(os.getpid())
    recovered.close()


def test_a_refused_open_leaves_this_process_holding_nothing(tmp_path):
    holder = python(HOLD, tmp_path / "db")
    try:
        assert holder.stdout.readline().strip() == "ready"
        with pytest.raises(DataDirectoryLocked):
            DirectoryLock(tmp_path / "db")
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=60)
        holder.stdout.close()
    lock = DirectoryLock(tmp_path / "db")
    lock.release()
    lock.release()  # idempotent
    assert open_elsewhere(tmp_path / "db")[0] == 0


def test_a_new_directory_on_a_held_ones_inode_is_locked_afresh(tmp_path):
    abandoned = durable(tmp_path / "old")  # never closed, still alive
    old = os.stat(tmp_path / "old")
    shutil.rmtree(tmp_path / "old")
    (tmp_path / "db").mkdir()
    new = os.stat(tmp_path / "db")
    # the filesystem may hand the freed inode to the new directory; make it
    # do so, by re-keying the abandoned holder's registry entry
    lock._HELD[(new.st_dev, new.st_ino)] = lock._HELD.pop((old.st_dev, old.st_ino))
    database = durable(tmp_path / "db")
    code, output = open_elsewhere(tmp_path / "db")
    assert code == 3 and f"in use by process {os.getpid()}" in output
    database.close()
    assert open_elsewhere(tmp_path / "db")[0] == 0
    abandoned.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_is_another_process(tmp_path):
    database = durable(tmp_path / "db")
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        code = 1  # anything else raised: never return into the test runner
        try:
            DirectoryLock(tmp_path / "db")
            code = 0
        except DataDirectoryLocked:
            code = 3
        finally:
            os._exit(code)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 3
    database.close()
