"""``benchmarks/reach.py`` on a canned package: no entry point runs.

A short driver calls some functions of ``pkg/mod.py`` under the gate's
profiling bootstrap, in a subprocess, and the gate diffs what it recorded
against the package's ``def``s.  The real probe (the e21 workloads, the
figure check, the CLI and the examples) is the CI step, not a test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import reach  # noqa: E402

MODULE = '''\
import functools


def traced(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)
    return wrapper


@traced
def decorated():
    return 1


def outer():
    def inner():
        return 2
    return inner()


def never_called():
    return 3


class Box:
    @property
    def size(self):
        return self._size

    @size.setter
    def size(self, value):
        self._size = value
'''

DRIVER = '''\
from pkg import mod

mod.decorated()
mod.outer()
box = mod.Box()
box.size = 3
'''


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """The canned package's definitions and what the driver reached."""
    root = tmp_path_factory.mktemp("reach")
    (root / "pkg").mkdir()
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "mod.py").write_text(MODULE)
    (root / "driver.py").write_text(DRIVER)
    dumps = root / "dumps"
    dumps.mkdir()
    env = reach.probe_environment(reach.write_bootstrap(root / "boot"), dumps, [root])
    subprocess.run([sys.executable, "driver.py"], cwd=root, env=env, check=True)
    return reach.definitions(root / "pkg"), reach.reached(dumps, root / "pkg")


def line_of(text, source=MODULE):
    return source.splitlines().index(text) + 1


def test_a_decorated_function_and_a_nested_def_are_keyed_by_their_first_lines(probed):
    defined, hit = probed
    decorated = ("mod.py", line_of("@traced"))
    inner = ("mod.py", line_of("    def inner():"))
    setter = ("mod.py", line_of("    @size.setter"))
    assert defined[decorated] == "mod.py::decorated"
    assert defined[inner] == "mod.py::outer.inner"
    assert defined[setter] == "mod.py::Box.size[2]"
    # the profiler's co_firstlineno is the AST's first line
    assert {decorated, inner, setter} <= hit
    wrapper = ("mod.py", line_of("    @functools.wraps(function)"))
    assert defined[wrapper] == "mod.py::traced.wrapper" and wrapper in hit


def test_an_unlisted_unreached_def_fails_the_gate(probed):
    defined, hit = probed
    verdict = reach.gate(defined, hit, {})
    # the getter is set, never read: unreached like never_called
    assert verdict["failures"] == ["unreached and not listed: mod.py::Box.size",
                                   "unreached and not listed: mod.py::never_called"]
    assert verdict["now_reached"] == []


def test_a_listed_unreached_def_passes_and_a_stale_name_fails(probed):
    defined, hit = probed
    allow = {
        "mod.py::Box.size": {"kind": "untriggered", "reason": "no driver reads a size"},
        "mod.py::never_called": {"kind": "oracle", "reason": "tests compare with it"},
    }
    assert reach.gate(defined, hit, allow)["failures"] == []
    allow["mod.py::gone"] = {"kind": "oracle", "reason": "deleted since"}
    assert reach.gate(defined, hit, allow)["failures"] == [
        "listed but no longer defined: mod.py::gone"]


def test_a_listed_but_reached_def_is_reported_not_failed(probed):
    defined, hit = probed
    allow = {
        "mod.py::Box.size": {"kind": "untriggered", "reason": "no driver reads a size"},
        "mod.py::never_called": {"kind": "oracle", "reason": "tests compare with it"},
        "mod.py::outer.inner": {"kind": "oracle", "reason": "was unreached once"},
    }
    verdict = reach.gate(defined, hit, allow)
    assert verdict["failures"] == []
    assert verdict["now_reached"] == [
        "listed but reached (take it off the list): mod.py::outer.inner"]


def test_an_entry_needs_a_known_kind_and_a_reason(probed):
    defined, hit = probed
    allow = {
        "mod.py::Box.size": {"kind": "untriggered", "reason": " "},
        "mod.py::never_called": {"kind": "unused", "reason": "nobody calls it"},
    }
    assert reach.gate(defined, hit, allow)["failures"] == [
        "listed without a known kind and a reason: mod.py::Box.size",
        "listed without a known kind and a reason: mod.py::never_called"]


def test_the_allowlist_names_only_functions_that_exist():
    """The half of the gate that needs no probe, on the real tree: every
    entry names a ``def`` of ``src/repro`` and gives a known kind and a
    reason."""
    defined = reach.definitions(reach.SOURCE_ROOT)
    allow = reach.load_allowlist()
    verdict = reach.gate(defined, set(defined), allow)
    assert verdict["failures"] == []
    assert len(verdict["now_reached"]) == len(allow)
