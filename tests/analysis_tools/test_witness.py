"""The scaffold the three runtime witnesses share, checked once over all three.

What each witness *checks* is tested beside it (the lock-order and cost
property suites, ``test_type_witness.py``); how a witness is armed, disarmed
and how it reports is the same everywhere and is pinned here.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis_tools import type_witness
from repro.analysis_tools.witness import Witness
from repro.cost import witness as cost_witness
from repro.cost.counters import CostCounters
from repro.engine import concurrency

SRC = Path(__file__).resolve().parents[2] / "src"


def _break_lock_order(witness):
    witness.acquired("path:facts:key")
    witness.acquired("gate:facts")  # a gate under a path lock


def _regress_a_counter(witness):
    counters = CostCounters()
    counters.tuples_moved = -1
    witness.after("q", witness.before([]), counters)


def _return_boxed_elements(witness):
    witness.check_result("kernel", np.array([None], dtype=object))


#: kind -> (module, environment variable, violation class, a provocation)
WITNESSES = {
    "lock": (concurrency, "REPRO_LOCK_WITNESS",
             concurrency.LockOrderViolation, _break_lock_order),
    "cost": (cost_witness, "REPRO_COST_WITNESS",
             cost_witness.CostConformanceViolation, _regress_a_counter),
    "type": (type_witness, "REPRO_TYPE_WITNESS",
             type_witness.TypeConformanceViolation, _return_boxed_elements),
}


@pytest.fixture(params=sorted(WITNESSES))
def kind(request):
    """One witness kind, with whatever was armed before restored afterwards."""
    module = WITNESSES[request.param][0]
    previous = module._WITNESS
    try:
        yield request.param
    finally:
        module._WITNESS = previous


def _api(kind):
    module = WITNESSES[kind][0]
    return (
        getattr(module, f"enable_{kind}_witness"),
        getattr(module, f"disable_{kind}_witness"),
        getattr(module, f"{kind}_witness"),
    )


@functools.lru_cache(maxsize=None)
def armed_in_child(value):
    """Which witnesses a fresh interpreter arms with every variable = ``value``."""
    variables = {variable for _, variable, _, _ in WITNESSES.values()}
    environment = {
        key: text for key, text in os.environ.items() if key not in variables
    }
    environment["PYTHONPATH"] = str(SRC)
    if value is not None:
        environment.update(dict.fromkeys(variables, value))
    script = (
        "from repro.engine.concurrency import lock_witness\n"
        "from repro.cost.witness import cost_witness\n"
        "from repro.analysis_tools.type_witness import type_witness\n"
        "print(lock_witness() is not None, cost_witness() is not None,"
        " type_witness() is not None)\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", script], env=environment, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout.split()
    return dict(zip(("lock", "cost", "type"), (text == "True" for text in output)))


class TestArming:
    def test_enable_installs_a_fresh_witness_and_disable_restores_none(self, kind):
        enable, disable, active = _api(kind)
        first = enable()
        assert isinstance(first, Witness) and active() is first
        assert enable() is not first  # replaced, not reused
        disable()
        # the fast path every hook site tests: one module global, None
        assert active() is None and WITNESSES[kind][0]._WITNESS is None

    def test_enable_takes_no_mode(self, kind):
        enable, _disable, _active = _api(kind)
        with pytest.raises(TypeError):
            enable("log")

    @pytest.mark.parametrize("value", ["1", "true", "TRUE"])
    def test_environment_arms_it(self, kind, value):
        assert armed_in_child(value)[kind] is True

    @pytest.mark.parametrize("value", [None, "", "0", "log", "raise"])
    def test_anything_else_leaves_it_off(self, kind, value):
        assert armed_in_child(value)[kind] is False


class TestReporting:
    def test_a_violation_raises_its_own_class_and_is_listed(self, kind):
        _module, _variable, violation, provoke = WITNESSES[kind]
        enable, _disable, _active = _api(kind)
        witness = enable()
        assert witness.violations() == []
        with pytest.raises(violation) as raised:
            provoke(witness)
        assert witness.violations() == [str(raised.value)]
        # the list handed out is a copy: callers cannot edit the record
        witness.violations().clear()
        assert len(witness.violations()) == 1
