"""The benchmark's timer table still matches the program's call graph.

``perfbench/layers.py`` patches functions by name on the modules that
call them, and ``perfbench/run.py`` lists per workload the timers a
traced run must see called. A rename in ``src/`` that breaks either
would otherwise only show in a traced benchmark run. The two files are
loaded by path and only read.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


layers = _load("layers")
run = _load("run")


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _, _ in layers.TIMERS])
def test_timer_target_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_must_hit_timers_are_listed(workload):
    listed = {f"{m}.{a}" for m, a, _, _ in layers.TIMERS}
    assert set(run.WORKLOADS[workload].must_hit) <= listed
