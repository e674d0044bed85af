"""The benchmark's timer table still matches the program's call graph.

``perfbench/layers.py`` patches functions by name on the modules that
call them and reads some of their arguments by position, and
``perfbench/run.py`` lists per workload the timers a traced run must see
called. A rename or a shifted signature in ``src/`` would otherwise only
show in a traced benchmark run, or not at all: a shifted position
silently records the wrong value. The two files are loaded by path and
only read.
"""
import importlib
import importlib.util
import inspect
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


# (module, function, parameter, position) for every argument that
# perfbench/layers.py reads by position from a timed call.
LAYER_ARGS = [
    ("repro.core.trim", "_coverage_increment", "need", 5),
    ("repro.core.trim_b", "_collect_sets", "need", 5),
    ("repro.baselines.ateuc", "_rr_sets", "need", 4),
    ("repro.sampling.mrr", "sample_sets_pairs", "n_sets", 5),
    *[
        (mod, fn, param, pos)
        for mod, fn in (("repro.core.trim", "trim"), ("repro.core.trim_b", "trim_b"))
        for param, pos in (("active", 2), ("eta_i", 3), ("eps", 5))
    ],
    ("repro.core.trim_b", "trim_b", "b", 7),
]


@pytest.mark.parametrize("mod_name,fn,param,pos", LAYER_ARGS)
def test_layer_reads_argument_at_its_position(mod_name, fn, param, pos):
    params = list(inspect.signature(getattr(importlib.import_module(mod_name), fn)).parameters.values())
    assert params[pos].name == param
    assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
