"""Every name the benchmark tracer wraps resolves in the library.

``perfbench/tracing.py`` replaces the functions and methods in its ``WRAPS``
table with span-recording wrappers; a name renamed or deleted in ``src/``
would break traced benchmark runs.  The table is read from the file, with
the module map ``perfbench/run.py`` passes to the tracer.
"""

import importlib.util
from pathlib import Path

import pytest

import taskalloc
from taskalloc import constraints, core, harness, scenario, solvers

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"taskalloc": taskalloc, "core": core, "constraints": constraints,
           "solvers": solvers, "scenario": scenario, "harness": harness}


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPS


@pytest.mark.parametrize("module, path", [
    pytest.param(module, path, id=f"{module}.{path}") for module, path, _n, _k in _wraps()
])
def test_traced_name_resolves(module, path):
    owner = MODULES[module]
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
