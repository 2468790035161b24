"""The benchmark's tracer wraps package functions by name; check that each name
still resolves, so deleting or renaming a traced function fails here and not
only in a traced benchmark run.  ``perfbench/tracing.py`` is loaded by path and
needs numpy only."""

import importlib.util
from pathlib import Path

import pytest

import qtricycle
import qtricycle.cli  # noqa: F401  (the tracer reads the cli module off the package)
from qtricycle import TricycleConfig, cycle_coefficients, solve_time_allocation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    names = tracing.SPANNED + tracing.COUNTED
    assert names
    for mod, fn in names:
        assert callable(getattr(getattr(qtricycle, mod), fn)), f"{mod}.{fn}"


def test_allocation_attrs_read_the_solver_result(tracing):
    result = solve_time_allocation(cycle_coefficients(TricycleConfig()), 9.0)
    attrs = tracing._allocation_attrs(result)
    assert attrs["roots"] == len(result)
    assert attrs["useful"] in (0, 1)
