"""The benchmark's tracer wraps package functions by name; check that each name
still resolves, so deleting or renaming a traced function fails here and not
only in a traced benchmark run.  ``perfbench/tracing.py`` is loaded by path and
needs numpy only."""

import importlib.util
from pathlib import Path

import pytest

import qtricycle
import qtricycle.cli  # noqa: F401  (the tracer reads the cli module off the package)
from qtricycle import (
    TricycleConfig,
    cycle_coefficients,
    optimal_curve,
    propagate,
    solve_time_allocation,
)
from qtricycle.cli import emit_report

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


def test_every_result_reader_reads_a_real_result(tracing):
    # a reader that no longer fits its function's result would fail only in a
    # traced benchmark run; the solver's reader is checked above
    config = TricycleConfig()
    curve = optimal_curve(config)
    report = emit_report(["a", "b"], [(1.0, "c")], {}, "csv")
    results = {
        "optimize.solve_time_allocation": solve_time_allocation(cycle_coefficients(config), 9.0),
        "optimize.optimal_curve": curve,
        "oracle.propagate": propagate(config.branch("c"), 10.0, steps=1000),
        "cli.emit_report": report,
    }
    assert set(results) == set(tracing.RESULT_ATTRS)
    attrs = {name: read(results[name]) for name, read in tracing.RESULT_ATTRS.items()}
    assert attrs["optimize.optimal_curve"] == {"skipped": len(curve.skipped)}
    assert curve.skipped  # the default grid skips points: a real count, not 0
    assert attrs["oracle.propagate"] == {"steps": 1000}
    assert attrs["cli.emit_report"] == {"bytes": len(report.encode())}
