"""Properties of the quenches, the branch coefficients, the allocation
solver, the closed-form curve maxima and the fixed-COP points over random
configurations (``conftest.random_config``) and cold-branch durations, and
the whole-grid solver against the per-point quartic reference of ``oracles``,
and the CSV emitter against its per-cell reference, on small tables and on
tables tiled past the crossover where the digit kernel takes over, with
columns given as takes among them.

Skipped where ``hypothesis`` is not installed.  Draws are derandomized, so a
run is reproducible.
"""

import math

import numpy as np
import pytest

from conftest import random_config
from qtricycle import (
    ConvergenceError,
    cycle_coefficients,
    frequency,
    max_cooling_rate,
    max_figure_of_merit,
    optimal_curve,
    reversible_cop,
    solve_time_allocation,
)
from oracles import (
    checked_residual,
    csv_report_reference,
    expand,
    optimal_curve_reference,
    principal_reference,
    record_rows,
    report_rows,
    solve_time_allocation_reference,
)
from qtricycle import cli
from qtricycle.cli import emit_report
from qtricycle.optimize import _cop_points, _cop_records, curve_maxima
from qtricycle.thermo import Take

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
configs = st.integers(0, 2 ** 32 - 1).map(lambda seed: random_config(np.random.default_rng(seed)))
tau_cs = st.floats(math.log(0.3), math.log(3000.0)).map(math.exp)  # log-uniform


@SETTINGS
@hypothesis.given(configs)
def test_quenches_keep_beta_omega_continuous(config):
    c, h, p = config.branches()
    product = 1.0
    for end, start in ((c, h), (h, p), (p, c)):
        w_end, w_start = frequency(end, 1.0), frequency(start, 0.0)
        assert w_end / end.temperature == pytest.approx(w_start / start.temperature, rel=1e-12)
        product *= w_start / w_end
    assert product == pytest.approx(1.0, rel=1e-12)


@SETTINGS
@hypothesis.given(configs)
def test_dissipation_coefficients_are_negative(config):
    assert all(sigma < 0.0 for sigma in cycle_coefficients(config).Sigma)


@SETTINGS
@hypothesis.given(configs, st.lists(tau_cs, min_size=1, max_size=5))
def test_every_root_is_physical_and_within_the_residual_contract(config, taus):
    coeffs = cycle_coefficients(config)
    psi_r = reversible_cop(config.T_c, config.T_h, config.T_p)
    for tau_c in taus:
        try:
            solutions = solve_time_allocation(coeffs, tau_c)
        except ConvergenceError:
            continue
        for sol in solutions:
            m = sol.metrics
            assert m.entropy_production >= 0.0
            if m.valid:
                assert m.psi < psi_r
            heats = (m.cold.Q, m.hot.Q, m.pump.Q)
            assert abs(m.work_residual) <= 1e-12 * max(map(abs, heats))
            assert checked_residual(coeffs, tau_c, sol.tau_h, sol.tau_p) == \
                sol.residual_constraint


@SETTINGS
@hypothesis.given(configs)
def test_closed_form_maxima_exist_with_the_curve_and_beat_it(config):
    try:
        curve = optimal_curve(config)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            curve_maxima(cycle_coefficients(config), config.alpha)
        return
    maxima = curve_maxima(curve.coeffs, config.alpha)
    assert maxima.psi_at_R_max < maxima.psi_at_chi_max
    assert maxima.R_max >= curve.records.R.max() * (1.0 - 1e-12)
    assert maxima.chi_max >= curve.records.chi.max() * (1.0 - 1e-12)
    # every curve point is the largest cooling rate at its own COP
    tau_c, tau_p, R = _cop_points(curve.coeffs, curve.records.psi)
    assert tau_c.tolist() == pytest.approx(curve.records.tau_c.tolist(), rel=1e-10)
    assert tau_p.tolist() == pytest.approx(curve.records.tau_p.tolist(), rel=1e-10)
    assert R.tolist() == pytest.approx(curve.records.R.tolist(), rel=1e-10)
    # the peak and fixed-COP records, built at their closed-form durations,
    # are the reference quartic's principal roots at their tau_c
    coeffs, alpha = curve.coeffs, config.alpha
    cop_records, skipped = _cop_records([(coeffs, alpha)], curve.records.psi[::9])
    assert not skipped
    for record in (max_cooling_rate(coeffs, alpha), max_figure_of_merit(coeffs, alpha),
                   *record_rows(cop_records)):
        reference = principal_reference(coeffs, alpha, record.tau_c)
        assert reference.tau_c == record.tau_c
        assert reference == pytest.approx(record, rel=1e-10)


@SETTINGS
@hypothesis.given(configs)
def test_whole_grid_kernel_matches_the_per_point_reference(config):
    # from below the K > 0 bound to past the quartic's spurious pole roots:
    # the same skipped tau_c, and records within 1e-10
    grid = np.geomspace(1e-3, 1e12, 120)
    records, skipped = optimal_curve_reference(config, grid)
    try:
        curve = optimal_curve(config, grid)
    except ConvergenceError as exc:
        assert len(records) < 10
        assert [t for t, _ in exc.failed_points] == [t for t, _ in skipped]
    else:
        assert [t for t, _ in curve.skipped] == [t for t, _ in skipped]
        assert curve.records.psi.size == len(records)
        for record, reference in zip(record_rows(curve.records), records):
            assert record.tau_c == reference.tau_c
            assert record == pytest.approx(reference, rel=1e-10)
    coeffs = cycle_coefficients(config)
    for tau_c in grid[::7].tolist():
        try:
            [sol] = solve_time_allocation(coeffs, tau_c)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                solve_time_allocation_reference(coeffs, tau_c)
        else:
            [reference] = solve_time_allocation_reference(coeffs, tau_c)
            assert sol.tau_p == pytest.approx(reference.tau_p, rel=1e-10)


@SETTINGS
@hypothesis.given(configs)
def test_the_quartic_has_at_most_one_root_with_positive_tau_h(config):
    """At most one root of the reference quartic above -M/K (where tau_h > 0)
    solves the stationarity constraint: the one zero crossing of x^2 F on
    (0, K/a_p), x = 1/tau_p.  This is why one bracketed root can replace the
    quartic's principal pick.  A quartic root that rounds onto the pole -M/K
    misses F and is dropped by the reference's residual check."""
    coeffs = cycle_coefficients(config)
    for tau_c in np.geomspace(1e-3, 1e12, 120).tolist():
        try:
            solutions = solve_time_allocation_reference(coeffs, tau_c)
        except ConvergenceError:
            continue
        assert len(solutions) == 1


# a small pool per column makes values repeat; the specials make 0.0 and -0.0,
# NaN, +-inf and subnormals share columns
report_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 0.1]),
    st.floats())


# str cells with NUL, non-ASCII text and the separator among them
report_text = st.text(st.one_of(st.sampled_from("\x00é☃,"), st.characters()), max_size=3)


@st.composite
def report_tables(draw, min_rows=0):
    """(columns, cells) of min_rows to 6 rows, each column of one kind of
    cell; a column of kind "array" is a float64 array, of kind "take" or
    "take_list" a take of 4 floats (an array or a list), of kind "text_take"
    a take of 4 str or mixed cells, any other a list.  A take's index is drawn,
    or is the table's first take index, the same array."""
    n_rows = draw(st.integers(min_rows, 6))
    cells, indices = [], []
    for _ in range(draw(st.integers(1, 5))):
        pool = st.sampled_from(draw(st.lists(report_floats, min_size=1, max_size=4)))
        kind = draw(st.sampled_from(["float", "float", "array", "zeros", "bool", "int",
                                     "str", "numpy", "mixed", "take", "take_list",
                                     "text_take"]))
        element = {"float": pool, "array": pool, "zeros": st.sampled_from([0.0, -0.0, 0.5]),
                   "bool": st.booleans(), "int": st.integers(),
                   "str": report_text, "numpy": pool.map(np.float64),
                   "mixed": st.one_of(pool, st.booleans(), st.integers(), report_text),
                   "take": report_floats, "take_list": report_floats,
                   "text_take": st.one_of(report_text, st.booleans(), st.integers())
                   }[kind]
        if kind in ("take", "take_list", "text_take"):
            values = draw(st.lists(element, min_size=4, max_size=4))
            if indices and draw(st.booleans()):
                index = indices[0]
            else:
                index = np.array(draw(st.lists(st.integers(0, 3), min_size=n_rows,
                                               max_size=n_rows)), dtype=np.int64)
                indices.append(index)
            cells.append(Take(np.array(values) if kind == "take" else values, index))
            continue
        column = draw(st.lists(element, min_size=n_rows, max_size=n_rows))
        cells.append(np.array(column, dtype=float) if kind == "array" else column)
    return [f"c{i}" for i in range(len(cells))], cells


def assert_matches_the_reference(columns, cells):
    """CSV of the report, its per-cell reference, and CSV and JSON of the
    report with its takes expanded, agree."""
    expanded = [expand(column) for column in cells]
    expected = csv_report_reference(columns, report_rows(cells))
    assert emit_report(columns, cells, {}, "csv") == expected
    assert emit_report(columns, expanded, {}, "csv") == expected
    assert emit_report(columns, cells, {}, "json") == emit_report(columns, expanded, {}, "json")


@hypothesis.settings(SETTINGS, max_examples=300)
@hypothesis.given(report_tables())
def test_csv_report_matches_the_per_cell_reference(table):
    assert_matches_the_reference(*table)


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(report_tables(min_rows=1), st.integers(0, 5))
def test_a_report_tiled_past_the_crossover_matches_the_reference(table, offset):
    # each column repeated until it holds the crossover's count of cells, so a
    # report with a column of floats takes the kernel; a take's index is
    # repeated, once for each distinct index, so shared indices stay shared
    columns, cells = table
    picked = slice(offset, offset + cli._KERNEL_MIN_FLOATS + len(expand(cells[0])))
    tiled = {}
    for column in cells:
        if isinstance(column, Take) and id(column.index) not in tiled:
            tiled[id(column.index)] = np.tile(column.index, cli._KERNEL_MIN_FLOATS)[picked]
    cells = [Take(column.values, tiled[id(column.index)]) if isinstance(column, Take)
             else np.tile(column, cli._KERNEL_MIN_FLOATS)[picked]
             if isinstance(column, np.ndarray)
             else (column * cli._KERNEL_MIN_FLOATS)[picked] for column in cells]
    assert_matches_the_reference(columns, cells)
