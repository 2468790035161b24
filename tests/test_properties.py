"""Properties of the quenches, the branch coefficients, the allocation
solver, the closed-form curve maxima and the fixed-COP points over random
configurations (``conftest.random_config``) and cold-branch durations, and
the whole-grid solver against the per-point reference of ``oracles``.

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
    optimal_curve,
    reversible_cop,
    solve_time_allocation,
)
from oracles import checked_residual, optimal_curve_reference, solve_time_allocation_reference
from qtricycle.optimize import _cop_points, curve_maxima

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
    assert maxima.R_max >= max(r.R for r in curve.records) * (1.0 - 1e-12)
    assert maxima.chi_max >= max(r.chi for r in curve.records) * (1.0 - 1e-12)
    # every curve point is the largest cooling rate at its own COP
    tau_c, R = _cop_points(curve.coeffs, [r.psi for r in curve.records])
    assert tau_c.tolist() == pytest.approx([r.tau_c for r in curve.records], rel=1e-10)
    assert R.tolist() == pytest.approx([r.R for r in curve.records], rel=1e-10)


def _outcome(solve, coeffs, tau_c):
    """repr of the solutions, or the text of the ConvergenceError."""
    try:
        return repr(solve(coeffs, tau_c))
    except ConvergenceError as exc:
        return str(exc)


@SETTINGS
@hypothesis.given(configs)
def test_whole_grid_kernel_matches_the_per_point_reference(config):
    # from below the K > 0 bound to past the spurious pole roots
    grid = np.geomspace(1e-3, 1e12, 120)
    records, skipped = optimal_curve_reference(config, grid)
    try:
        curve = optimal_curve(config, grid)
    except ConvergenceError as exc:
        assert len(records) < 10 and exc.failed_points == skipped
    else:
        assert curve.records == records and curve.skipped == skipped
    coeffs = cycle_coefficients(config)
    for tau_c in grid[::7].tolist():
        assert _outcome(solve_time_allocation, coeffs, tau_c) == \
            _outcome(solve_time_allocation_reference, coeffs, tau_c)
