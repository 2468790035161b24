import dataclasses
import inspect
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_config
from oracles import (
    checked_residual,
    fixed_cop_times,
    optimal_curve_reference,
    profile_shape_warnings_reference,
    rate_peak_reference,
    record_rows,
    solve_time_allocation_reference,
    stationarity_brackets,
    stationarity_quartic,
)
from qtricycle import (
    ConvergenceError,
    TricycleConfig,
    alpha_sweep,
    balanced_tau_h,
    cycle_coefficients,
    envelope_curve,
    evaluate_cycle,
    free_time_sweep,
    max_cooling_rate,
    max_figure_of_merit,
    optimal_curve,
    reversible_cop,
    solve_time_allocation,
    time_allocation_profile,
)
from qtricycle import optimize
from qtricycle.cycle import CycleCoefficients
from qtricycle.optimize import (
    _branch_terms,
    _cop_points,
    _cop_range,
    _energy_balance,
    _line_constraint,
    _peak,
    _residual,
    _stationarity_terms,
    _stationary_tau_p,
    curve_maxima,
)


@pytest.fixture(scope="module")
def config():
    return TricycleConfig()


@pytest.fixture(scope="module")
def coeffs(config):
    return cycle_coefficients(config)


@pytest.fixture(scope="module")
def curve(config):
    return optimal_curve(config)


class TestBalancedTauH:
    def test_closes_energy_balance(self, coeffs):
        tau_h = balanced_tau_h(coeffs, 9.0, 11.0)
        m = evaluate_cycle(coeffs, 9.0, tau_h, 11.0)
        assert abs(m.work_residual) < 1e-12 * abs(m.cold.Q)

    def test_infeasible_below_reversible_amplitude(self):
        cfg = TricycleConfig(delta_c=0.3)  # below the reversible amplitude
        with pytest.raises(ValueError):
            balanced_tau_h(cycle_coefficients(cfg), 1e6, 1e6)


class TestSolveTimeAllocation:
    def test_residuals_within_contract(self, coeffs):
        for tau_c in (2.0, 9.0, 50.0, 400.0):
            sols = solve_time_allocation(coeffs, tau_c)
            assert all(s.tau_h > 0 and s.tau_p > 0 for s in sols)
            rates = [s.metrics.R for s in sols]
            assert rates == sorted(rates, reverse=True)
            for sol in sols:
                total = sol.tau_c + sol.tau_h + sol.tau_p
                assert abs(sol.residual_constraint) < 1e-8 * total
                assert abs(sol.metrics.work_residual) < 1e-8 * abs(sol.metrics.cold.Q)

    def test_first_order_stationarity_on_constraint_surface(self, coeffs):
        # move along the fixed-COP, zero-work family and confirm R cannot gain
        sol = solve_time_allocation(coeffs, 9.0)[0]
        R0, psi0 = sol.metrics.R, sol.metrics.psi
        for eps in (-1e-4, 1e-4):
            tau_c = sol.tau_c * (1.0 + eps)
            times = fixed_cop_times(coeffs, psi0, tau_c)
            assert times is not None
            tau_h, tau_p = times
            m = evaluate_cycle(coeffs, tau_c, tau_h, tau_p)
            assert m.psi == pytest.approx(psi0, rel=1e-12)
            assert abs(m.work_residual) < 1e-12
            assert m.R <= R0 * (1.0 + 1e-6)

    def test_sign_structure_asserted(self, coeffs):
        broken = CycleCoefficients(T=coeffs.T, dS=coeffs.dS,
                                   Sigma=(coeffs.Sigma[0], -coeffs.Sigma[1], coeffs.Sigma[2]))
        with pytest.raises(ConvergenceError):
            solve_time_allocation(broken, 9.0)

    def test_infeasible_amplitude_reported(self):
        cfg = TricycleConfig(delta_c=0.3)
        with pytest.raises(ConvergenceError):
            solve_time_allocation(cycle_coefficients(cfg), 9.0)

    def test_infeasibility_reason_names_the_short_cold_branch(self, config, coeffs):
        # K = sum_v T_v dS_v + T_c Sigma_c / tau_c: the default delta_c is above
        # the reversible amplitude, so K <= 0 only below a cold-branch threshold
        zeroth = sum(T * dS for T, dS in zip(coeffs.T, coeffs.dS))
        threshold = coeffs.T[0] * abs(coeffs.Sigma[0]) / zeroth
        assert zeroth > 0.0 and threshold == pytest.approx(0.6072, abs=1e-4)
        with pytest.raises(ConvergenceError) as info:
            solve_time_allocation(coeffs, 0.3)
        assert str(info.value) == (
            f"energy balance infeasible for every tau_p at tau_c=0.3 (tau_c must exceed "
            f"T_c|Sigma_c| / sum_v T_v dS_v = {threshold:.6g})")
        with pytest.raises(ConvergenceError, match="tau_c must exceed"):
            solve_time_allocation(coeffs, threshold * (1.0 - 1e-6))
        try:
            solve_time_allocation(coeffs, threshold * (1.0 + 1e-6))
        except ConvergenceError as exc:
            assert "infeasible" not in str(exc)
        # of the default curve's 20 skipped points, the 10 below it say so; the
        # others have K > 0 but an allocation that does not refrigerate
        skipped = optimal_curve(config).skipped
        below = [tau_c for tau_c, _ in skipped if tau_c < threshold]
        assert len(skipped) == 20 and len(below) == 10
        for tau_c, reason in skipped:
            assert ("tau_c must exceed" in reason) == (tau_c < threshold)

    def test_infeasibility_reason_names_the_amplitude(self):
        coeffs = cycle_coefficients(TricycleConfig(delta_c=0.3))
        assert sum(T * dS for T, dS in zip(coeffs.T, coeffs.dS)) < 0.0
        for tau_c in (0.3, 9.0, 1e6):
            with pytest.raises(ConvergenceError) as info:
                solve_time_allocation(coeffs, tau_c)
            assert str(info.value) == (
                f"energy balance infeasible for every tau_p at tau_c={tau_c} "
                f"(delta_c at or below the reversible amplitude)")

    def test_deterministic(self, coeffs):
        a = solve_time_allocation(coeffs, 9.0)
        b = solve_time_allocation(coeffs, 9.0)
        assert a == b


class TestResidualContract:
    """|F| is judged against the summed magnitudes of its own terms."""

    @pytest.fixture(scope="class")
    def large_tau_coeffs(self):
        # draw 205 of the conftest seed: at tau_c = 50 its root tau_p = 61056.2
        # is accurate to 5.7e-15, yet F's terms are about 2e9 and |F| = 0.083
        rng = np.random.default_rng(20240817)
        for _ in range(205):
            random_config(rng)
        return cycle_coefficients(random_config(rng))

    def test_accurate_root_at_large_tau_accepted(self, large_tau_coeffs):
        sols = solve_time_allocation(large_tau_coeffs, 50.0)
        big = [sol for sol in sols if sol.tau_p > 1e4]
        assert len(big) == 1 and big[0].tau_p == pytest.approx(61056.2, rel=1e-6)
        assert any(a <= big[0].tau_p <= b
                   for a, b in stationarity_brackets(large_tau_coeffs, 50.0))

    def test_root_perturbed_by_1e_10_rejected(self, coeffs, large_tau_coeffs):
        # by the reference check and by the kernel's own mask
        for co, tau_c in ((coeffs, 9.0), (large_tau_coeffs, 50.0)):
            for sol in solve_time_allocation(co, tau_c):
                assert checked_residual(co, tau_c, sol.tau_h, sol.tau_p) == \
                    sol.residual_constraint
                residual, _, missed = _residual(co, tau_c, sol.tau_h, sol.tau_p)
                assert residual == sol.residual_constraint and not missed
                for rel in (1e-10, -1e-10):
                    tau_p = sol.tau_p * (1.0 + rel)
                    tau_h, _ = _energy_balance(co, tau_c, tau_p)
                    with pytest.raises(ConvergenceError, match="residual"):
                        checked_residual(co, tau_c, tau_h, tau_p)
                    assert _residual(co, tau_c, tau_h, tau_p)[2]

    def test_spurious_pole_root_drops_only_itself(self, coeffs):
        # above tau_c ~ 6e7 the reference quartic has a root just above the
        # pole -M/K of the balanced tau_h that does not solve F = 0 at all; the
        # line form divides nothing out, so it finds only the valid root
        tau_c = np.geomspace(6e7, 1e9, 60)
        tau_p, reasons = _stationary_tau_p(coeffs, tau_c)
        assert reasons == [None] * tau_c.size
        misses = []
        for t, p in zip(tau_c.tolist(), tau_p.tolist()):
            [sol] = solve_time_allocation(coeffs, t)
            [reference] = solve_time_allocation_reference(coeffs, t)
            assert sol.tau_p == p == pytest.approx(reference.tau_p, rel=1e-10)
            misses += _dropped_root_misses(coeffs, t, [reference.tau_p])
        assert misses and min(misses) >= 1e-3  # spurious, not near-misses

    @pytest.mark.parametrize("k, record", [(0, max_cooling_rate), (1, max_figure_of_merit)])
    def test_gate_rejects_a_perturbed_peak(self, config, coeffs, monkeypatch, k, record):
        # the maxima are built from their own Newton run, not from a quartic
        # root, yet a tau_p off by 1e-6 still fails the stationarity check
        tau_c, tau_p = _peak(coeffs, k)
        monkeypatch.setattr(optimize, "_peak", lambda co, k: (tau_c, tau_p * (1.0 + 1e-6)))
        with pytest.raises(ConvergenceError,
                           match=f"stationarity residual .* too large at tau_c={tau_c} "):
            record(coeffs, config.alpha)

    def test_gate_skips_a_perturbed_fixed_cop_point(self, config, monkeypatch):
        original = optimize._cop_points

        def perturbed(co, psi):  # the first COP's tau_p off by 1e-6
            tau_c, tau_p, R = original(co, psi)
            tau_p[0] *= 1.0 + 1e-6
            return tau_c, tau_p, R

        monkeypatch.setattr(optimize, "_cop_points", perturbed)
        psi_grid = np.linspace(0.06, 0.16, 9)
        result = envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5), psi_grid=psi_grid)
        [(psi, reason)] = result.skipped
        assert psi == psi_grid[0] and reason.startswith("stationarity residual")
        assert result.records.psi.tolist() == pytest.approx(psi_grid[1:].tolist(), rel=1e-12)
        with pytest.raises(ConvergenceError) as err:
            time_allocation_profile(cycle_coefficients(config), config.alpha, psi_grid)
        [(psi, reason)] = err.value.failed_points
        assert psi == psi_grid[0] and reason.startswith("stationarity residual")


def _solved_cases(coeffs, rng, draws=24):
    """(coeffs, tau_c, solutions of the reference quartic) for the default
    config and random draws; no solutions where it reports none."""
    cases = [(coeffs, tau_c) for tau_c in (2.0, 9.0, 50.0, 400.0)]
    for _ in range(draws):
        co = cycle_coefficients(random_config(rng))
        cases += [(co, tau_c) for tau_c in (2.0, 9.0, 50.0, 400.0)]
    for co, tau_c in cases:
        try:
            yield co, tau_c, solve_time_allocation_reference(co, tau_c)
        except ConvergenceError:
            yield co, tau_c, []


class TestStationarityQuartic:
    """The reference quartic's roots against independent references."""

    def test_roots_match_high_precision(self, coeffs, rng):
        mp = pytest.importorskip("mpmath")
        checked = 0
        for co, tau_c, sols in _solved_cases(coeffs, rng):
            with mp.workdps(50):
                (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = (
                    [mp.mpf(x) for x in group] for group in (co.T, co.dS, co.Sigma))
                tc = mp.mpf(tau_c)

                def F(tp):
                    tau_h = -T_h * S_h / (T_p * (dS_p + S_p / tp)
                                          + T_c * (dS_c + S_c / tc) + T_h * dS_h)
                    return (dS_h * tau_h ** 2 / S_h + dS_p * tp ** 2 / S_p
                            + dS_c * tc ** 2 / S_c + 2 * (tc + tau_h + tp))

                for sol in sols:
                    exact = mp.findroot(F, mp.mpf(sol.tau_p))
                    assert abs(sol.tau_p - exact) <= 1e-14 * exact
                    checked += 1
        assert checked >= 20

    def test_newton_step_matches_numpy_polyval(self, coeffs, rng):
        # the solver polishes in plain floats; numpy's Horner is the reference
        checked = 0
        for co, tau_c, sols in _solved_cases(coeffs, rng):
            if not sols:
                continue
            K, M, poly = stationarity_quartic(co, tau_c)
            roots = np.roots(poly)
            roots = roots[roots.imag == 0.0].real
            roots -= np.polyval(poly, roots) / np.polyval(np.polyder(poly), roots)
            assert sorted(sol.tau_p for sol in sols) == np.sort(roots[roots > -M / K]).tolist()
            checked += 1
        assert checked >= 20

    def test_roots_are_the_sign_changes_of_a_dense_scan(self, coeffs, rng):
        checked = 0
        for co, tau_c, sols in _solved_cases(coeffs, rng):
            brackets = stationarity_brackets(co, tau_c)
            roots = sorted(sol.tau_p for sol in sols)
            assert len(roots) == len(brackets)
            for tau_p, (a, b) in zip(roots, brackets):
                assert a <= tau_p <= b
            checked += bool(roots)
        assert checked >= 20

    def test_coefficients_match_symbolic_expansion(self):
        sp = pytest.importorskip("sympy")
        T_c, T_h, T_p, tau_c, tau_p = sp.symbols("T_c T_h T_p tau_c tau_p", positive=True)
        dS_c, dS_h, dS_p, S_c, S_h, S_p = sp.symbols("dS_c dS_h dS_p S_c S_h S_p")
        symbolic = CycleCoefficients(T=(T_c, T_h, T_p), dS=(dS_c, dS_h, dS_p),
                                     Sigma=(S_c, S_h, S_p))
        # the energy balance and the stationarity constraint, written out afresh
        denom = T_p * (dS_p + S_p / tau_p) + T_c * (dS_c + S_c / tau_c) + T_h * dS_h
        tau_h = -T_h * S_h / denom
        F = (dS_h * tau_h ** 2 / S_h + dS_p * tau_p ** 2 / S_p + dS_c * tau_c ** 2 / S_c
             + 2 * (tau_c + tau_h + tau_p))
        expected = sp.Poly(sp.cancel(F * sp.expand(denom * tau_p) ** 2), tau_p).all_coeffs()
        K, M, poly = stationarity_quartic(symbolic, tau_c)
        assert sp.expand(K * tau_p + M - denom * tau_p) == 0
        assert len(expected) == len(poly) == 5
        for want, got in zip(expected, poly):
            assert sp.cancel(want - got) == 0


class TestOptimalCurve:
    def test_sorted_and_bounded_by_reversible_cop(self, config, curve):
        psis = curve.records.psi.tolist()
        assert psis == sorted(psis)
        psi_r = reversible_cop(config.T_c, config.T_h, config.T_p)
        assert all(0.0 < p < psi_r for p in psis)
        assert all(r.chi == pytest.approx(r.psi * r.R, rel=1e-12)
                   for r in record_rows(curve.records))

    def test_cop_monotone_in_cold_duration(self, curve):
        by_tau = sorted(record_rows(curve.records), key=lambda r: r.tau_c)
        psis = [r.psi for r in by_tau]
        assert all(b > a for a, b in zip(psis, psis[1:]))

    def test_single_humped_cooling_rate(self, curve):
        rates = curve.records.R
        peak = int(np.argmax(rates))
        assert 0 < peak < len(rates) - 1
        assert np.all(np.diff(rates[:peak + 1]) > 0)
        assert np.all(np.diff(rates[peak:]) < 0)

    def test_skips_counted(self, config):
        # grid extending into the non-refrigerating small-tau_c region
        grid = np.geomspace(0.05, 3000.0, 120)
        result = optimal_curve(config, tau_c_grid=grid)
        assert result.skipped
        assert result.records.psi.size + len(result.skipped) == 120

    def test_grid_validation(self, config):
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.geomspace(1, 100, 50))
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.linspace(-1, 100, 120))

    def test_deterministic(self, config, curve):
        again = optimal_curve(config)
        assert record_rows(again.records) == record_rows(curve.records)


class TestObjectiveMaxima:
    def test_refinement_dominates_grid(self, config, coeffs, curve):
        rec = max_cooling_rate(coeffs, config.alpha)
        R_max = rec.R
        assert R_max >= curve.records.R.max()
        # the record is the closed-form peak; the quartic's root at its tau_c agrees
        sol = solve_time_allocation(coeffs, rec.tau_c)[0]
        assert [sol.metrics.psi, sol.metrics.chi, sol.tau_h, sol.tau_p] == \
            pytest.approx([rec.psi, rec.chi, rec.tau_h, rec.tau_p], rel=1e-10)
        assert sol.metrics.R == pytest.approx(R_max, rel=1e-12)
        total = sol.tau_c + sol.tau_h + sol.tau_p
        assert abs(sol.residual_constraint) < 1e-8 * total
        assert abs(sol.metrics.work_residual) < 1e-8 * abs(sol.metrics.cold.Q)

    def test_figure_of_merit_peak_sits_right_of_rate_peak(self, config, coeffs):
        at_R = max_cooling_rate(coeffs, config.alpha)
        at_chi = max_figure_of_merit(coeffs, config.alpha)
        assert at_chi.psi > at_R.psi
        assert at_chi.chi >= solve_time_allocation(coeffs, at_R.tau_c)[0].metrics.chi

    def test_maxima_solve_no_quartic(self, config, coeffs, monkeypatch):
        # the maxima are built at the closed-form peaks' own durations: no
        # tau_p root, no one-point solve and no curve
        built = []
        for name in ("_stationary_tau_p", "solve_time_allocation", "optimal_curve"):
            monkeypatch.setattr(optimize, name, lambda *args: built.append(args))
        record = curve_maxima(coeffs, config.alpha)
        assert built == []
        at_R = max_cooling_rate(coeffs, config.alpha)
        at_chi = max_figure_of_merit(coeffs, config.alpha)
        assert record == (config.alpha, at_R.R, at_chi.chi, at_R.psi, at_chi.psi)

    def test_local_stationarity_of_refined_peak(self, config, coeffs):
        rec = max_cooling_rate(coeffs, config.alpha)
        for factor in (0.99, 1.01):
            neighbour = solve_time_allocation(coeffs, rec.tau_c * factor)[0]
            assert neighbour.metrics.R <= rec.R * (1.0 + 1e-9)


# delta_c, gamma0 and alpha of the four standard report configs
STANDARD_CONFIGS = [TricycleConfig(), TricycleConfig(delta_c=0.62, gamma0=1.2, alpha=0.7),
                    TricycleConfig(delta_c=0.75, gamma0=1.45, alpha=-0.3),
                    TricycleConfig(delta_c=0.55, gamma0=1.05, alpha=1.3)]


def _quartic_roots(coeffs, tau_c):
    """The reference quartic's real roots above -M/K at tau_c (tau_h > 0 in
    exact arithmetic), after one Newton step."""
    K, M, poly = stationarity_quartic(coeffs, tau_c)
    roots = np.roots(poly)
    roots = roots[roots.imag == 0.0].real
    roots -= np.polyval(poly, roots) / np.polyval(np.polyder(poly), roots)
    return roots[roots > -M / K].tolist()


def _dropped_root_misses(coeffs, tau_c, kept):
    """|F| / sum |terms| of each of :func:`_quartic_roots` at tau_c that is not
    among ``kept`` (NaN where its balanced tau_h is)."""
    misses = []
    for p in _quartic_roots(coeffs, tau_c):
        if p not in kept:
            h = float(_energy_balance(coeffs, tau_c, p)[0])
            terms = _stationarity_terms(coeffs, tau_c, h, p)
            misses.append(abs(sum(terms)) / sum(map(abs, terms)))
    return misses


def _matches_reference(config, grid):
    """The curve's skipped ``(tau_c, reason)`` pairs on ``grid``, after checking
    that the per-point quartic reference skips the same tau_c and that each
    record is within 1e-10 of the reference's principal record."""
    records, skipped = optimal_curve_reference(config, grid)
    try:
        curve = optimal_curve(config, tau_c_grid=grid)
    except ConvergenceError as exc:  # fewer than 10 points survive
        assert len(records) < 10
        assert [t for t, _ in exc.failed_points] == [t for t, _ in skipped]
        return exc.failed_points
    assert [t for t, _ in curve.skipped] == [t for t, _ in skipped]
    assert curve.records.psi.size == len(records)
    for record, reference in zip(record_rows(curve.records), records):
        assert record.tau_c == reference.tau_c
        assert record == pytest.approx(reference, rel=1e-10)
    return curve.skipped


class TestWholeGridKernel:
    """One root call solves a whole tau_c grid; it skips the tau_c that the
    per-point quartic reference skips, and its records agree with the
    reference's to 1e-10."""

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_standard_configs_on_the_default_grid(self, config):
        grid = np.geomspace(*optimize.DEFAULT_TAU_C_RANGE)
        skipped = _matches_reference(config, grid)
        assert skipped == optimal_curve_reference(config, grid)[1]  # the reasons too

    def test_wide_grid(self, config, coeffs):
        grid = np.geomspace(1e-3, 1e9, 200)
        reasons = [why for _, why in _matches_reference(config, grid)]
        assert any("tau_c must exceed" in why for why in reasons)  # K <= 0
        assert any("does not refrigerate" in why for why in reasons)
        # above tau_c ~ 6e7 the quartic has a spurious pole root at 8 of the
        # grid's points; the line form never sees one
        far = grid[grid > 6e7]
        misses = []
        for t, p in zip(far.tolist(), _stationary_tau_p(coeffs, far)[0].tolist()):
            [reference] = solve_time_allocation_reference(coeffs, t)
            assert p == pytest.approx(reference.tau_p, rel=1e-10)
            misses.append(_dropped_root_misses(coeffs, t, [reference.tau_p]))
        assert sum(map(bool, misses)) == 8 and min(map(min, filter(None, misses))) >= 1e-3

    def test_overflowing_coefficients(self, config):
        # the reference skips the points where its quartic's coefficients
        # overflow or its Newton update is not finite; the line form works in
        # the rates a_v/tau_v, which stay finite out to tau_c = 1e200, so it
        # skips only tau_c = 0.3, where K = Z - a_c/tau_c <= 0
        grid = np.geomspace(0.3, 1e200, 120)
        records, skipped = optimal_curve_reference(config, grid)
        curve = optimal_curve(config, tau_c_grid=grid)
        assert len(records) == 49 and curve.records.psi.size == 119
        [(tau_c, why)] = curve.skipped
        assert tau_c == 0.3 and "(tau_c must exceed" in why
        assert {t for t, _ in curve.skipped} < {t for t, _ in skipped}
        assert any("coefficients overflow" in why for _, why in skipped)
        solved = {record.tau_c: record for record in record_rows(curve.records)}
        for reference in records:
            assert solved[reference.tau_c] == pytest.approx(reference, rel=1e-10)

    def test_vanishing_constant_term(self, config, coeffs):
        # c0 M^2 is exactly 0 here, so np.roots trims it and returns a cubic's
        # roots and 0; the line form has no such case and agrees
        tau_c = 2.818507017942862
        poly = stationarity_quartic(coeffs, tau_c)[2]
        assert poly[4] == 0.0 and np.roots(poly).size == 4
        grid = np.geomspace(*optimize.DEFAULT_TAU_C_RANGE)
        grid[np.searchsorted(grid, tau_c)] = tau_c
        _matches_reference(config, grid)
        [sol], [reference] = (solve(coeffs, tau_c) for solve in (
            solve_time_allocation, solve_time_allocation_reference))
        assert sol.tau_p == pytest.approx(reference.tau_p, rel=1e-10)

    def test_pole_roots_with_nan_tau_h(self, rng):
        # at 3 of these tau_c one of the reference quartic's roots sits so close
        # to the pole that the balanced tau_h's denominator rounds to <= 0, so
        # its tau_h is NaN; the line form's root there is the valid one
        for _ in range(18):
            random_config(rng)
        config = random_config(rng)
        coeffs = cycle_coefficients(config)
        grid = np.geomspace(1e9, 1e13, 200)
        pole = [t for t in grid.tolist() if any(
            math.isnan(_energy_balance(coeffs, t, p)[0]) for p in _quartic_roots(coeffs, t))]
        assert len(pole) == 3
        skipped = dict(_matches_reference(config, grid))
        assert not any(t in skipped for t in pole)
        tau_p, reasons = _stationary_tau_p(coeffs, np.array(pole))
        assert reasons == [None] * 3
        for t, p in zip(pole, tau_p.tolist()):
            [reference] = solve_time_allocation_reference(coeffs, t)
            assert p == pytest.approx(reference.tau_p, rel=1e-10)

    def test_rows_keep_pythons_pow(self, coeffs):
        # the reference squares a float by Python's pow and an array by numpy's
        # x * x, which differ in the last bit now and then; where that moves a
        # quartic row, the line form still agrees with the per-point reference
        tau_c = np.geomspace(0.7, 3000.0, 20000)
        python_rows = np.array([stationarity_quartic(coeffs, t)[2] for t in tau_c.tolist()])
        numpy_rows = np.array(stationarity_quartic(coeffs, tau_c)[2]).T
        moved = tau_c[(numpy_rows != python_rows).any(1)]
        assert moved.size > 20
        tau_p, reasons = _stationary_tau_p(coeffs, moved)
        assert reasons == [None] * moved.size
        for t, p in zip(moved.tolist(), tau_p.tolist()):
            [reference] = solve_time_allocation_reference(coeffs, t)
            assert p == pytest.approx(reference.tau_p, rel=1e-10)

    def test_one_kernel_call_and_no_per_point_solve(self, config, monkeypatch):
        kernel, per_point = [], []
        original = optimize._stationary_tau_p

        def counting(co, tau_c):
            kernel.append(tau_c.shape)
            return original(co, tau_c)

        monkeypatch.setattr(optimize, "_stationary_tau_p", counting)
        monkeypatch.setattr(optimize, "solve_time_allocation",
                            lambda *args: per_point.append(args))
        for module, name in ((np, "roots"), (np.linalg, "eigvals"), (np.linalg, "solve")):
            monkeypatch.setattr(module, name, lambda *args: per_point.append(args))
        curve = optimal_curve(config)
        assert kernel == [(120,)] and per_point == [] and curve.records.psi.size == 100

    def test_only_the_curve_solves_the_quartic(self, config, coeffs, monkeypatch):
        # the maxima, the alpha sweep, the envelope and the profile are built
        # at closed-form durations; only the curve needs a tau_p root
        kernel = []
        original = optimize._stationary_tau_p

        def counting(co, tau_c):
            kernel.append(tau_c.shape)
            return original(co, tau_c)

        monkeypatch.setattr(optimize, "_stationary_tau_p", counting)
        curve_maxima(coeffs, config.alpha)
        alpha_sweep(config)
        envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5))
        time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        assert kernel == []
        optimal_curve(config)
        assert kernel == [(120,)]


class TestLineRoot:
    """The root of the line form against a 50-digit reference, its derivative
    against sympy, and its failure reasons."""

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_roots_match_high_precision(self, config, mp):
        # within 4e-15 on the curve's records; a root that the curve skips as
        # not refrigerating can sit where K = Z - a_c/tau_c nearly cancels,
        # which amplifies K's rounding: 1.06e-14 at c1's tau_c = 0.324 (the
        # reference quartic's root there is 2.4e-14 off).  The third grid
        # reaches tau_c = 1e200, where the durations' squares leave the float
        # range; the reference root is taken in ln tau_p at 80 digits.
        coeffs = cycle_coefficients(config)
        (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = (
            [mp.mpf(v) for v in group] for group in (coeffs.T, coeffs.dS, coeffs.Sigma))
        checked = []
        for grid in (np.geomspace(*optimize.DEFAULT_TAU_C_RANGE), np.geomspace(1e-3, 1e12, 120),
                     np.geomspace(0.3, 1e200, 120)):
            checked.append(0)
            tau_p, reasons = _stationary_tau_p(coeffs, grid)
            _, kept = optimize._records(coeffs, config.alpha, grid, tau_p, list(reasons))
            for t, p, why, record_reason in zip(grid.tolist(), tau_p.tolist(), reasons, kept):
                if why is not None:
                    continue
                tc = mp.mpf(t)

                def F(s):  # the constraint at tau_p = e^s, tau_h balanced, over
                    tp = mp.exp(s)  # its summed term magnitudes (no term changes sign)
                    tau_h = -T_h * S_h / (T_p * (dS_p + S_p / tp)
                                          + T_c * (dS_c + S_c / tc) + T_h * dS_h)
                    terms = (dS_h * tau_h ** 2 / S_h, dS_p * tp ** 2 / S_p,
                             dS_c * tc ** 2 / S_c, 2 * (tc + tau_h + tp))
                    return mp.fsum(terms) / mp.fsum(map(abs, terms))

                with mp.workdps(80):
                    exact = mp.exp(mp.findroot(F, mp.log(p)))
                assert abs(p - exact) <= (2e-14 if record_reason else 4e-15) * exact, (t, p)
                checked[-1] += record_reason is None
        assert sum(checked) >= 300 and checked[-1] == 119  # all but tau_c = 0.3 (K <= 0)

    def test_slope_is_the_derivative(self):
        sp = pytest.importorskip("sympy")
        T_c, T_h, T_p, tau_c, y = sp.symbols("T_c T_h T_p tau_c y", positive=True)
        dS_c, dS_h, dS_p, S_c, S_h, S_p = sp.symbols("dS_c dS_h dS_p S_c S_h S_p")
        symbolic = CycleCoefficients(T=(T_c, T_h, T_p), dS=(dS_c, dS_h, dS_p),
                                     Sigma=(S_c, S_h, S_p))
        a_p = -T_p * S_p
        g, slope = _line_constraint(symbolic, -T_c * S_c / tau_c)(y)
        # the balanced tau_h and the stationarity constraint, written out afresh
        # in the durations, at tau_p = a_p/y
        tau_p = a_p / y
        tau_h = -T_h * S_h / (T_p * (dS_p + S_p / tau_p) + T_c * (dS_c + S_c / tau_c)
                              + T_h * dS_h)
        F = (dS_h * tau_h ** 2 / S_h + dS_p * tau_p ** 2 / S_p + dS_c * tau_c ** 2 / S_c
             + 2 * (tau_c + tau_h + tau_p))
        assert sp.simplify(g - y ** 2 * F / a_p) == 0
        assert sp.simplify(slope - sp.diff(y ** 2 * F / a_p, y)) == 0

    def test_unconverged_rows_name_the_steps(self, coeffs, monkeypatch):
        monkeypatch.setattr(optimize, "_NEWTON_MAXITER", 2)
        grid = np.geomspace(*optimize.DEFAULT_TAU_C_RANGE)
        tau_p, reasons = _stationary_tau_p(coeffs, grid)
        unconverged = [(t, p, why) for t, p, why in zip(grid.tolist(), tau_p.tolist(), reasons)
                       if why and "tau_c must exceed" not in why]
        assert len(unconverged) > 50
        for t, p, why in unconverged:
            assert math.isnan(p) and why == f"stationary tau_p not found in 2 steps at tau_c={t}"
        with pytest.raises(ConvergenceError, match="not found in 2 steps at tau_c=9.0$"):
            solve_time_allocation(coeffs, 9.0)


def loop_values(fn, marker, names, *args):
    """(fn(*args), the ``names`` of fn's locals each time the line of its
    source that starts with ``marker`` runs): a loop's own values, read from
    its frame."""
    lines, first = inspect.getsourcelines(fn)
    lineno = first + next(i for i, line in enumerate(lines) if line.strip().startswith(marker))
    seen = []

    def trace(frame, event, arg):
        if event == "line" and frame.f_lineno == lineno:
            seen.append(tuple(frame.f_locals[name] for name in names))
        return trace

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace if frame.f_code is fn.__code__ else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, seen


class TestClosedFormMaxima:
    """The R and chi peaks (one damped Newton, k = 0 and 1) against references."""

    def test_merit_step_is_the_gradient_and_hessian(self):
        sp = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        A, Z, H, rho_h, rho_p, u, v, k = sp.symbols("A Z H rho_h rho_p u v k", positive=True)
        # ln(psi^k R) in the rates (u, v) = (a_c/tau_c, a_p/tau_p), less ln a_c
        log_objective = ((1 + k) * sp.log(A - u) - k * sp.log(H - Z + u + v)
                         - sp.log(1 / u + rho_p / v + rho_h / (Z - u - v)))
        grad = [sp.diff(log_objective, x) for x in (u, v)]
        hess = [sp.diff(log_objective, u, u), sp.diff(log_objective, u, v),
                sp.diff(log_objective, v, v)]
        exact = sp.lambdify((A, Z, H, rho_h, rho_p, k, u, v), (*grad, *hess), "mpmath")
        names = ("u", "v", "g_u", "g_v", "h_uu", "h_uv", "h_vv")
        for config in STANDARD_CONFIGS:
            coeffs = cycle_coefficients(config)
            A_, Z_, H_, (ac, ah, ap) = _branch_terms(coeffs)
            for k_ in (0, 1):
                peak, seen = loop_values(_peak, "det =", names, coeffs, k_)
                assert len(seen) >= 3 and peak == _peak(coeffs, k_)
                for u_, v_, *values in seen:
                    with mpmath.workdps(40):
                        reference = exact(*map(mpmath.mpf,
                                               (A_, Z_, H_, ah / ac, ap / ac, k_, u_, v_)))
                    w_ = Z_ - u_ - v_
                    scale = 1.0 / u_ + 1.0 / v_ + 1.0 / w_ + 1.0 / (A_ - u_) + 1.0 / (H_ - w_)
                    powers = (scale,) * 2 + (scale * scale,) * 3
                    for value, ref, size in zip(values, reference, powers):
                        assert abs(value - float(ref)) <= 1e-13 * size, (value, ref)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_rate_peak_matches_the_cubic_reference(self, config):
        coeffs = cycle_coefficients(config)
        assert _peak(coeffs, 0) == pytest.approx(rate_peak_reference(coeffs), rel=4e-15)

    def test_rate_peak_matches_the_cubic_reference_on_random_draws(self, rng):
        peaks = 0
        for _ in range(1000):
            coeffs = cycle_coefficients(random_config(rng))
            new, why = optimize._attempt(_peak, coeffs, 0)
            old, old_why = optimize._attempt(rate_peak_reference, coeffs)
            assert (new is None) == (old is None), (why, old_why)
            if new is not None:
                peaks += 1
                assert new == pytest.approx(old, rel=4e-15)
        assert peaks > 200

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    @pytest.mark.parametrize("k", [1e-150, 1e-100, 1e100, 1e150])
    def test_peaks_only_rescale_with_gamma0(self, config, k):
        # Sigma and so every a_v scale as 1/gamma0; the rates y_v = a_v/tau_v do not
        base, scaled = (cycle_coefficients(replace(config, gamma0=config.gamma0 * f))
                        for f in (1.0, k))
        for objective in (0, 1):
            assert [t * k for t in _peak(scaled, objective)] == pytest.approx(
                _peak(base, objective), rel=1e-13)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_maxima_match_brute_force_maximization(self, config):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        coeffs = cycle_coefficients(config)

        def minus_log(x, key):  # over (ln tau_c, ln tau_p), tau_h balanced
            tau_c, tau_p = np.exp(x).tolist()
            tau_h = float(_energy_balance(coeffs, tau_c, tau_p)[0])
            if not tau_h > 0.0:
                return math.inf
            value = getattr(evaluate_cycle(coeffs, tau_c, tau_h, tau_p), key)
            return -math.log(value) if value > 0.0 else math.inf

        for key, peak in (("R", max_cooling_rate), ("chi", max_figure_of_merit)):
            record = peak(coeffs, config.alpha)
            res = scipy_optimize.minimize(
                minus_log, [math.log(10.0), math.log(10.0)], args=(key,),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 20000, "maxfev": 40000})
            assert res.success
            assert math.exp(res.x[0]) == pytest.approx(record.tau_c, rel=1e-6)
            assert getattr(record, key) == pytest.approx(math.exp(-res.fun), rel=1e-12)

    def test_low_T_c_chi_peak_is_the_front_maximum(self):
        # the report matrix's c8: at the chi peak the cold branch is about 20
        # times the pump, and a full Newton step from the R peak leaves the
        # admissible set (tau_p < 0); the damped run ends at the largest psi R*
        # over 200,000 fixed-COP maxima
        config = TricycleConfig(T_c=0.001, delta_c=0.0026665, alpha=1.0)
        coeffs = cycle_coefficients(config)
        record = max_figure_of_merit(coeffs, config.alpha)
        lo, hi = _cop_range(coeffs)
        psi = np.linspace(lo, hi, 200_002)[1:-1]
        best = np.nanmax(psi * _cop_points(coeffs, psi)[2])
        assert record.chi == pytest.approx(best, rel=1e-10)
        assert record.tau_c == pytest.approx(1154.21, rel=1e-5)

    def test_default_chi_peak_is_the_resultant_root(self, coeffs):
        # the degree-11 factor of sympy's resultant of the two stationarity
        # numerators of chi has this root on the default config
        assert _peak(coeffs, 1)[0] == pytest.approx(10.93062674, abs=1e-8)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_records_are_the_peaks(self, config):
        # each maximum's record sits at the peak's own duration pair
        coeffs = cycle_coefficients(config)
        for k, record in ((0, max_cooling_rate), (1, max_figure_of_merit)):
            rec = record(coeffs, config.alpha)
            assert (rec.tau_c, rec.tau_p) == _peak(coeffs, k)

    def test_no_admissible_rate_peak_raises(self):
        # below the reversible amplitude Z = sum_v T_v dS_v < 0: no cycle refrigerates
        coeffs = cycle_coefficients(TricycleConfig(delta_c=0.3))
        for k in (0, 1):
            with pytest.raises(ConvergenceError, match="no admissible cooling-rate peak"):
                _peak(coeffs, k)
        with pytest.raises(ConvergenceError):
            curve_maxima(coeffs, 0.0)

    def test_newton_without_convergence_raises(self, coeffs, monkeypatch):
        # no fallback: a Newton run that does not end is an error, for each
        # objective on its own (neither starts from the other's peak)
        monkeypatch.setattr(optimize, "_NEWTON_MAXITER", 2)
        for k, name in ((0, "cooling-rate"), (1, "figure-of-merit")):
            with pytest.raises(ConvergenceError, match=f"^{name} peak not found in 2 steps$"):
                _peak(coeffs, k)

    def test_a_step_that_is_not_finite_raises(self, coeffs):
        # a_c in the subnormals makes rho_v = a_v/a_c infinite and the first
        # step NaN, which no halving makes admissible
        tiny = replace(coeffs, Sigma=(-1e-320 / coeffs.T[0], *coeffs.Sigma[1:]))
        for k, name in ((0, "cooling-rate"), (1, "figure-of-merit")):
            with pytest.raises(ConvergenceError, match=f"^{name} peak: Newton step not finite"):
                _peak(tiny, k)


@pytest.mark.parametrize("config", STANDARD_CONFIGS)
@pytest.mark.parametrize("k", [1e-300, 1e-200, 1e200, 1e300])
def test_curve_roots_and_fixed_cop_points_only_rescale_with_gamma0(config, k):
    # both solve in the rates y_v = a_v/tau_v, which gamma0 does not move; the
    # rounding of tau_c/k is amplified where K = Z - a_c/tau_c nearly cancels
    # (tau_c ~ 1.41 on the default config, 7.6e-11 there)
    base, scaled = (cycle_coefficients(replace(config, gamma0=config.gamma0 * f))
                    for f in (1.0, k))
    grid = np.geomspace(*optimize.DEFAULT_TAU_C_RANGE)
    (tau_p, reasons), (scaled_p, scaled_reasons) = (
        _stationary_tau_p(base, grid), _stationary_tau_p(scaled, grid / k))
    assert [why is None for why in scaled_reasons] == [why is None for why in reasons]
    assert np.isnan(scaled_p).tolist() == np.isnan(tau_p).tolist()
    assert (scaled_p * k).tolist() == pytest.approx(tau_p.tolist(), rel=1e-9, nan_ok=True)
    lo, hi = _cop_range(base)
    psi = lo + (hi - lo) * np.linspace(0.01, 0.99, 40)
    for value, scaled_value, f in zip(_cop_points(base, psi), _cop_points(scaled, psi),
                                      (k, k, 1.0 / k)):
        assert (scaled_value * f).tolist() == pytest.approx(value.tolist(), rel=1e-9)


class TestPythonScalars:
    """One-point solver results hold Python floats and bools, not numpy
    scalars, so reports take the plain-float path; curves, envelopes and
    profiles hold 1-D float64 columns of one length each."""

    @staticmethod
    def numeric_fields(obj):
        if isinstance(obj, tuple):  # the NamedTuple records
            items = obj._asdict().items()
        else:
            items = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        for name, value in items:
            if dataclasses.is_dataclass(value) or isinstance(value, tuple):
                yield from TestPythonScalars.numeric_fields(value)
            elif not isinstance(value, str):
                yield name, value

    @pytest.fixture(scope="class")
    def envelope(self, config):
        return envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                              psi_grid=np.linspace(0.06, 0.16, 9))

    def test_every_numeric_field_is_a_python_scalar(self, config, coeffs, envelope):
        objects = [*solve_time_allocation(coeffs, 9.0), curve_maxima(coeffs, config.alpha),
                   max_cooling_rate(coeffs, config.alpha),
                   max_figure_of_merit(coeffs, config.alpha)]
        checked = 0
        for obj in objects:
            for name, value in self.numeric_fields(obj):
                assert type(value) is (bool if name == "valid" else float), \
                    (type(obj).__name__, name, type(value))
                checked += 1
        assert checked == 47
        assert all(type(x) is float for x in (envelope.psi_R, envelope.psi_chi))

    def test_every_curve_field_is_a_float64_column(self, config, coeffs, curve, envelope):
        profile = time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        checked = 0
        for obj, rows in ((curve.records, 100), (envelope.records, 9), (profile, 7)):
            for name, value in obj._asdict().items():
                assert type(value) is np.ndarray and value.dtype == np.float64 \
                    and value.shape == (rows,), (type(obj).__name__, name, type(value))
                checked += value.size
        assert checked > 500


class TestAlphaSweep:
    @pytest.fixture(scope="module")
    def sweep(self, config):
        return alpha_sweep(config)

    def test_refined_maxima_dominate_rows(self, sweep):
        assert not sweep.skipped
        assert sweep.R_max >= max(r.R_max for r in sweep.rows)
        assert sweep.chi_max >= max(r.chi_max for r in sweep.rows)

    def test_refined_alphas_stay_near_best_rows(self, sweep):
        step = sweep.rows[1].alpha - sweep.rows[0].alpha
        best_R = max(sweep.rows, key=lambda r: r.R_max)
        best_chi = max(sweep.rows, key=lambda r: r.chi_max)
        assert abs(sweep.alpha_R - best_R.alpha) <= step
        assert abs(sweep.alpha_chi - best_chi.alpha) <= step

    def test_maxima_are_the_records_at_the_refined_alphas(self, config, sweep):
        for alpha, key, value in ((sweep.alpha_R, "R_max", sweep.R_max),
                                  (sweep.alpha_chi, "chi_max", sweep.chi_max)):
            coeffs = cycle_coefficients(replace(config, alpha=alpha))
            assert value == getattr(curve_maxima(coeffs, alpha), key)
        for row in sweep.rows[::25]:
            coeffs = cycle_coefficients(replace(config, alpha=row.alpha))
            assert row == curve_maxima(coeffs, row.alpha)

    def test_builds_no_curve(self, config, monkeypatch):
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        sweep = alpha_sweep(config, np.linspace(0.0, 1.0, optimize.MIN_GRID_POINTS))
        assert built == [] and len(sweep.rows) == optimize.MIN_GRID_POINTS

    def test_computes_each_alpha_once(self, config, sweep, monkeypatch):
        # the zoom passes look the grid's alphas up in the rows
        seen = []
        original = optimize._alpha_maxima

        def counting(cfg, alphas):
            seen.extend(alphas)
            return original(cfg, alphas)

        monkeypatch.setattr(optimize, "_alpha_maxima", counting)
        again = alpha_sweep(config)
        assert len(seen) == len(set(seen)) > len(again.rows)
        assert again == sweep


class TestAlphaAxis:
    """Coefficients over an array of alphas, and the zoom passes over them."""

    # random_config draws 0-39 on a 41-alpha grid: at its alpha = 0.5, a scalar
    # exponent once took numpy's sqrt loop and an exponent row pow, and 6 of
    # the 120 branch rows differed in the last bit
    @pytest.mark.parametrize("config, alphas", [
        *(pytest.param(config, None, id=f"config{i}")
          for i, config in enumerate(STANDARD_CONFIGS)),
        *(pytest.param(random_config(np.random.default_rng(seed)),
                       np.linspace(*optimize.DEFAULT_ALPHA_WINDOW, 41), id=f"draw{seed}")
          for seed in range(40))])
    def test_batched_sigma_is_bit_identical(self, config, alphas, rng):
        if alphas is None:
            alphas = np.concatenate([np.linspace(*optimize.DEFAULT_ALPHA_WINDOW,
                                                 optimize.DEFAULT_ALPHA_POINTS),
                                     [0.0, -0.5, 0.5, 1.0, 1.5], rng.uniform(-0.5, 1.5, 20)])
        batch = cycle_coefficients(replace(config, alpha=alphas))
        assert batch.T == cycle_coefficients(config).T
        for alpha, sigma in zip(alphas.tolist(), np.array(batch.Sigma).T.tolist()):
            alone = cycle_coefficients(replace(config, alpha=alpha))
            assert batch.dS == alone.dS
            assert [s.hex() for s in sigma] == [s.hex() for s in alone.Sigma]

    @staticmethod
    def fake_maxima(monkeypatch, R, chi, fails=lambda alpha: False):
        """Replace :func:`optimize._alpha_maxima` by the synthetic rows
        (R(alpha), chi(alpha)), failing where ``fails``; returns the list of
        alpha batches it is called with."""
        calls = []

        def maxima(config, alphas):
            calls.append(list(alphas))
            return [(None, "failed") if fails(a) else
                    ((None, optimize.AlphaRecord(a, R(a), chi(a), 0.0, 0.0)), None)
                    for a in alphas]

        monkeypatch.setattr(optimize, "_alpha_maxima", maxima)
        return calls

    GRID = np.linspace(-0.5, 1.5, 101)

    def test_interior_peaks_found_within_xtol(self, config, monkeypatch):
        calls = self.fake_maxima(monkeypatch, lambda a: -(a - 0.3317) ** 2,
                                 lambda a: 1.0 - abs(a - 0.91234))
        _, _, at_R, at_chi = optimize._alpha_rows(config, self.GRID, None)
        assert abs(at_R[1].alpha - 0.3317) <= optimize._ALPHA_XTOL
        assert abs(at_chi[1].alpha - 0.91234) <= optimize._ALPHA_XTOL
        assert calls[0] == self.GRID.tolist()
        assert all(0 < len(batch) <= optimize._ZOOM_POINTS for batch in calls[1:])
        seen = [a for batch in calls for a in batch]
        assert len(seen) == len(set(seen))

    def test_edge_peak_makes_no_further_call(self, config, monkeypatch):
        calls = self.fake_maxima(monkeypatch, lambda a: a, lambda a: -a)
        _, _, at_R, at_chi = optimize._alpha_rows(config, self.GRID, None)
        assert (at_R[1].alpha, at_chi[1].alpha) == (1.5, -0.5)
        assert len(calls) == 1

    def test_failing_neighbours_count_as_minus_inf(self, config, monkeypatch):
        # the grid neighbour left of the best row fails, and so does every alpha
        # from it to just below the peak
        def peak(a):
            return -(a - 0.3317) ** 2

        self.fake_maxima(monkeypatch, peak, peak, fails=lambda a: 0.315 < a < 0.331)
        _, skipped, at_R, at_chi = optimize._alpha_rows(config, self.GRID, None)
        assert [a for a, _ in skipped] == [self.GRID[41]]
        for at in (at_R, at_chi):
            assert abs(at[1].alpha - 0.3317) <= optimize._ALPHA_XTOL
        # a peak inside the failing band: the zoom closes in on an edge of the
        # band from an alpha that works
        self.fake_maxima(monkeypatch, lambda a: -(a - 0.311) ** 2, lambda a: -(a - 0.311) ** 2,
                         fails=lambda a: 0.305 < a < 0.315)
        _, _, at_R, _ = optimize._alpha_rows(config, self.GRID, None)
        alpha = at_R[1].alpha
        assert not 0.305 < alpha < 0.315
        assert min(abs(alpha - 0.305), abs(alpha - 0.315)) <= optimize._ALPHA_XTOL

    def test_never_below_the_best_grid_row(self, config, monkeypatch, rng):
        for _ in range(50):
            center, width = rng.uniform(-0.7, 1.7), rng.uniform(0.05, 2.0)
            noise = rng.normal() * 1e-3

            def bumpy(a):
                return -abs(a - center) / width + noise * math.sin(40.0 * a)

            calls = self.fake_maxima(monkeypatch, bumpy, bumpy)
            points, _, at_R, at_chi = optimize._alpha_rows(config, self.GRID, None)
            best = max(row.R_max for _, row in points)
            for at in (at_R, at_chi):
                assert at[1].R_max >= best and at[1].R_max == bumpy(at[1].alpha)
            seen = [a for batch in calls for a in batch]
            assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_refined_alphas_match_a_dense_scan(self, config):
        # the refined alphas lie within _ALPHA_XTOL of the best of 2,001 alphas
        # over +-1e-3 around them (in the window), and beat every row
        sweep = alpha_sweep(config)
        lo, hi = optimize.DEFAULT_ALPHA_WINDOW
        for alpha, key, value in ((sweep.alpha_R, "R_max", sweep.R_max),
                                  (sweep.alpha_chi, "chi_max", sweep.chi_max)):
            assert value >= max(getattr(row, key) for row in sweep.rows)
            scan = np.linspace(alpha - 1e-3, alpha + 1e-3, 2001)
            scan = scan[(lo <= scan) & (scan <= hi)].tolist()
            values = [getattr(point[1], key)
                      for chunk in range(0, len(scan), 500)
                      for point, _ in optimize._alpha_maxima(config, scan[chunk:chunk + 500])]
            assert abs(scan[int(np.argmax(values))] - alpha) <= optimize._ALPHA_XTOL


class TestEnvelope:
    @pytest.fixture(scope="class")
    def small_envelope(self, config):
        return envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                              psi_grid=np.linspace(0.06, 0.16, 9))

    def test_envelope_dominates_flat_bath_member(self, config, small_envelope):
        member = optimal_curve(config).records
        psis = member.psi
        for rec in record_rows(small_envelope.records):
            if psis[0] <= rec.psi <= psis[-1]:
                member_R = float(np.interp(rec.psi, psis, member.R))
                assert rec.R >= member_R * (1.0 - 1e-9)

    def test_builds_no_curve(self, config, monkeypatch):
        # the fixed-COP points and the peak refinement read the coefficients
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        result = envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                                psi_grid=np.linspace(0.06, 0.16, 9))
        assert built == [] and result.records.psi.size == 9

    def test_rows_hit_their_target_cops(self, config):
        # each row is the best alpha's fixed-COP point, re-solved at its tau_c
        alphas = np.linspace(-0.5, 1.5, 9)
        result = envelope_curve(config, alpha_grid=alphas)
        lo, hi = _cop_range(cycle_coefficients(config))
        targets = lo + (hi - lo) * np.linspace(0.01, 0.99, 80)
        assert lo == 0.0 and not result.skipped
        assert result.records.psi.tolist() == pytest.approx(targets.tolist(), rel=1e-9)
        R = np.array([_cop_points(cycle_coefficients(replace(config, alpha=a)), targets)[2]
                      for a in alphas.tolist()])
        assert result.records.alpha.tolist() == alphas[R.argmax(axis=0)].tolist()
        assert result.records.R.tolist() == pytest.approx(R.max(axis=0).tolist(), rel=1e-9)

    def test_one_records_call_gathers_each_cops_best_pair(self, config, monkeypatch):
        # the columns of one _records call over an alpha batch are, bit for
        # bit, the one-pair records of each COP's best pair, and the skipped
        # COPs' reasons are theirs: a stationarity miss (the first target's
        # tau_p off by 1e-6) and a COP outside the attainable range
        pairs = [(coeffs, row.alpha) for (coeffs, row), _ in
                 optimize._alpha_maxima(config, np.linspace(-0.5, 1.5, 7).tolist())]
        lo, hi = _cop_range(pairs[0][0])
        targets = np.append(lo + (hi - lo) * np.linspace(0.01, 0.99, 30), 0.32)
        original, records_calls = optimize._cop_points, []

        def perturbed(co, psi):
            tau_c, tau_p, R = original(co, psi)
            tau_p[psi == targets[0]] *= 1.0 + 1e-6
            return tau_c, tau_p, R

        def counting(*args):
            records_calls.append(args)
            return records(*args)

        records = optimize._records
        monkeypatch.setattr(optimize, "_cop_points", perturbed)
        monkeypatch.setattr(optimize, "_records", counting)
        gathered, skipped = optimize._cop_records(pairs, targets)
        assert len(records_calls) == 1
        R = np.array([original(coeffs, targets)[2] for coeffs, _ in pairs])
        best = np.nan_to_num(R, nan=-np.inf).argmax(axis=0).tolist()
        assert len(set(best)) >= 3
        each = [optimize._cop_records([pairs[k]], targets[j:j + 1]) for j, k in enumerate(best)]
        assert np.array(gathered).tobytes() == np.hstack([np.array(r) for r, _ in each]).tobytes()
        assert skipped == [point for _, why in each for point in why]
        assert [psi for psi, _ in skipped] == [targets[0], 0.32]
        assert skipped[0][1].startswith("stationarity residual")
        assert skipped[1][1] == "outside the attainable range (0.0000, 0.1879)"

    def test_alpha_grid_stays_in_the_window(self, config, monkeypatch):
        # the envelope and the alpha sweep share one check, made before any curve
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        lo, hi = optimize.DEFAULT_ALPHA_WINDOW
        for grid in ([-2.0, 0.0, 1.0], [0.0, np.nextafter(hi, np.inf)], []):
            with pytest.raises(ValueError, match="alpha grid"):
                envelope_curve(config, alpha_grid=grid)
            with pytest.raises(ValueError, match="alpha grid"):
                alpha_sweep(config, alpha_grid=grid)
        with pytest.raises(ValueError, match=f">= {optimize.MIN_GRID_POINTS} points"):
            alpha_sweep(config, alpha_grid=np.linspace(lo, hi, optimize.MIN_GRID_POINTS - 1))
        assert built == []

    def test_peak_ordering(self, small_envelope):
        assert small_envelope.psi_R <= small_envelope.psi_chi

    def test_unattainable_cop_reported(self, config):
        with pytest.raises(ConvergenceError) as err:
            envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                           psi_grid=np.array([0.999]))
        assert err.value.failed_points == [
            (0.999, "outside the attainable range (0.0000, 0.1879)")]


class TestTimeAllocationProfile:
    def test_profile_shape(self, config, coeffs):
        points = time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        totals = points.tau_total.tolist()
        assert all(b > a for a, b in zip(totals, totals[1:]))
        hp = points.ratio_hp.tolist()
        assert all(b < a for a, b in zip(hp, hp[1:]))
        for p in record_rows(points):
            assert np.isfinite(p.ratio_hp) and p.ratio_hp > 0
            assert np.isfinite(p.ratio_cp) and p.ratio_cp > 0

    def test_default_profile_has_the_expected_shape(self, config, coeffs):
        # tau_c/tau_p grows with the COP here, as the shape check expects
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        cp = points.ratio_cp.tolist()
        assert all(b > a for a, b in zip(cp, cp[1:]))

    def test_points_hit_their_target_cops(self, config, coeffs):
        targets = np.linspace(0.01, 0.18, 29)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the shape check's
            points = time_allocation_profile(coeffs, config.alpha, targets)
        assert points.psi.tolist() == pytest.approx(targets.tolist(), rel=1e-9)

    def test_shape_warnings_match_pairwise_reference(self, curve, rng):
        # random, unsorted and repeated COP targets on the default and random curves
        curves, kinds = [curve], set()
        for _ in range(8):
            try:
                curves.append(optimal_curve(random_config(rng)))
            except ConvergenceError:
                pass
        for member in curves:
            psis = member.records.psi.tolist()
            for size in (0, 1, 5, 9):
                targets = rng.uniform(psis[0], psis[-1], size)
                if size > 2:
                    targets[1] = targets[0]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    points = time_allocation_profile(member.coeffs, member.records.alpha[0],
                                                     targets)
                messages = [str(w.message) for w in caught]
                assert messages == profile_shape_warnings_reference(record_rows(points))
                kinds.update(m.split(" between")[0] for m in messages)
        assert kinds == {"total time not increasing",
                         "tau_h/tau_p not falling or tau_c/tau_p not rising"}

    def test_unreachable_target_reported(self, config, coeffs):
        with pytest.raises(ConvergenceError) as err:
            time_allocation_profile(coeffs, config.alpha, np.array([0.12, 0.32]))
        [(psi, reason)] = err.value.failed_points
        assert psi == 0.32 and reason == "outside the attainable range (0.0000, 0.1879)"


class TestFixedCopPoints:
    """The largest cooling rate at a fixed COP, from the coefficients alone."""

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_curve_records_are_the_fixed_cop_points(self, config):
        curve = optimal_curve(config)
        tau_c, tau_p, R = _cop_points(curve.coeffs, curve.records.psi)
        assert tau_c.tolist() == pytest.approx(curve.records.tau_c.tolist(), rel=1e-10)
        assert tau_p.tolist() == pytest.approx(curve.records.tau_p.tolist(), rel=1e-10)
        assert R.tolist() == pytest.approx(curve.records.R.tolist(), rel=1e-10)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_no_point_on_the_fixed_cop_line_beats_it(self, config):
        coeffs = cycle_coefficients(config)
        lo, hi = _cop_range(coeffs)
        for psi in (lo + (hi - lo) * np.array([0.02, 0.3, 0.6, 0.9, 0.98])).tolist():
            [tau_c], _, [R] = _cop_points(coeffs, [psi])
            line = []  # a wide log scan and a fine one around the root
            for t in np.concatenate([np.geomspace(tau_c / 100.0, tau_c * 100.0, 1001),
                                     np.geomspace(tau_c / 1.01, tau_c * 1.01, 1001)]).tolist():
                times = fixed_cop_times(coeffs, psi, t)
                if times is not None:
                    m = evaluate_cycle(coeffs, t, *times)
                    assert m.psi == pytest.approx(psi, rel=1e-12)
                    line.append(m.R)
            assert len(line) > 200 and max(line) <= R * (1.0 + 1e-12)
            assert max(line) >= R * (1.0 - 1e-8)  # the fine scan reaches the root

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_nan_outside_the_attainable_range(self, config):
        coeffs = cycle_coefficients(config)
        A, Z, H, _ = _branch_terms(coeffs)
        hi = A / (H - Z)
        assert _cop_range(coeffs) == (0.0, hi)
        outside = [-0.1, -0.0, 0.0, hi, hi * (1.0 + 1e-12), 0.5, np.inf, np.nan]
        for values in _cop_points(coeffs, outside):
            assert np.isnan(values).all()
        tau_c, tau_p, R = _cop_points(coeffs, [hi * (1.0 - 1e-9), hi * (1.0 - 1e-6), 1e-9])
        assert np.isfinite(tau_c).all() and (tau_c > 0.0).all() and (R > 0.0).all()
        assert (tau_p > 0.0).all()

    def test_newton_without_convergence_raises(self, coeffs, monkeypatch):
        monkeypatch.setattr(optimize, "_NEWTON_MAXITER", 2)
        with pytest.raises(ConvergenceError, match="fixed-COP Newton .* in 2 steps"):
            _cop_points(coeffs, [0.1])

    def test_slope_is_the_derivative(self, monkeypatch):
        # g and g' at each of the iterates are t^2 dR/dy and its derivative,
        # with a_c R = Q_c/t at the fixed COP, in y = a_c/tau_c
        sp = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        A, Z, H, rho_h, rho_p, psi, y = sp.symbols("A Z H rho_h rho_p psi y", positive=True)
        Q_c, k = A - y, 1 + 1 / psi
        y_h, y_p = H - Q_c / psi, Z - A - H + k * Q_c  # Q_h = Q_c/psi, Q_p = -k Q_c
        assert sp.simplify(Z - y - y_h - y_p) == 0  # the heats balance
        t = 1 / y + rho_h / y_h + rho_p / y_p  # tau/a_c, rho_v = a_v/a_c
        g = t * t * sp.diff(Q_c / t, y)
        exact = sp.lambdify((A, Z, H, rho_h, rho_p, psi, y), (g, sp.diff(g, y)), "mpmath")
        seen, original = [], optimize._newton_root

        def recording(fn, x, lo, hi):
            def traced(x):
                seen.append((x, *fn(x)))
                return seen[-1][1:]
            return original(traced, x, lo, hi)

        monkeypatch.setattr(optimize, "_newton_root", recording)
        for config in STANDARD_CONFIGS:
            coeffs = cycle_coefficients(config)
            A_, Z_, H_, (ac, ah, ap) = _branch_terms(coeffs)
            lo, hi = _cop_range(coeffs)
            psis = (lo + (hi - lo) * np.array([0.02, 0.3, 0.6, 0.9, 0.98])).tolist()
            seen.clear()
            _cop_points(coeffs, psis)
            assert len(seen) >= 3
            for ys, gs, slopes in seen:
                for p, y_, g_, slope in zip(psis, ys.tolist(), gs.tolist(), slopes.tolist()):
                    with mpmath.workdps(40):
                        ref = exact(*map(mpmath.mpf, (A_, Z_, H_, ah / ac, ap / ac, p, y_)))
                    q, w_h, w_p = A_ - y_, H_ - (A_ - y_) / p, Z_ - A_ - H_ + (1 + 1 / p) * (A_ - y_)
                    size = (1 / y_ + ah / ac / w_h + ap / ac / w_p
                            + q * (1 / y_ ** 2 + ah / ac / (p * w_h ** 2)
                                   + (1 + 1 / p) * ap / ac / w_p ** 2))
                    assert abs(g_ - float(ref[0])) <= 1e-13 * size, (p, y_)
                    assert abs(slope - float(ref[1])) <= 1e-13 * abs(float(ref[1])), (p, y_)


class TestFreeTimeSweep:
    def test_interior_maximum(self, coeffs):
        tc = np.linspace(1.0, 60.0, 60)
        tp = np.linspace(1.0, 60.0, 60)
        sweep = free_time_sweep(coeffs, tc, tp)
        flat = np.nanargmax(sweep.R)
        i, j = np.unravel_index(flat, sweep.R.shape)
        assert 0 < i < len(tc) - 1 and 0 < j < len(tp) - 1

    def test_single_humped_slice_through_optimum(self, coeffs):
        tc = np.linspace(1.0, 60.0, 60)
        tp = np.linspace(1.0, 60.0, 60)
        sweep = free_time_sweep(coeffs, tc, tp)
        i, j = np.unravel_index(np.nanargmax(sweep.R), sweep.R.shape)
        slice_R = sweep.R[:, j]
        valid = ~np.isnan(slice_R)
        vals = slice_R[valid]
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[:peak + 1]) > 0)
        assert np.all(np.diff(vals[peak:]) < 0)

    def test_present_entries_are_balanced(self, coeffs):
        tc = np.linspace(2.0, 20.0, 5)
        tp = np.linspace(2.0, 20.0, 5)
        sweep = free_time_sweep(coeffs, tc, tp)
        for i in range(len(tc)):
            for j in range(len(tp)):
                if np.isnan(sweep.R[i, j]):
                    continue
                m = evaluate_cycle(coeffs, tc[i], sweep.tau_h[i, j], tp[j])
                assert abs(m.work_residual) < 1e-8
                assert m.R == pytest.approx(sweep.R[i, j], rel=1e-12)

    def test_infeasible_cells_marked_absent(self, coeffs):
        sweep = free_time_sweep(coeffs, np.array([0.05]), np.array([5.0]))
        assert np.isnan(sweep.R[0, 0]) and np.isnan(sweep.tau_h[0, 0])

    def test_grid_validation(self, coeffs):
        with pytest.raises(ValueError):
            free_time_sweep(coeffs, np.array([-1.0]), np.array([1.0]))

    def test_array_sweep_equals_scalar_loop(self, coeffs):
        # the array form keeps the scalar operation order, so cells agree exactly
        tc = np.geomspace(0.05, 60.0, 17)
        tp = np.geomspace(0.5, 60.0, 13)
        sweep = free_time_sweep(coeffs, tc, tp)
        (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
        infeasible = 0
        for i, c in enumerate(tc.tolist()):
            for j, p in enumerate(tp.tolist()):
                denom = T_p * (dS_p + S_p / p) + T_c * (dS_c + S_c / c) + T_h * dS_h
                if denom <= 0.0:
                    infeasible += 1
                    assert np.isnan(sweep.tau_h[i, j]) and np.isnan(sweep.R[i, j])
                    continue
                tau_h = -T_h * S_h / denom
                assert sweep.tau_h[i, j] == tau_h
                assert sweep.R[i, j] == T_c * (dS_c + S_c / c) / (c + tau_h + p)
        assert 0 < infeasible < tc.size * tp.size


def test_stationarity_residual_matches_solution(coeffs):
    sol = solve_time_allocation(coeffs, 9.0)[0]
    assert sum(_stationarity_terms(coeffs, sol.tau_c, sol.tau_h, sol.tau_p)) == \
        pytest.approx(sol.residual_constraint, abs=1e-15)
