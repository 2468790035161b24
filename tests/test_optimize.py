import dataclasses
import math
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
    solve_time_allocation_reference,
    stationarity_brackets,
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
    _merit_peak,
    _rate_cubic,
    _rate_peak,
    _residual,
    _stationarity_quartic,
    _stationarity_terms,
    _stationary_roots,
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
        # others have K > 0 but a principal solution that does not refrigerate
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
        # above tau_c ~ 6e7 the quartic has a root just above the pole -M/K of
        # the balanced tau_h that does not solve F = 0 at all; it is dropped,
        # and the valid root of the same tau_c is kept
        tau_c = np.geomspace(6e7, 1e9, 60)
        tau_h, tau_p, residual, reasons = _stationary_roots(coeffs, tau_c[:, None])
        assert reasons == [None] * tau_c.size
        misses = []
        for t, hs, ps, rs in zip(tau_c.tolist(), tau_h, tau_p, residual):
            kept = ~np.isnan(ps)
            for h, p, r in zip(hs[kept].tolist(), ps[kept].tolist(), rs[kept].tolist()):
                assert checked_residual(coeffs, t, h, p) == r
            misses += _dropped_root_misses(coeffs, t, ps[kept].tolist())
        assert misses and min(misses) >= 1e-3  # spurious, not near-misses


def _solved_cases(coeffs, rng, draws=24):
    """(coeffs, tau_c, solutions) for the default config and random draws;
    no solutions where the solver reports none."""
    cases = [(coeffs, tau_c) for tau_c in (2.0, 9.0, 50.0, 400.0)]
    for _ in range(draws):
        co = cycle_coefficients(random_config(rng))
        cases += [(co, tau_c) for tau_c in (2.0, 9.0, 50.0, 400.0)]
    for co, tau_c in cases:
        try:
            yield co, tau_c, solve_time_allocation(co, tau_c)
        except ConvergenceError:
            yield co, tau_c, []


class TestStationarityQuartic:
    """The closed-form roots against independent references."""

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
            K, M, poly = _stationarity_quartic(co, tau_c)
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
        K, M, poly = _stationarity_quartic(symbolic, tau_c)
        assert sp.expand(K * tau_p + M - denom * tau_p) == 0
        assert len(expected) == len(poly) == 5
        for want, got in zip(expected, poly):
            assert sp.cancel(want - got) == 0


class TestOptimalCurve:
    def test_sorted_and_bounded_by_reversible_cop(self, config, curve):
        psis = [r.psi for r in curve.records]
        assert psis == sorted(psis)
        psi_r = reversible_cop(config.T_c, config.T_h, config.T_p)
        assert all(0.0 < p < psi_r for p in psis)
        assert all(r.chi == pytest.approx(r.psi * r.R, rel=1e-12) for r in curve.records)

    def test_cop_monotone_in_cold_duration(self, curve):
        by_tau = sorted(curve.records, key=lambda r: r.tau_c)
        psis = [r.psi for r in by_tau]
        assert all(b > a for a, b in zip(psis, psis[1:]))

    def test_single_humped_cooling_rate(self, curve):
        rates = np.array([r.R for r in curve.records])
        peak = int(np.argmax(rates))
        assert 0 < peak < len(rates) - 1
        assert np.all(np.diff(rates[:peak + 1]) > 0)
        assert np.all(np.diff(rates[peak:]) < 0)

    def test_skips_counted(self, config):
        # grid extending into the non-refrigerating small-tau_c region
        grid = np.geomspace(0.05, 3000.0, 120)
        result = optimal_curve(config, tau_c_grid=grid)
        assert result.skipped
        assert len(result.records) + len(result.skipped) == 120

    def test_grid_validation(self, config):
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.geomspace(1, 100, 50))
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.linspace(-1, 100, 120))

    def test_deterministic(self, config, curve):
        again = optimal_curve(config)
        assert again.records == curve.records


class TestObjectiveMaxima:
    def test_refinement_dominates_grid(self, config, coeffs, curve):
        rec = max_cooling_rate(coeffs, config.alpha)
        R_max = rec.R
        assert R_max >= max(r.R for r in curve.records)
        sol = solve_time_allocation(coeffs, rec.tau_c)[0]
        assert (sol.metrics.psi, sol.metrics.chi, sol.tau_h, sol.tau_p) == \
            (rec.psi, rec.chi, rec.tau_h, rec.tau_p)
        assert sol.metrics.R == pytest.approx(R_max, rel=1e-12)
        total = sol.tau_c + sol.tau_h + sol.tau_p
        assert abs(sol.residual_constraint) < 1e-8 * total
        assert abs(sol.metrics.work_residual) < 1e-8 * abs(sol.metrics.cold.Q)

    def test_figure_of_merit_peak_sits_right_of_rate_peak(self, config, coeffs):
        at_R = max_cooling_rate(coeffs, config.alpha)
        at_chi = max_figure_of_merit(coeffs, config.alpha)
        assert at_chi.psi > at_R.psi
        assert at_chi.chi >= solve_time_allocation(coeffs, at_R.tau_c)[0].metrics.chi

    def test_each_maximum_is_one_solve(self, config, coeffs, monkeypatch):
        # the maxima come from the coefficients: one kernel call holding one
        # point at each peak's tau_c, no one-point solve and no curve
        solved, built = [], []
        original = optimize._stationary_roots

        def counting(co, tau_c):
            solved.append(tau_c[:, 0].tolist())
            return original(co, tau_c)

        monkeypatch.setattr(optimize, "_stationary_roots", counting)
        monkeypatch.setattr(optimize, "solve_time_allocation", lambda *args: built.append(args))
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        record = curve_maxima(coeffs, config.alpha)
        assert solved == [[_rate_peak(coeffs)[0], _merit_peak(coeffs)[0]]]
        assert built == []
        at_R = max_cooling_rate(coeffs, config.alpha)
        at_chi = max_figure_of_merit(coeffs, config.alpha)
        assert record == (config.alpha, at_R.R, at_chi.chi, at_R.psi, at_chi.psi)

    def test_refine_max_gains_or_returns_none(self, rng):
        xs = np.linspace(0.0, 1.0, 11).tolist()

        def peak(x):
            return -(x - 0.33) ** 2

        values = [peak(x) for x in xs]
        x, value = optimize._refine_max(peak, xs, values, xtol=1e-9)
        assert x == pytest.approx(0.33, abs=1e-6) and value > max(values)
        # best point on an edge of the grid: nothing to bracket
        assert optimize._refine_max(lambda x: x, xs, xs, xtol=1e-9) is None
        assert optimize._refine_max(lambda x: -x, xs, [-x for x in xs], xtol=1e-9) is None
        # f flat, or failing (-inf) everywhere: the bracket fails
        assert optimize._refine_max(lambda x: 0.0, xs, values, xtol=1e-9) is None
        assert optimize._refine_max(lambda x: -np.inf, xs, values, xtol=1e-9) is None
        # grid values f never reaches: no gain, so no value below the best one
        assert optimize._refine_max(peak, xs, [v + 1.0 for v in values], xtol=1e-9) is None
        for _ in range(200):
            center, width = rng.uniform(-0.2, 1.2), rng.uniform(0.05, 2.0)
            values = (rng.normal(size=11) * 1e-3).tolist()

            def bumpy(x):
                return -abs(x - center) / width + 1e-3 * np.sin(40.0 * x)

            hit = optimize._refine_max(bumpy, xs, values, xtol=1e-9)
            assert hit is None or (hit[1] > max(values) and hit[1] == bumpy(hit[0]))

    def test_local_stationarity_of_refined_peak(self, config, coeffs):
        rec = max_cooling_rate(coeffs, config.alpha)
        for factor in (0.99, 1.01):
            neighbour = solve_time_allocation(coeffs, rec.tau_c * factor)[0]
            assert neighbour.metrics.R <= rec.R * (1.0 + 1e-9)


# delta_c, gamma0 and alpha of the four standard report configs
STANDARD_CONFIGS = [TricycleConfig(), TricycleConfig(delta_c=0.62, gamma0=1.2, alpha=0.7),
                    TricycleConfig(delta_c=0.75, gamma0=1.45, alpha=-0.3),
                    TricycleConfig(delta_c=0.55, gamma0=1.05, alpha=1.3)]


def _dropped_root_misses(coeffs, tau_c, kept):
    """|F| / sum |terms| of each candidate root at tau_c that is not among
    ``kept``: np.roots' real roots above -M/K after one Newton step."""
    K, M, poly = _stationarity_quartic(coeffs, tau_c)
    roots = np.roots(poly)
    roots = roots[roots.imag == 0.0].real
    roots -= np.polyval(poly, roots) / np.polyval(np.polyder(poly), roots)
    misses = []
    for p in roots[roots > -M / K].tolist():
        if p not in kept:
            h = float(_energy_balance(coeffs, tau_c, p)[0])
            terms = _stationarity_terms(coeffs, tau_c, h, p)
            misses.append(abs(sum(terms)) / sum(map(abs, terms)))
    return misses


class TestWholeGridKernel:
    """One kernel call solves a whole tau_c grid; its records and skipped
    reasons equal those of the per-point reference solver exactly."""

    @staticmethod
    def matches_reference(config, grid):
        """The reference's skipped pairs, after checking the curve against it."""
        records, skipped = optimal_curve_reference(config, grid)
        try:
            curve = optimal_curve(config, tau_c_grid=grid)
        except ConvergenceError as exc:  # fewer than 10 points survive
            assert len(records) < 10 and exc.failed_points == skipped
            return skipped
        assert curve.records == records and curve.skipped == skipped
        return skipped

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_standard_configs_on_the_default_grid(self, config):
        self.matches_reference(config, np.geomspace(*optimize.DEFAULT_TAU_C_RANGE))

    def test_wide_grid(self, config, coeffs):
        grid = np.geomspace(1e-3, 1e9, 200)
        reasons = [why for _, why in self.matches_reference(config, grid)]
        assert any("tau_c must exceed" in why for why in reasons)  # K <= 0
        assert any("does not refrigerate" in why for why in reasons)
        # above tau_c ~ 6e7 some of the grid's points carry a spurious pole root
        far = grid[grid > 6e7]
        tau_p = _stationary_roots(coeffs, far[:, None])[1]
        misses = [_dropped_root_misses(coeffs, t, ps[~np.isnan(ps)].tolist())
                  for t, ps in zip(far.tolist(), tau_p)]
        assert sum(map(bool, misses)) == 8 and min(map(min, filter(None, misses))) >= 1e-3

    def test_overflowing_coefficients(self, config):
        reasons = self.matches_reference(config, np.geomspace(0.3, 1e200, 120))
        assert any("coefficients overflow" in why for _, why in reasons)

    def test_vanishing_constant_term(self, config, coeffs):
        # c0 M^2 is exactly 0 here, so np.roots trims it and returns a cubic's
        # roots and 0; the kernel sends that row to np.roots as well
        tau_c = 2.818507017942862
        poly = _stationarity_quartic(coeffs, tau_c)[2]
        assert poly[4] == 0.0 and np.roots(poly).size == 4
        grid = np.geomspace(*optimize.DEFAULT_TAU_C_RANGE)
        grid[np.searchsorted(grid, tau_c)] = tau_c
        self.matches_reference(config, grid)
        assert repr(solve_time_allocation(coeffs, tau_c)) == \
            repr(solve_time_allocation_reference(coeffs, tau_c))

    def test_pole_roots_with_nan_tau_h(self, rng, monkeypatch):
        # at 3 of these tau_c a root sits so close to the pole that the balanced
        # tau_h's denominator rounds to <= 0: its tau_h and residual are NaN,
        # so it is dropped, and the valid root of the same tau_c is the point
        for _ in range(18):
            random_config(rng)
        config = random_config(rng)
        coeffs = cycle_coefficients(config)
        grid = np.geomspace(1e9, 1e13, 200)

        def nan_passing_mask(*args):
            residual, limit, _ = _residual(*args)
            return residual, limit, np.abs(residual) > limit

        with monkeypatch.context() as patch:
            patch.setattr(optimize, "_residual", nan_passing_mask)
            tau_h, tau_p, _, _ = _stationary_roots(coeffs, grid[:, None])
        pole = grid[(np.isnan(tau_h) & ~np.isnan(tau_p)).any(1)].tolist()
        assert len(pole) == 3
        tau_h, tau_p, _, _ = _stationary_roots(coeffs, grid[:, None])
        assert not (np.isnan(tau_h) & ~np.isnan(tau_p)).any()
        skipped = dict(self.matches_reference(config, grid))
        assert not any(t in skipped for t in pole)
        for t in pole:
            assert repr(solve_time_allocation(coeffs, t)) == \
                repr(solve_time_allocation_reference(coeffs, t))

    def test_rows_keep_pythons_pow(self, coeffs, monkeypatch):
        # numpy squares an array by x * x, which differs from libm's pow in
        # the last bit now and then; where that would move the quartic, the
        # kernel's roots still equal the per-point solver's
        tau_c = np.geomspace(0.7, 3000.0, 20000)
        python_rows = [_stationarity_quartic(coeffs, t)[2] for t in tau_c.tolist()]
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "_square", lambda x: x * x)
            numpy_rows = np.array(_stationarity_quartic(coeffs, tau_c[:, None])[2])[:, :, 0].T
        moved = tau_c[(numpy_rows != np.array(python_rows)).any(1)]
        assert moved.size > 20
        tau_p = _stationary_roots(coeffs, moved[:, None])[1]
        for t, ps in zip(moved.tolist(), tau_p):
            assert ps[~np.isnan(ps)].tolist() == \
                sorted(sol.tau_p for sol in solve_time_allocation_reference(coeffs, t))

    def test_one_kernel_call_and_no_per_point_solve(self, config, monkeypatch):
        kernel, eigvals, per_point = [], [], []
        original, original_eigvals = optimize._stationary_roots, np.linalg.eigvals

        def counting(co, tau_c):
            kernel.append(tau_c.shape)
            return original(co, tau_c)

        def counting_eigvals(a):
            eigvals.append(a.shape)
            return original_eigvals(a)

        monkeypatch.setattr(optimize, "_stationary_roots", counting)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        for name in ("solve_time_allocation", "_principal"):
            monkeypatch.setattr(optimize, name, lambda *args: per_point.append(args))
        monkeypatch.setattr(np, "roots", lambda *args: per_point.append(args))
        curve = optimal_curve(config)
        assert kernel == [(120, 1)] and per_point == []
        assert len(eigvals) == 1 and eigvals[0][1:] == (4, 4)
        assert eigvals[0][0] >= len(curve.records) == 100


class TestClosedFormMaxima:
    """The R peak (a cubic root) and the chi peak (Newton) against references."""

    def test_rate_cubic_is_the_numerator_of_dR_dt_over_t(self):
        sp = pytest.importorskip("sympy")
        A, Z, a_c, a_h, a_p, t = sp.symbols("A Z a_c a_h a_p t", positive=True)
        r_h, r_p = sp.sqrt(a_h), sp.sqrt(a_p)
        c = (r_h + r_p) ** 2
        # the balanced triple with tau_h/tau_p = sqrt(a_h/a_p): Q_v = T_v dS_v -
        # a_v/tau_v sum to zero, and R = Q_c / tau is the rational function
        tau_h, tau_p = (r * (r_h + r_p) * t / (Z * t - a_c) for r in (r_h, r_p))
        assert sp.simplify(Z - a_c / t - a_h / tau_h - a_p / tau_p) == 0
        R = (A * t - a_c) * (Z * t - a_c) / (t ** 2 * (Z * t - a_c + c))
        assert sp.simplify((A - a_c / t) / (t + tau_h + tau_p) - R) == 0
        # tau_h + tau_p is least at that ratio for the same a_h/tau_h + a_p/tau_p
        s = sp.symbols("s", positive=True)  # tau_h = s tau_p
        q = sp.symbols("q", positive=True)  # the balance's a_h/tau_h + a_p/tau_p
        total = (a_h / s + a_p) / q * (1 + s)
        assert sp.solve(sp.diff(total, s), s) == [sp.sqrt(a_h / a_p)]
        N, D = (A * t - a_c) * (Z * t - a_c), t ** 2 * (Z * t - a_c + c)
        numerator = sp.expand(sp.diff(N, t) * D - N * sp.diff(D, t))
        assert sp.simplify(sp.diff(R, t) - numerator / D ** 2) == 0
        cubic = sum(k * t ** (3 - i) for i, k in enumerate(_rate_cubic(A, Z, a_c, c)))
        assert sp.expand(numerator - t * cubic) == 0

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

    def test_default_chi_peak_is_the_resultant_root(self, coeffs):
        # the degree-11 factor of sympy's resultant of the two stationarity
        # numerators of chi has this root on the default config
        assert _merit_peak(coeffs)[0] == pytest.approx(10.93062674, abs=1e-8)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_records_are_the_peaks(self, config):
        # the curve point at a peak's tau_c is the peak's own duration pair
        coeffs = cycle_coefficients(config)
        for peak, record in ((_rate_peak, max_cooling_rate), (_merit_peak, max_figure_of_merit)):
            tau_c, tau_p = peak(coeffs)
            rec = record(coeffs, config.alpha)
            assert rec.tau_c == tau_c
            assert rec.tau_p == pytest.approx(tau_p, rel=1e-10)

    def test_no_admissible_rate_peak_raises(self):
        # below the reversible amplitude Z = sum_v T_v dS_v < 0: no cycle refrigerates
        coeffs = cycle_coefficients(TricycleConfig(delta_c=0.3))
        for fn in (_rate_peak, _merit_peak):
            with pytest.raises(ConvergenceError, match="no admissible cooling-rate peak"):
                fn(coeffs)
        with pytest.raises(ConvergenceError):
            curve_maxima(coeffs, 0.0)

    def test_newton_without_convergence_raises(self, coeffs, monkeypatch):
        # no fallback: a Newton run that does not end is an error
        monkeypatch.setattr(optimize, "_NEWTON_MAXITER", 2)
        with pytest.raises(ConvergenceError, match="found no maximum in 2 steps"):
            _merit_peak(coeffs)


class TestPythonScalars:
    """Solver metrics and curve records hold Python floats and bools, not numpy
    scalars, so reports take the plain-float path."""

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

    def test_every_numeric_field_is_a_python_scalar(self, config, coeffs, curve):
        envelope = envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                                  psi_grid=np.linspace(0.06, 0.16, 9))
        profile = time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        objects = [*solve_time_allocation(coeffs, 9.0), *curve.records,
                   curve_maxima(coeffs, config.alpha), max_cooling_rate(coeffs, config.alpha),
                   max_figure_of_merit(coeffs, config.alpha), *envelope.records, *profile]
        checked = 0
        for obj in objects:
            for name, value in self.numeric_fields(obj):
                assert type(value) is (bool if name == "valid" else float), \
                    (type(obj).__name__, name, type(value))
                checked += 1
        assert checked > 500
        assert all(type(x) is float for x in (envelope.psi_R, envelope.psi_chi))


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
        # the golden searches look the grid's alphas up in the rows
        seen = []
        original = optimize._alpha_maxima

        def counting(cfg, alphas):
            seen.extend(alphas)
            return original(cfg, alphas)

        monkeypatch.setattr(optimize, "_alpha_maxima", counting)
        again = alpha_sweep(config)
        assert len(seen) == len(set(seen)) > len(again.rows)
        assert again == sweep


class TestEnvelope:
    @pytest.fixture(scope="class")
    def small_envelope(self, config):
        return envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                              psi_grid=np.linspace(0.06, 0.16, 9))

    def test_envelope_dominates_flat_bath_member(self, config, small_envelope):
        member = optimal_curve(config).records
        psis = np.array([r.psi for r in member])
        for rec in small_envelope.records:
            if psis[0] <= rec.psi <= psis[-1]:
                member_R = float(np.interp(rec.psi, psis, [r.R for r in member]))
                assert rec.R >= member_R * (1.0 - 1e-9)

    def test_builds_no_curve(self, config, monkeypatch):
        # the fixed-COP points and the peak refinement read the coefficients
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        result = envelope_curve(config, alpha_grid=np.linspace(-0.5, 1.5, 5),
                                psi_grid=np.linspace(0.06, 0.16, 9))
        assert built == [] and len(result.records) == 9

    def test_rows_hit_their_target_cops(self, config):
        # each row is the best alpha's fixed-COP point, re-solved at its tau_c
        alphas = np.linspace(-0.5, 1.5, 9)
        result = envelope_curve(config, alpha_grid=alphas)
        lo, hi = _cop_range(cycle_coefficients(config))
        targets = lo + (hi - lo) * np.linspace(0.01, 0.99, 80)
        assert lo == 0.0 and not result.skipped
        assert [r.psi for r in result.records] == pytest.approx(targets.tolist(), rel=1e-9)
        R = np.array([_cop_points(cycle_coefficients(replace(config, alpha=a)), targets)[1]
                      for a in alphas.tolist()])
        assert [r.alpha for r in result.records] == alphas[R.argmax(axis=0)].tolist()
        assert [r.R for r in result.records] == pytest.approx(R.max(axis=0).tolist(), rel=1e-9)

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
        totals = [p.tau_total for p in points]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        hp = [p.ratio_hp for p in points]
        assert all(b < a for a, b in zip(hp, hp[1:]))
        for p in points:
            assert np.isfinite(p.ratio_hp) and p.ratio_hp > 0
            assert np.isfinite(p.ratio_cp) and p.ratio_cp > 0

    def test_default_profile_has_the_expected_shape(self, config, coeffs):
        # tau_c/tau_p grows with the COP here, as the shape check expects
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = time_allocation_profile(coeffs, config.alpha, np.linspace(0.10, 0.14, 7))
        cp = [p.ratio_cp for p in points]
        assert all(b > a for a, b in zip(cp, cp[1:]))

    def test_points_hit_their_target_cops(self, config, coeffs):
        targets = np.linspace(0.01, 0.18, 29)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the shape check's
            points = time_allocation_profile(coeffs, config.alpha, targets)
        assert [p.psi for p in points] == pytest.approx(targets.tolist(), rel=1e-9)

    def test_shape_warnings_match_pairwise_reference(self, curve, rng):
        # random, unsorted and repeated COP targets on the default and random curves
        curves, kinds = [curve], set()
        for _ in range(8):
            try:
                curves.append(optimal_curve(random_config(rng)))
            except ConvergenceError:
                pass
        for member in curves:
            psis = [r.psi for r in member.records]
            for size in (0, 1, 5, 9):
                targets = rng.uniform(psis[0], psis[-1], size)
                if size > 2:
                    targets[1] = targets[0]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    points = time_allocation_profile(member.coeffs, member.records[0].alpha,
                                                     targets)
                messages = [str(w.message) for w in caught]
                assert messages == profile_shape_warnings_reference(points)
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
        tau_c, R = _cop_points(curve.coeffs, [r.psi for r in curve.records])
        assert tau_c.tolist() == pytest.approx([r.tau_c for r in curve.records], rel=1e-10)
        assert R.tolist() == pytest.approx([r.R for r in curve.records], rel=1e-10)

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_no_point_on_the_fixed_cop_line_beats_it(self, config):
        coeffs = cycle_coefficients(config)
        lo, hi = _cop_range(coeffs)
        for psi in (lo + (hi - lo) * np.array([0.02, 0.3, 0.6, 0.9, 0.98])).tolist():
            [tau_c], [R] = _cop_points(coeffs, [psi])
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
        tau_c, R = _cop_points(coeffs, [hi * (1.0 - 1e-9), hi * (1.0 - 1e-6), 1e-9])
        assert np.isfinite(tau_c).all() and (tau_c > 0.0).all() and (R > 0.0).all()

    def test_newton_without_convergence_raises(self, coeffs, monkeypatch):
        monkeypatch.setattr(optimize, "_NEWTON_MAXITER", 2)
        with pytest.raises(ConvergenceError, match="fixed-COP Newton .* in 2 steps"):
            _cop_points(coeffs, [0.1])


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
