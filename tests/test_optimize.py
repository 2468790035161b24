import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_config
from oracles import fixed_cop_times, profile_shape_warnings_reference, stationarity_brackets
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
    _checked_residual,
    _energy_balance,
    _stationarity_quartic,
    _stationarity_terms,
    curve_extrema,
    stationarity_residual,
)


@pytest.fixture(scope="module")
def config():
    return TricycleConfig()


@pytest.fixture(scope="module")
def coeffs(config):
    return cycle_coefficients(config)


@pytest.fixture(scope="module")
def curve(config, coeffs):
    return optimal_curve(config, coeffs=coeffs)


class TestBalancedTauH:
    def test_closes_energy_balance(self, config, coeffs):
        tau_h = balanced_tau_h(config, 9.0, 11.0, coeffs=coeffs)
        m = evaluate_cycle(config, 9.0, tau_h, 11.0, coeffs=coeffs)
        assert abs(m.work_residual) < 1e-12 * abs(m.cold.Q)

    def test_infeasible_below_reversible_amplitude(self):
        cfg = TricycleConfig(delta_c=0.3)  # below the reversible amplitude
        with pytest.raises(ValueError):
            balanced_tau_h(cfg, 1e6, 1e6)


class TestSolveTimeAllocation:
    def test_residuals_within_contract(self, config, coeffs):
        for tau_c in (2.0, 9.0, 50.0, 400.0):
            sols = solve_time_allocation(config, tau_c, coeffs=coeffs)
            assert all(s.tau_h > 0 and s.tau_p > 0 for s in sols)
            rates = [s.metrics.R for s in sols]
            assert rates == sorted(rates, reverse=True)
            for sol in sols:
                total = sol.tau_c + sol.tau_h + sol.tau_p
                assert abs(sol.residual_constraint) < 1e-8 * total
                assert abs(sol.metrics.work_residual) < 1e-8 * abs(sol.metrics.cold.Q)

    def test_first_order_stationarity_on_constraint_surface(self, config, coeffs):
        # move along the fixed-COP, zero-work family and confirm R cannot gain
        sol = solve_time_allocation(config, 9.0, coeffs=coeffs)[0]
        R0, psi0 = sol.metrics.R, sol.metrics.psi
        for eps in (-1e-4, 1e-4):
            tau_c = sol.tau_c * (1.0 + eps)
            times = fixed_cop_times(coeffs, psi0, tau_c)
            assert times is not None
            tau_h, tau_p = times
            m = evaluate_cycle(config, tau_c, tau_h, tau_p, coeffs=coeffs)
            assert m.psi == pytest.approx(psi0, rel=1e-12)
            assert abs(m.work_residual) < 1e-12
            assert m.R <= R0 * (1.0 + 1e-6)

    def test_sign_structure_asserted(self, coeffs):
        broken = CycleCoefficients(T=coeffs.T, dS=coeffs.dS,
                                   Sigma=(coeffs.Sigma[0], -coeffs.Sigma[1], coeffs.Sigma[2]))
        with pytest.raises(ConvergenceError):
            solve_time_allocation(None, 9.0, coeffs=broken)

    def test_infeasible_amplitude_reported(self):
        cfg = TricycleConfig(delta_c=0.3)
        with pytest.raises(ConvergenceError):
            solve_time_allocation(cfg, 9.0)

    def test_deterministic(self, config, coeffs):
        a = solve_time_allocation(config, 9.0, coeffs=coeffs)
        b = solve_time_allocation(config, 9.0, coeffs=coeffs)
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
        sols = solve_time_allocation(None, 50.0, coeffs=large_tau_coeffs)
        big = [sol for sol in sols if sol.tau_p > 1e4]
        assert len(big) == 1 and big[0].tau_p == pytest.approx(61056.2, rel=1e-6)
        assert any(a <= big[0].tau_p <= b
                   for a, b in stationarity_brackets(large_tau_coeffs, 50.0))

    def test_root_perturbed_by_1e_10_rejected(self, coeffs, large_tau_coeffs):
        for co, tau_c in ((coeffs, 9.0), (large_tau_coeffs, 50.0)):
            for sol in solve_time_allocation(None, tau_c, coeffs=co):
                assert _checked_residual(co, tau_c, sol.tau_h, sol.tau_p) == \
                    sol.residual_constraint
                for rel in (1e-10, -1e-10):
                    tau_p = sol.tau_p * (1.0 + rel)
                    tau_h, _ = _energy_balance(co, tau_c, tau_p)
                    with pytest.raises(ConvergenceError, match="residual"):
                        _checked_residual(co, tau_c, tau_h, tau_p)

    def test_spurious_pole_root_drops_only_itself(self, coeffs, monkeypatch):
        # above tau_c ~ 6e7 the quartic has a root just above the pole -M/K of
        # the balanced tau_h that does not solve F = 0 at all; it is dropped,
        # and the valid root of the same tau_c is kept
        misses = []

        def recording(co, tau_c, tau_h, tau_p):
            try:
                return _checked_residual(co, tau_c, tau_h, tau_p)
            except ConvergenceError:
                terms = _stationarity_terms(co, tau_c, tau_h, tau_p)
                misses.append(abs(sum(terms)) / sum(map(abs, terms)))
                raise

        monkeypatch.setattr(optimize, "_checked_residual", recording)
        for tau_c in np.geomspace(6e7, 1e9, 60).tolist():
            sols = solve_time_allocation(None, tau_c, coeffs=coeffs)
            assert sols
            for sol in sols:
                assert _checked_residual(coeffs, tau_c, sol.tau_h, sol.tau_p) == \
                    sol.residual_constraint
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
            yield co, tau_c, solve_time_allocation(None, tau_c, coeffs=co)
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

    def test_skips_counted(self, config, coeffs):
        # grid extending into the non-refrigerating small-tau_c region
        grid = np.geomspace(0.05, 3000.0, 120)
        result = optimal_curve(config, tau_c_grid=grid, coeffs=coeffs)
        assert result.skipped
        assert len(result.records) + len(result.skipped) == 120

    def test_grid_validation(self, config, coeffs):
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.geomspace(1, 100, 50), coeffs=coeffs)
        with pytest.raises(ValueError):
            optimal_curve(config, tau_c_grid=np.linspace(-1, 100, 120), coeffs=coeffs)

    def test_deterministic(self, config, coeffs, curve):
        again = optimal_curve(config, coeffs=coeffs)
        assert again.records == curve.records


class TestObjectiveMaxima:
    def test_refinement_dominates_grid(self, config, coeffs, curve):
        psi_R, R_max, sol = max_cooling_rate(config, coeffs=coeffs)
        assert R_max >= max(r.R for r in curve.records)
        assert sol.metrics.R == pytest.approx(R_max, rel=1e-12)
        total = sol.tau_c + sol.tau_h + sol.tau_p
        assert abs(sol.residual_constraint) < 1e-8 * total
        assert abs(sol.metrics.work_residual) < 1e-8 * abs(sol.metrics.cold.Q)

    def test_figure_of_merit_peak_sits_right_of_rate_peak(self, config, coeffs):
        psi_R, R_max, sol_R = max_cooling_rate(config, coeffs=coeffs)
        psi_chi, chi_max, sol_chi = max_figure_of_merit(config, coeffs=coeffs)
        assert psi_chi > psi_R
        assert chi_max >= sol_R.metrics.chi

    def test_refinement_reuses_its_solves(self, config, monkeypatch):
        # golden's best point comes from its own evaluations, and the best grid
        # record is solved only when it is returned
        solved = []
        original = optimize.solve_time_allocation

        def counting(*args, **kwargs):
            solved.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(optimize, "solve_time_allocation", counting)
        curve_extrema(config)
        assert len(solved) <= 202

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
        _, R_max, sol = max_cooling_rate(config, coeffs=coeffs)
        for factor in (0.99, 1.01):
            neighbour = solve_time_allocation(config, sol.tau_c * factor, coeffs=coeffs)[0]
            assert neighbour.metrics.R <= R_max * (1.0 + 1e-9)


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
        assert sweep.R_max == curve_extrema(replace(config, alpha=sweep.alpha_R))[1].R_max
        assert sweep.chi_max == \
            curve_extrema(replace(config, alpha=sweep.alpha_chi))[1].chi_max


class TestEnvelope:
    @pytest.fixture(scope="class")
    def small_envelope(self, config):
        return envelope_curve(config, alpha_points=5,
                              psi_grid=np.linspace(0.06, 0.16, 9))

    def test_envelope_dominates_flat_bath_member(self, config, coeffs, small_envelope):
        member = optimal_curve(config, coeffs=coeffs).records
        psis = np.array([r.psi for r in member])
        for rec in small_envelope.r_curve:
            if psis[0] <= rec.psi <= psis[-1]:
                member_R = float(np.interp(rec.psi, psis, [r.R for r in member]))
                assert rec.R >= member_R * (1.0 - 1e-9)

    def test_builds_each_curve_once(self, config, monkeypatch):
        # the per-psi selection and the peak refinement share one memoized family
        built = []
        original = optimize.optimal_curve

        def counting(cfg, *args, **kwargs):
            built.append(cfg.alpha)
            return original(cfg, *args, **kwargs)

        monkeypatch.setattr(optimize, "optimal_curve", counting)
        envelope_curve(config, alpha_points=5, psi_grid=np.linspace(0.06, 0.16, 9))
        assert set(np.linspace(-0.5, 1.5, 5).tolist()) < set(built)  # grid, then golden
        assert len(set(built)) == len(built)

    def test_array_inversion_matches_scalar_interp(self, curve):
        recs = curve.records
        psis = np.array([r.psi for r in recs])
        targets = np.concatenate([psis[:1], psis[-1:], psis[::7],
                                  np.linspace(psis[0], psis[-1], 97)])
        inverted = optimize._interp_on_curve(recs, targets)
        for key, values in zip(("R", "chi", "tau_c"), inverted):
            column = [getattr(r, key) for r in recs]
            assert values[0] == column[0] and values[1] == column[-1]
            for psi, value in zip(targets.tolist(), values.tolist()):
                assert value == float(np.interp(psi, psis, column))
        just_outside = [np.nextafter(psis[0], -np.inf), np.nextafter(psis[-1], np.inf)]
        for values in optimize._interp_on_curve(recs, np.array(just_outside)):
            assert np.isnan(values).all()

    def test_peak_ordering(self, small_envelope):
        assert small_envelope.psi_R <= small_envelope.psi_chi

    def test_unattainable_cop_reported(self, config):
        with pytest.raises(ConvergenceError):
            envelope_curve(config, alpha_points=5,
                           psi_grid=np.array([0.999]))


class TestTimeAllocationProfile:
    def test_profile_shape(self, curve):
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", RuntimeWarning)
            points = time_allocation_profile(curve, np.linspace(0.10, 0.14, 7))
        totals = [p.tau_total for p in points]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        hp = [p.ratio_hp for p in points]
        assert all(b < a for a, b in zip(hp, hp[1:]))
        for p in points:
            assert np.isfinite(p.ratio_hp) and p.ratio_hp > 0
            assert np.isfinite(p.ratio_cp) and p.ratio_cp > 0

    def test_shape_violation_warns(self, curve):
        # tau_c/tau_p grows with the COP here, and the profile says so
        with pytest.warns(RuntimeWarning, match="ratios"):
            time_allocation_profile(curve, np.linspace(0.10, 0.14, 7))

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
                    points = time_allocation_profile(member, targets)
                messages = [str(w.message) for w in caught]
                assert messages == profile_shape_warnings_reference(points)
                kinds.update(m.split(" between")[0] for m in messages)
        assert kinds == {"total time not increasing", "duration ratios not decreasing"}

    def test_unreachable_target_reported(self, curve):
        with pytest.raises(ConvergenceError):
            time_allocation_profile(curve, np.array([0.32]))


class TestFreeTimeSweep:
    def test_interior_maximum(self, config, coeffs):
        tc = np.linspace(1.0, 60.0, 60)
        tp = np.linspace(1.0, 60.0, 60)
        sweep = free_time_sweep(config, tc, tp, coeffs=coeffs)
        flat = np.nanargmax(sweep.R)
        i, j = np.unravel_index(flat, sweep.R.shape)
        assert 0 < i < len(tc) - 1 and 0 < j < len(tp) - 1

    def test_single_humped_slice_through_optimum(self, config, coeffs):
        tc = np.linspace(1.0, 60.0, 60)
        tp = np.linspace(1.0, 60.0, 60)
        sweep = free_time_sweep(config, tc, tp, coeffs=coeffs)
        i, j = np.unravel_index(np.nanargmax(sweep.R), sweep.R.shape)
        slice_R = sweep.R[:, j]
        valid = ~np.isnan(slice_R)
        vals = slice_R[valid]
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[:peak + 1]) > 0)
        assert np.all(np.diff(vals[peak:]) < 0)

    def test_present_entries_are_balanced(self, config, coeffs):
        tc = np.linspace(2.0, 20.0, 5)
        tp = np.linspace(2.0, 20.0, 5)
        sweep = free_time_sweep(config, tc, tp, coeffs=coeffs)
        for i in range(len(tc)):
            for j in range(len(tp)):
                if np.isnan(sweep.R[i, j]):
                    continue
                m = evaluate_cycle(config, tc[i], sweep.tau_h[i, j], tp[j], coeffs=coeffs)
                assert abs(m.work_residual) < 1e-8
                assert m.R == pytest.approx(sweep.R[i, j], rel=1e-12)

    def test_infeasible_cells_marked_absent(self, config, coeffs):
        sweep = free_time_sweep(config, np.array([0.05]), np.array([5.0]), coeffs=coeffs)
        assert np.isnan(sweep.R[0, 0]) and np.isnan(sweep.tau_h[0, 0])

    def test_grid_validation(self, config):
        with pytest.raises(ValueError):
            free_time_sweep(config, np.array([-1.0]), np.array([1.0]))

    def test_array_sweep_equals_scalar_loop(self, config, coeffs):
        # the array form keeps the scalar operation order, so cells agree exactly
        tc = np.geomspace(0.05, 60.0, 17)
        tp = np.geomspace(0.5, 60.0, 13)
        sweep = free_time_sweep(config, tc, tp, coeffs=coeffs)
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


def test_stationarity_residual_matches_solution(config, coeffs):
    sol = solve_time_allocation(config, 9.0, coeffs=coeffs)[0]
    assert stationarity_residual(coeffs, sol.tau_c, sol.tau_h, sol.tau_p) == \
        pytest.approx(sol.residual_constraint, abs=1e-15)
