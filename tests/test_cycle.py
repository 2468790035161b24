from dataclasses import replace

import numpy as np
import pytest

from conftest import light_draw, random_config
from oracles import report_rows, zeroth_heat_sum_curve_reference, zeroth_heat_sum_reference
from qtricycle import (
    ConvergenceError,
    TricycleConfig,
    balanced_tau_h,
    cycle_coefficients,
    evaluate_cycle,
    reversible_amplitude,
    reversible_cop,
    zeroth_heat_sum,
    zeroth_heat_sum_curve,
)
from qtricycle import cycle
from qtricycle.protocol import frequency
from qtricycle.thermo import branch_entropy_change, equilibrium_entropy

PSI_R_DEFAULT = 1.0 / 3.0
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def default_coeffs():
    return cycle_coefficients(TricycleConfig())


class TestEvaluateCycle:
    def test_balanced_defaults(self, default_coeffs):
        tau_h = balanced_tau_h(default_coeffs, 9.0, 11.0)
        m = evaluate_cycle(default_coeffs, 9.0, tau_h, 11.0)
        assert m.valid
        assert abs(m.work_residual) < 1e-8
        assert m.psi == pytest.approx(m.cold.Q / m.hot.Q, rel=1e-14)
        assert m.R == pytest.approx(m.cold.Q / (9.0 + tau_h + 11.0), rel=1e-14)
        assert m.chi == pytest.approx(m.psi * m.R, rel=1e-14)
        assert m.entropy_production >= -1e-10

    def test_quasistatic_reversible_point(self, default_config):
        cfg = TricycleConfig(delta_c=reversible_amplitude(default_config))
        m = evaluate_cycle(cycle_coefficients(cfg), 1e9, 1e9, 1e9)
        assert abs(m.psi - PSI_R_DEFAULT) < 1e-4

    def test_entropy_production_identity(self, default_coeffs):
        taus = (3.0, 17.0, 8.0)
        m = evaluate_cycle(default_coeffs, *taus)
        direct = -sum(s / t for s, t in zip(default_coeffs.Sigma, taus))
        assert m.entropy_production == pytest.approx(direct, abs=1e-10)

    def test_second_law_bound_when_balanced(self, rng):
        checked = 0
        while checked < 40:
            cfg = random_config(rng)
            coeffs = cycle_coefficients(cfg)
            tau_c = float(rng.uniform(2.0, 100.0))
            tau_p = float(rng.uniform(2.0, 100.0))
            try:
                tau_h = balanced_tau_h(coeffs, tau_c, tau_p)
            except ValueError:
                continue
            m = evaluate_cycle(coeffs, tau_c, tau_h, tau_p)
            if not m.valid or m.cold.Q <= 0.0:
                continue
            psi_r = reversible_cop(cfg.T_c, cfg.T_h, cfg.T_p)
            assert m.psi <= psi_r + 1e-10
            assert m.entropy_production >= -1e-10
            checked += 1

    def test_invalid_flag_when_hot_heat_reverses(self, default_coeffs):
        # tau_h below |Sigma_h|/dS_h makes Q_h negative
        m = evaluate_cycle(default_coeffs, 9.0, 0.5, 11.0)
        assert not m.valid
        assert np.isnan(m.psi) and np.isnan(m.chi)
        assert np.isfinite(m.R)

    def test_rejects_nonpositive_durations(self, default_coeffs):
        with pytest.raises(ValueError):
            evaluate_cycle(default_coeffs, 0.0, 1.0, 1.0)


class TestReversibleCop:
    def test_default_temperatures(self):
        value = reversible_cop(0.2, 1.0, 0.5)
        assert abs(value - 1.0 / 3.0) <= np.finfo(float).eps

    def test_vanishes_when_pump_meets_hot(self):
        assert reversible_cop(0.2, 1.0, 1.0 - 1e-12) < 1e-11

    def test_diverges_when_pump_meets_cold(self):
        assert reversible_cop(0.2, 1.0, 0.2 + 1e-9) > 1e8
        with pytest.raises(ValueError):
            reversible_cop(0.2, 1.0, 0.2)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            reversible_cop(0.5, 1.0, 0.2)


class TestReversibleAmplitude:
    def test_default_value(self, default_config):
        root = reversible_amplitude(default_config)
        assert root == pytest.approx(0.3492, abs=1e-3)

    def test_root_residual(self, default_config):
        from dataclasses import replace
        root = reversible_amplitude(default_config)
        assert abs(zeroth_heat_sum(replace(default_config, delta_c=root))) < 1e-10

    def test_sign_on_each_side(self, default_config):
        from dataclasses import replace
        root = reversible_amplitude(default_config)
        assert zeroth_heat_sum(replace(default_config, delta_c=root * 0.98)) < 0.0
        assert zeroth_heat_sum(replace(default_config, delta_c=root * 1.02)) > 0.0
        assert zeroth_heat_sum(default_config) > 0.0  # default amplitude is irreversible

    def test_no_bracket_reported(self, default_config):
        with pytest.raises(ConvergenceError):
            reversible_amplitude(default_config, zeroth_heat_sum_curve(
                default_config, np.linspace(0.5, 2.0, 400)))

    def test_default_root_takes_few_kernel_calls(self, default_config, monkeypatch):
        calls = []
        kernel = cycle._zeroth_heat_sums
        monkeypatch.setattr(cycle, "_zeroth_heat_sums",
                            lambda *args: calls.append(args) or kernel(*args))
        reversible_amplitude(default_config)
        assert len(calls) <= 8  # the scan and one array pass per 64-fold shrink

    def test_refinement_cap_reported(self, default_config, monkeypatch):
        monkeypatch.setattr(cycle, "_ROOT_MAXITER", 3)
        with pytest.raises(ConvergenceError, match="not refined in 3 passes"):
            reversible_amplitude(default_config)

    def test_random_configs_have_unique_root(self, rng):
        from dataclasses import replace
        for _ in range(5):
            cfg = random_config(rng)
            root = reversible_amplitude(cfg)
            assert zeroth_heat_sum(replace(cfg, delta_c=root * 1.05)) > 0.0
            assert zeroth_heat_sum(replace(cfg, delta_c=root * 0.95)) < 0.0


class TestZerothHeatSumCurve:
    def test_straddles_root(self, default_config):
        root = reversible_amplitude(default_config)
        grid = np.linspace(0.1, 1.0, 181)
        delta_c, values = zeroth_heat_sum_curve(default_config, grid)
        assert delta_c.tolist() == grid.tolist()
        signs = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
        assert signs.size == 1
        lo, hi = grid[signs[0]], grid[signs[0] + 1]
        assert lo < root < hi

    def test_grid_validation(self, default_config):
        with pytest.raises(ValueError):
            zeroth_heat_sum_curve(default_config, [0.5, 0.4])
        with pytest.raises(ValueError):
            zeroth_heat_sum_curve(default_config, [-0.1, 0.5])


def amplitude_root_reference(config, points):
    """The first sign change of a reference scan, refined on the per-config sum:
    64 equal sub-cells per pass, keeping the first whose ends change sign or
    touch zero, until the cell is below 1e-12 + 4 eps * its midpoint."""
    grid, vals = np.array(points).T
    i = int(np.nonzero(vals[:-1] * vals[1:] < 0.0)[0][0])
    a, b = grid[i], grid[i + 1]
    while True:
        x = np.linspace(a, b, 65)
        f = [zeroth_heat_sum_reference(replace(config, delta_c=float(dc))) for dc in x]
        j = next(k for k in range(64) if np.sign(f[k]) * np.sign(f[k + 1]) <= 0.0)
        a, b = x[j], x[j + 1]
        if b - a < 1e-12 + 4 * EPS * abs(0.5 * (a + b)):
            return 0.5 * (a + b)


class TestZerothHeatSumArrayPath:
    """The one-expression scan against the per-config loop it replaced."""

    @staticmethod
    def draws(rng):
        for _ in range(8):
            yield random_config(rng), np.linspace(0.01, 2.0, 400)
        for _ in range(8):
            config, _, (lo, hi) = light_draw(rng)
            yield config, np.linspace(lo, hi, 400)

    def test_scan_and_root_equal_the_per_config_loop(self, rng):
        roots = 0
        for config, grid in self.draws(rng):
            points = zeroth_heat_sum_curve(config, grid)
            reference = zeroth_heat_sum_curve_reference(config, grid)
            assert report_rows(points) == reference  # exact: every delta_c and every sum
            if any(a * b < 0.0 for (_, a), (_, b) in zip(reference, reference[1:])):
                assert reversible_amplitude(config, points) == \
                    amplitude_root_reference(config, reference)
                roots += 1
        assert roots >= 8

    def test_single_point_equals_the_branch_sum(self, rng):
        for _ in range(20):
            config = random_config(rng)
            value = zeroth_heat_sum(config)
            assert type(value) is float
            assert value == zeroth_heat_sum_reference(config)


def entropy_mp(mp, x):
    """Binary entropy of the thermal state at beta*omega = x."""
    e = mp.exp(-x)
    p = e / (1 + e)
    return -(p * mp.log(p) + (1 - p) * mp.log(1 - p))


def entropy_bound(mp, x):
    """(S(x), rounding scale (1 + x) S(x)): a relative error eps in x moves S by
    about x S'(x) eps, and |x S'(x)| <= (1 + x) S(x)."""
    S = entropy_mp(mp, x)
    return S, (1 + x) * S


def zeroth_heat_sum_mp(mp, config, delta_c):
    """(sum_v T_v dS_v, sum_v T_v of both endpoints' rounding scales) in mpmath,
    the linked amplitudes derived in mpmath from the config's independent
    parameters."""
    T_c, T_h, T_p, z_c, z_h, d_c = map(mp.mpf, (config.T_c, config.T_h, config.T_p,
                                                config.zeta_c, config.zeta_h, delta_c))
    z_p = (1 + z_c * z_h) / (z_c + z_h)
    d_h = T_h * (z_c - 1) / (T_c * (1 + z_h)) * d_c
    d_p = T_p * (z_c + z_h) / (T_c * (1 + z_h)) * d_c
    total = scale = 0
    for T, d, z, sign in ((T_c, d_c, z_c, 1), (T_h, d_h, z_h, 1), (T_p, d_p, z_p, -1)):
        (wide, wide_scale), (narrow, narrow_scale) = (
            entropy_bound(mp, d * (z + 1) / T), entropy_bound(mp, d * (z - 1) / T))
        total += sign * T * (narrow - wide)
        scale += T * (wide_scale + narrow_scale)
    return total, scale


# beta*omega at the branch endpoints spans 0.009 .. 40 over these configs; the
# last is delta_c = 2 at T_c = 0.2, whose cold branch starts at beta*omega = 40.
MP_CONFIGS = [
    *(TricycleConfig(delta_c=dc) for dc in (0.1, 0.2, 0.3492, 0.5333, 1.0, 2.0)),
    TricycleConfig(T_c=0.3, T_p=0.6, T_h=1.5, zeta_c=1.2, zeta_h=1.2, delta_c=0.15),
    TricycleConfig(zeta_c=3.0, zeta_h=2.5, delta_c=2.0),
]


class TestZerothHeatSumAgainstMpmath:
    """50-digit references for the quasi-static heats and the reversible amplitude."""

    def test_configs_span_the_beta_omega_range(self):
        x = [d * (z + sign) / T for cfg in MP_CONFIGS
             for T, d, z in zip((cfg.T_c, cfg.T_h, cfg.T_p),
                                (cfg.delta_c, cfg.delta_h, cfg.delta_p),
                                (cfg.zeta_c, cfg.zeta_h, cfg.zeta_p))
             for sign in (-1.0, 1.0)]
        assert min(x) <= 0.1 and max(x) >= 40.0 - 1e-12

    def test_entropy_change_of_each_branch(self, mp):
        for config in MP_CONFIGS:
            for branch in config.branches():
                T = branch.temperature
                w0, w1 = (frequency(branch, s) for s in (0.0, 1.0))
                (S0, scale0), (S1, scale1) = (entropy_bound(mp, mp.mpf(w) / mp.mpf(T))
                                              for w in (w0, w1))
                for w, S, scale in ((w0, S0, scale0), (w1, S1, scale1)):
                    assert abs(equilibrium_entropy(T, w) - S) <= 4 * EPS * scale
                dS = branch_entropy_change(branch)
                assert abs(dS - (S1 - S0)) <= 4 * EPS * (scale0 + scale1)

    def test_heat_sum(self, mp):
        for config in MP_CONFIGS:
            total, scale = zeroth_heat_sum_mp(mp, config, config.delta_c)
            assert abs(zeroth_heat_sum(config) - total) <= 4 * EPS * scale

    def test_heat_sum_next_to_the_root(self, mp, default_config):
        # the sum cancels here, so the bound is absolute, on the size of its terms
        root = reversible_amplitude(default_config)
        grid = root * (1.0 + np.linspace(-1e-6, 1e-6, 41))
        for dc, value in report_rows(zeroth_heat_sum_curve(default_config, grid)):
            total, scale = zeroth_heat_sum_mp(mp, default_config, dc)
            assert abs(value - total) <= 4 * EPS * scale

    def test_reversible_amplitude(self, mp, rng):
        configs = [TricycleConfig(), TricycleConfig(zeta_c=3.0, zeta_h=2.5)]
        while len(configs) < 6:
            config = random_config(rng)
            try:
                reversible_amplitude(config)
            except ConvergenceError:
                continue
            configs.append(config)
        for config in configs:
            root = reversible_amplitude(config)
            exact = mp.findroot(lambda dc: zeroth_heat_sum_mp(mp, config, dc)[0],
                                (mp.mpf(root) * 0.99, mp.mpf(root) * 1.01),
                                solver="anderson")
            # refinement stops once its cell is below 1e-12 + 4 eps * root
            assert abs(root - exact) <= 2e-12 + 8 * EPS * exact
