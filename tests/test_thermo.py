import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import light_draw, random_branch, random_config
from oracles import (
    density_column,
    effective_temperature,
    report_rows,
    sigma_direct,
    ts_trajectory_reference,
    von_neumann_entropy,
)
from qtricycle import (
    ConfigError,
    ConvergenceError,
    PositivityError,
    TricycleConfig,
    branch_entropy_change,
    branch_heat,
    equilibrium_entropy,
    gibbs_state,
    lindblad,
    perturbed_state,
    sigma_coefficient,
    thermo,
    ts_trajectory,
)
from qtricycle.protocol import frequency
from qtricycle.thermo import QUADRATURE_RTOL, gauss_legendre_adaptive, population_lag


class TestQuadrature:
    def test_polynomial(self):
        assert gauss_legendre_adaptive(lambda s: s ** 3) == pytest.approx(0.25, rel=1e-14)

    def test_oscillatory(self):
        val = gauss_legendre_adaptive(lambda s: np.sin(8 * np.pi * s) ** 2)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_zero_integrand(self):
        assert gauss_legendre_adaptive(lambda s: np.zeros_like(s)) == 0.0

    def test_non_convergence_reported(self):
        with pytest.raises(ConvergenceError):
            # the estimate equals the sample count, so it doubles with every panel doubling
            gauss_legendre_adaptive(lambda s: np.full(s.shape, float(s.size)))

    def test_each_row_is_its_own_integral(self):
        # the peaked row needs 256 panels, the others settle at 128; each keeps
        # the bits of the same integrand integrated alone, and a 1-D integrand
        # gives a float
        rows = [lambda s: s ** 3, lambda s: np.sin(8 * np.pi * s) ** 2,
                lambda s: 1.0 / (1e-4 + (s - 0.3) ** 2), lambda s: np.zeros_like(s)]
        stacked = gauss_legendre_adaptive(lambda s: np.stack([f(s) for f in rows]))
        alone = [gauss_legendre_adaptive(f) for f in rows]
        assert type(alone[0]) is float and stacked.shape == (len(rows),)
        assert [x.hex() for x in stacked.tolist()] == [x.hex() for x in alone]
        one = gauss_legendre_adaptive(lambda s: rows[1](s)[None, :])
        assert one.shape == (1,) and one[0] == alone[1]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_raises_after_one_call(self, bad):
        calls = []

        def f(s):
            calls.append(s.size)
            return np.stack([s, np.where(s > 0.5, bad, s)])

        with pytest.raises(ValueError, match="not finite at 64 panels"):
            gauss_legendre_adaptive(f)
        assert calls == [512]


class TestEquilibriumEntropy:
    def test_pure_state_limit(self):
        assert equilibrium_entropy(1.0, 60.0) < 1e-24

    def test_maximally_mixed_limit(self):
        assert equilibrium_entropy(1.0, 1e-8) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_third_population_point(self):
        expected = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)
        assert equilibrium_entropy(1.0, math.log(2.0)) == pytest.approx(expected, rel=1e-12)

    def test_matches_von_neumann_of_gibbs(self, rng):
        for _ in range(30):
            T = rng.uniform(0.1, 2.0)
            w = rng.uniform(0.1, 5.0)
            assert equilibrium_entropy(T, w) == pytest.approx(
                von_neumann_entropy(density_column(gibbs_state(T, w))), rel=1e-12)


class TestEntropyChange:
    def test_default_signs(self, default_config):
        assert branch_entropy_change(default_config.branch("c")) > 0.0
        assert branch_entropy_change(default_config.branch("h")) > 0.0
        assert branch_entropy_change(default_config.branch("p")) < 0.0

    def test_nearly_frozen_schedule(self, default_config):
        # delta -> 0 freezes the endpoints, so the change collapses with it
        cfg = type(default_config)(delta_c=1e-10)
        assert abs(branch_entropy_change(cfg.branch("c"))) < 1e-9

    def test_closure_around_cycle(self, rng):
        for _ in range(50):
            cfg = random_config(rng)
            total = sum(branch_entropy_change(cfg.branch(r)) for r in "chp")
            assert abs(total) < 1e-10


class TestSigmaCoefficient:
    def test_always_nonpositive(self, rng):
        for _ in range(50):
            assert sigma_coefficient(random_branch(rng)) <= 0.0

    def test_nearly_frozen_schedule_vanishes(self, default_config):
        cfg = type(default_config)(delta_c=1e-10)
        assert abs(sigma_coefficient(cfg.branch("c"))) < 1e-12

    def test_against_direct_trace_integral(self, rng):
        # also exercised at scale by the acceptance suite
        for _ in range(5):
            branch = random_branch(rng)
            closed = sigma_coefficient(branch)
            direct = sigma_direct(branch)
            assert closed == pytest.approx(direct, rel=1e-6)


def hexes(values):
    return [float(v).hex() for v in values]


class TestStackedBranches:
    """A tuple of branches is one stack, a row per branch: each row keeps the
    bits of its branch evaluated alone."""

    @staticmethod
    def integrand_calls(monkeypatch):
        """Sample counts of every integrand call of the quadrature from now on."""
        sizes, original = [], thermo.gauss_legendre_adaptive
        monkeypatch.setattr(thermo, "gauss_legendre_adaptive",
                            lambda f: original(lambda s: sizes.append(s.size) or f(s)))
        return sizes

    def test_rows_equal_one_row_calls(self, rng):
        for _ in range(10):
            branches = random_config(rng).branches()
            for fn in (branch_entropy_change, sigma_coefficient):
                stacked = fn(branches)
                alone = [fn(b) for b in branches]
                assert [type(x) for x in (*stacked, *alone)] == [float] * 6
                assert hexes(stacked) == hexes(alone)

    def test_alpha_rows_equal_one_row_calls(self, rng):
        # a row per (branch, alpha): the three branches' rows of alphas, 0.5
        # among them, have the bits of each branch's own row of alphas
        alphas = np.linspace(-0.5, 1.5, 41)
        for _ in range(4):
            branches = dataclasses.replace(random_config(rng), alpha=alphas).branches()
            stacked = sigma_coefficient(branches)
            assert len(stacked) == 3
            for branch, row in zip(branches, stacked, strict=True):
                assert row.shape == alphas.shape
                assert hexes(row) == hexes(sigma_coefficient(branch))

    def test_rows_settle_at_their_own_panel_counts(self, monkeypatch):
        # a sharp cold and pump integrand need 256 panels, the hot one 128: the
        # hot row keeps its 128-panel estimate while the others go on
        branches = TricycleConfig(T_c=1e-4, zeta_c=1.01, delta_c=1.0).branches()
        sizes = self.integrand_calls(monkeypatch)
        alone, panels = [], []
        for branch in branches:
            alone.append(sigma_coefficient(branch))
            panels.append(sizes[-1] // 8)
            sizes.clear()
        assert panels == [256, 128, 256]
        assert hexes(sigma_coefficient(branches)) == hexes(alone)
        assert sizes == [512, 1024, 2048]

    def test_tiny_cold_temperature_raises_before_any_integrand_call(self, monkeypatch):
        sizes = self.integrand_calls(monkeypatch)
        with pytest.raises(ConfigError, match="temperature 1e-300 of branch 'c' is too small"):
            sigma_coefficient(TricycleConfig(T_c=1e-300).branches())
        assert sizes == []


def sigma_mp(mp, branch):
    """(Sigma, mpmath's relative error estimate) of the branch's exact float
    parameters at 50 digits.  With q = exp(-beta omega),
    n(n+1)/(2n+1)^3 = q (1 - q)/(1 + q)^3.  The integrand is scaled by
    exp(beta omega_min): mpmath's stopping rule is absolute, and the cold
    branch at T_c = 0.01 has Sigma near 1e-42."""
    T, d, z, g0, a = map(mp.mpf, (branch.temperature, branch.delta, branch.zeta,
                                  branch.gamma0, branch.alpha))
    sign = 1 if branch.phase == "decreasing" else -1
    x_min = d * (z - 1) / T

    def integrand(s):
        w = d * (sign * mp.cos(mp.pi * s) + z)
        q = mp.exp(-w / T)
        return ((mp.pi * d * mp.sin(mp.pi * s)) ** 2 * mp.exp(x_min - w / T) * (1 - q)
                / (g0 * w ** a * (1 + q) ** 3))

    value, error = mp.quad(integrand, [0, mp.mpf(1) / 2, 1], error=True)
    return -mp.exp(-x_min) * value / T ** 2, error / value


# The default config, both edges of the alpha window, and beta*omega up to 300
# (T_c = 0.01: the cold branch runs 300 -> 100, the pump 33 -> 300).
SIGMA_MP_CONFIGS = [
    TricycleConfig(),
    TricycleConfig(alpha=-0.5),
    TricycleConfig(alpha=1.5),
    TricycleConfig(T_c=0.01, delta_c=1.0),
]


class TestSigmaAgainstMpmath:
    """50-digit references for the dissipation coefficient Sigma."""

    def test_configs_reach_large_beta_omega(self):
        x = [frequency(b, s) / b.temperature
             for b in SIGMA_MP_CONFIGS[-1].branches() for s in (0.0, 1.0)]
        assert max(x) >= 300.0 - 1e-9

    def test_within_the_quadrature_tolerance(self, mp):
        for config in SIGMA_MP_CONFIGS:
            for branch in config.branches():
                exact, error = sigma_mp(mp, branch)
                assert abs(error) < 1e-40
                assert abs(sigma_coefficient(branch) - exact) <= QUADRATURE_RTOL * abs(exact)


class TestBranchHeat:
    def test_identities(self, default_config):
        b = default_config.branch("c")
        bt = branch_heat(b, 9.0)
        assert bt.Q0 == pytest.approx(b.temperature * bt.dS_eq, rel=1e-12)
        assert bt.Q1 == pytest.approx(b.temperature * bt.Sigma / 9.0, rel=1e-12)
        assert bt.Q == bt.Q0 + bt.Q1
        assert bt.Q < bt.Q0  # finite-time correction always costs heat

    def test_quasistatic_limit(self, default_config):
        bt = branch_heat(default_config.branch("c"), 1e9)
        assert abs(bt.Q1) < 1e-8 * abs(bt.Q0)
        assert bt.Q == pytest.approx(bt.Q0, rel=1e-8)

    def test_inverse_duration_scaling(self, default_config):
        b = default_config.branch("h")
        assert branch_heat(b, 4.0).Q1 == 2.0 * branch_heat(b, 8.0).Q1

    def test_direct_first_order_heat(self, rng):
        for _ in range(3):
            branch = random_branch(rng)
            tau = float(rng.uniform(5.0, 50.0))
            bt = branch_heat(branch, tau)
            direct_Q1 = branch.temperature * sigma_direct(branch) / tau
            assert bt.Q1 == pytest.approx(direct_Q1, rel=1e-6)

    def test_domain(self, default_config):
        with pytest.raises(ValueError):
            branch_heat(default_config.branch("c"), 0.0)


class TestPerturbedState:
    def test_endpoints_are_thermal(self, default_config):
        from qtricycle.protocol import frequency
        for res, tau in (("c", 9.0), ("h", 7.0), ("p", 11.0)):
            b = default_config.branch(res)
            for s in (0.0, 1.0):
                p = perturbed_state(b, s, tau)
                ref = gibbs_state(b.temperature, frequency(b, s))
                assert abs(p - ref[0]) < 1e-15

    def test_lag_shrinks_as_inverse_duration(self, default_config):
        from qtricycle.protocol import frequency
        b = default_config.branch("c")
        ss = np.linspace(0.0, 1.0, 41)

        def max_gap(tau):
            gaps = []
            for s in ss:
                ref = gibbs_state(b.temperature, frequency(b, float(s)))
                gaps.append(abs(perturbed_state(b, float(s), tau) - ref[0]))
            return max(gaps)

        g100, g200 = max_gap(100.0), max_gap(200.0)
        assert g200 < g100
        assert g200 / g100 == pytest.approx(0.5, rel=1e-6)

    def test_trace_exact_and_valid(self, rng):
        for _ in range(30):
            branch = random_branch(rng)
            s, tau = float(rng.uniform(0, 1)), float(rng.uniform(20, 200))
            p = perturbed_state(branch, s, tau)
            # a float in [0, 1]; the pair (p, 1 - p) has unit trace
            assert type(p) is float and 0.0 <= p <= 1.0
            assert p == oracles.perturbed_state_reference(branch, s, tau)

    def test_domain(self, default_config):
        b = default_config.branch("c")
        for tau in (0.0, -2.0):
            with pytest.raises(ValueError, match="tau must be > 0"):
                perturbed_state(b, 0.5, tau)

    def test_too_fast_driving_reported(self, default_config):
        b = default_config.branch("c")
        with pytest.raises(PositivityError):
            perturbed_state(b, 0.9, 1e-4)


class TestEffectiveTemperature:
    def test_inverts_gibbs(self, rng):
        for _ in range(30):
            T = float(rng.uniform(0.1, 2.0))
            w = float(rng.uniform(0.1, 5.0))
            assert effective_temperature(gibbs_state(T, w), w) == pytest.approx(T, rel=1e-12)

    def test_direct_value(self):
        pair = (1.0 / 3.0, 2.0 / 3.0)
        assert effective_temperature(pair, 1.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_equal_populations_undefined(self):
        with pytest.raises(ValueError):
            effective_temperature((0.5, 0.5), 1.0)

    def test_inversion_flagged_negative(self):
        assert effective_temperature((0.7, 0.3), 1.0) < 0.0


class TestTSTrajectory:
    @staticmethod
    def by_branch(trajectory, key):
        """The column ``key`` of a trajectory, split into its c, h and p samples."""
        reservoir = np.array(trajectory.reservoir)
        return [getattr(trajectory, key)[reservoir == res] for res in "chp"]

    def test_entropy_continuous_across_quenches(self, default_config):
        taus = (9.0, 10.705783157435498, 11.0)
        trajectory = ts_trajectory(default_config, taus, samples_per_branch=51)
        cold, hot, pump = self.by_branch(trajectory, "S")
        assert len(cold) == len(hot) == len(pump) == 51
        assert abs(cold[-1] - hot[0]) < 1e-10
        assert abs(hot[-1] - pump[0]) < 1e-10
        assert abs(pump[-1] - cold[0]) < 1e-10  # closed loop

    def test_effective_temperature_jump_ratio(self, default_config):
        taus = (9.0, 10.705783157435498, 11.0)
        trajectory = ts_trajectory(default_config, taus, samples_per_branch=21)
        cold, hot, _ = self.by_branch(trajectory, "T_eff")
        ratio = hot[0] / cold[-1]
        assert ratio == pytest.approx(default_config.T_h / default_config.T_c, rel=1e-10)

    def test_reversible_amplitude_closes_isotherms(self, default_config):
        from qtricycle import reversible_amplitude
        cfg = type(default_config)(delta_c=reversible_amplitude(default_config))
        taus = (1e8, 1e8, 1e8)
        trajectory = ts_trajectory(cfg, taus, samples_per_branch=11)
        for T_eff, T in zip(self.by_branch(trajectory, "T_eff"), (cfg.T_c, cfg.T_h, cfg.T_p)):
            assert len(T_eff) == 11
            for value in T_eff:
                assert value == pytest.approx(T, rel=1e-6)
        assert abs(trajectory.S[-1] - trajectory.S[0]) < 1e-10

    def test_sample_count_validation(self, default_config):
        with pytest.raises(ValueError):
            ts_trajectory(default_config, (9.0, 10.0, 11.0), samples_per_branch=1)


def ulps(a, b):
    """Distance in units in the last place between float arrays of one sign."""
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestTSTrajectoryArrayPath:
    """The per-branch array expression against the per-sample loop it replaced."""

    @staticmethod
    def draws(rng):
        for _ in range(6):
            config, taus, _ = light_draw(rng)
            yield config, taus
        for _ in range(6):
            yield random_config(rng), tuple(float(t) for t in rng.uniform(15.0, 60.0, 3))

    def test_cells_within_4_ulp_of_the_per_sample_loop(self, rng):
        for config, taus in self.draws(rng):
            trajectory = ts_trajectory(config, taus)
            reference = ts_trajectory_reference(config, taus)
            assert [(res, s, w) for res, s, w, *_ in report_rows(trajectory)] == \
                [(p.reservoir, p.s, p.omega) for p in reference]
            for key in ("T_eff", "S"):
                assert ulps(getattr(trajectory, key),
                            [getattr(p, key) for p in reference]).max() <= 4

    def test_population_lag_is_elementwise_scalar(self, rng):
        s = np.linspace(0.0, 1.0, 201)
        for _ in range(10):
            branch = random_branch(rng)
            lag = population_lag(branch, s)
            assert lag.tolist() == [population_lag(branch, float(x)) for x in s]

    def test_positivity_error_matches_the_loop(self, rng):
        for config, taus in self.draws(rng):
            for v in range(3):
                short = taus[:v] + (1e-4,) + taus[v + 1:]
                with pytest.raises(PositivityError) as new:
                    ts_trajectory(config, short)
                with pytest.raises(PositivityError) as old:
                    ts_trajectory_reference(config, short)
                assert str(new.value) == str(old.value)
                assert f"on branch {'chp'[v]!r} at s=0.005, tau=0.0001:" in str(new.value)

    def test_zero_population_gives_zero_temperature(self):
        # beta*omega > 745 at the branch ends, where p_eq underflows to 0
        config, taus = TricycleConfig(delta_c=60.0), (1e8, 1e8, 1e8)
        trajectory = ts_trajectory(config, taus, samples_per_branch=11)
        reference = ts_trajectory_reference(config, taus, samples_per_branch=11)
        zero = [i for i, p in enumerate(reference) if p.T_eff == 0.0]
        assert zero and np.flatnonzero(trajectory.T_eff == 0.0).tolist() == zero
        for key in ("T_eff", "S"):
            assert ulps(getattr(trajectory, key),
                        [getattr(p, key) for p in reference]).max() <= 4

    @pytest.mark.parametrize("taus, equal_at, error", [
        pytest.param((30.0, 30.0, 30.0), ("c", 0.0), ValueError, id="30.0-ValueError"),
        pytest.param((1e-4, 30.0, 30.0), ("c", 0.0), ValueError, id="0.0001-ValueError"),
        pytest.param((1e-4, 30.0, 30.0), ("c", 1.0), PositivityError,
                     id="0.0001-PositivityError"),
        pytest.param((30.0, 1e-4, 1e-4), ("p", 0.0), PositivityError, id="h-before-p"),
    ])
    def test_first_offending_sample_decides(self, monkeypatch, default_config, taus, equal_at,
                                            error):
        # Equal populations at the start of the cold branch (or, for the third
        # case, at its end, after the too-short duration has already failed);
        # in the last, c is clean and the hot branch's too-short duration fails
        # at s = 0.05, before the pump's equal populations at s = 0 and its own
        # too-short duration: the first branch decides, then the first sample.
        gibbs = lindblad.gibbs_state
        reservoir, s_equal = equal_at
        w_equal = frequency(default_config.branch(reservoir), s_equal)

        def gibbs_with_equal_populations(T, w):
            return np.where((np.asarray(w) == w_equal)[..., None], 0.5, gibbs(T, w))

        monkeypatch.setattr(lindblad, "gibbs_state", gibbs_with_equal_populations)
        monkeypatch.setattr(oracles, "gibbs_state", gibbs_with_equal_populations)
        with pytest.raises(error) as new:
            ts_trajectory(default_config, taus, samples_per_branch=21)
        with pytest.raises(error) as old:
            ts_trajectory_reference(default_config, taus, samples_per_branch=21)
        assert str(new.value) == str(old.value)
        if reservoir == "p":
            assert "on branch 'h' at s=0.05," in str(new.value)
