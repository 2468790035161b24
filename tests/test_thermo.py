import math

import numpy as np
import pytest

import oracles
from conftest import light_draw, random_branch, random_config
from oracles import (
    density_column,
    effective_temperature,
    sigma_direct,
    ts_trajectory_reference,
    von_neumann_entropy,
)
from qtricycle import (
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
    def test_entropy_continuous_across_quenches(self, default_config):
        taus = (9.0, 10.705783157435498, 11.0)
        points = ts_trajectory(default_config, taus, samples_per_branch=51)
        cold = [p for p in points if p.reservoir == "c"]
        hot = [p for p in points if p.reservoir == "h"]
        pump = [p for p in points if p.reservoir == "p"]
        assert abs(cold[-1].S - hot[0].S) < 1e-10
        assert abs(hot[-1].S - pump[0].S) < 1e-10
        assert abs(pump[-1].S - cold[0].S) < 1e-10  # closed loop

    def test_effective_temperature_jump_ratio(self, default_config):
        taus = (9.0, 10.705783157435498, 11.0)
        points = ts_trajectory(default_config, taus, samples_per_branch=21)
        cold = [p for p in points if p.reservoir == "c"]
        hot = [p for p in points if p.reservoir == "h"]
        ratio = hot[0].T_eff / cold[-1].T_eff
        assert ratio == pytest.approx(default_config.T_h / default_config.T_c, rel=1e-10)

    def test_reversible_amplitude_closes_isotherms(self, default_config):
        from qtricycle import reversible_amplitude
        cfg = type(default_config)(delta_c=reversible_amplitude(default_config))
        taus = (1e8, 1e8, 1e8)
        points = ts_trajectory(cfg, taus, samples_per_branch=11)
        for res, T in (("c", cfg.T_c), ("h", cfg.T_h), ("p", cfg.T_p)):
            branch_points = [p for p in points if p.reservoir == res]
            for p in branch_points:
                assert p.T_eff == pytest.approx(T, rel=1e-6)
        assert abs(points[-1].S - points[0].S) < 1e-10

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
            points = ts_trajectory(config, taus)
            reference = ts_trajectory_reference(config, taus)
            assert [(p.reservoir, p.s, p.omega) for p in points] == \
                [(p.reservoir, p.s, p.omega) for p in reference]
            for key in ("T_eff", "S"):
                assert ulps([getattr(p, key) for p in points],
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
        points = ts_trajectory(config, taus, samples_per_branch=11)
        reference = ts_trajectory_reference(config, taus, samples_per_branch=11)
        zero = [i for i, p in enumerate(reference) if p.T_eff == 0.0]
        assert zero and [i for i, p in enumerate(points) if p.T_eff == 0.0] == zero
        for key in ("T_eff", "S"):
            assert ulps([getattr(p, key) for p in points],
                        [getattr(p, key) for p in reference]).max() <= 4

    @pytest.mark.parametrize("tau, error", [(30.0, ValueError), (1e-4, ValueError),
                                            (1e-4, PositivityError)])
    def test_first_offending_sample_decides(self, monkeypatch, default_config, tau, error):
        # Equal populations at the start of the cold branch (or, for the last
        # case, at its end, after the too-short duration has already failed).
        gibbs = lindblad.gibbs_state
        s_equal = 1.0 if error is PositivityError else 0.0
        w_equal = frequency(default_config.branch("c"), s_equal)

        def gibbs_with_equal_populations(T, w):
            return np.where((np.asarray(w) == w_equal)[..., None], 0.5, gibbs(T, w))

        monkeypatch.setattr(lindblad, "gibbs_state", gibbs_with_equal_populations)
        monkeypatch.setattr(oracles, "gibbs_state", gibbs_with_equal_populations)
        taus = (tau, 30.0, 30.0)
        with pytest.raises(error) as new:
            ts_trajectory(default_config, taus, samples_per_branch=21)
        with pytest.raises(error) as old:
            ts_trajectory_reference(default_config, taus, samples_per_branch=21)
        assert str(new.value) == str(old.value)
