import numpy as np
import pytest

from conftest import random_config
from qtricycle import (
    ConfigError,
    TricycleConfig,
    derive_linked_params,
    frequency,
    frequency_derivative,
)


class TestLinkedParams:
    def test_standard_operating_point(self):
        zeta_p, delta_h, delta_p = derive_linked_params(0.2, 1.0, 0.5, 2.0, 2.0, 0.5333)
        assert zeta_p == pytest.approx(1.25, rel=1e-14)
        assert delta_h == pytest.approx(0.8888333333333333, rel=1e-12)
        assert delta_p == pytest.approx(1.7776666666666666, rel=1e-12)

    def test_symmetric_temperature_reduction(self):
        # zeta_p never depends on the temperatures at all
        for zeta in (1.5, 2.0, 4.0):
            zeta_p, _, _ = derive_linked_params(0.2, 1.0, 0.5, zeta, zeta, 0.7)
            assert zeta_p == pytest.approx((1 + zeta ** 2) / (2 * zeta), rel=1e-14)
        # near-equal temperatures: delta_h -> delta_c (zeta - 1)/(zeta + 1)
        eps = 1e-9
        _, delta_h, _ = derive_linked_params(1.0 - 2 * eps, 1.0, 1.0 - eps, 3.0, 3.0, 0.7)
        assert delta_h == pytest.approx(0.7 * (3.0 - 1.0) / (3.0 + 1.0), rel=1e-8)

    def test_continuity_ratios_hold_identically(self, rng):
        for _ in range(50):
            cfg = random_config(rng)
            zeta_p, delta_h, delta_p = derive_linked_params(
                cfg.T_c, cfg.T_h, cfg.T_p, cfg.zeta_c, cfg.zeta_h, cfg.delta_c)
            r1 = cfg.delta_c * (cfg.zeta_c - 1) / (delta_h * (cfg.zeta_h + 1))
            r2 = delta_h * (cfg.zeta_h - 1) / (delta_p * (zeta_p - 1))
            r3 = delta_p * (zeta_p + 1) / (cfg.delta_c * (cfg.zeta_c + 1))
            assert r1 == pytest.approx(cfg.T_c / cfg.T_h, rel=1e-13)
            assert r2 == pytest.approx(cfg.T_h / cfg.T_p, rel=1e-13)
            assert r3 == pytest.approx(cfg.T_p / cfg.T_c, rel=1e-13)

    @pytest.mark.parametrize("kwargs", [
        dict(T_c=0.5, T_h=1.0, T_p=0.2),   # pump below cold
        dict(T_c=0.2, T_h=0.5, T_p=1.0),   # pump above hot
        dict(T_c=0.2, T_h=1.0, T_p=0.2),   # equal cold/pump
        dict(zeta_c=0.5),
        dict(zeta_c=1.0),
        dict(zeta_h=0.9),
        dict(delta_c=0.0),
        dict(delta_c=-0.1),
    ])
    def test_rejections(self, kwargs):
        base = dict(T_c=0.2, T_h=1.0, T_p=0.5, zeta_c=2.0, zeta_h=2.0, delta_c=0.5)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            derive_linked_params(base["T_c"], base["T_h"], base["T_p"],
                                 base["zeta_c"], base["zeta_h"], base["delta_c"])

    def test_config_validates_and_is_immutable(self):
        cfg = TricycleConfig()
        with pytest.raises(Exception):
            cfg.delta_c = 1.0
        with pytest.raises(ConfigError):
            TricycleConfig(gamma0=-1.0)
        with pytest.raises(ConfigError):
            TricycleConfig(zeta_c=0.5)


class TestFrequency:
    def test_cold_branch_endpoints(self, default_config):
        b = default_config.branch("c")
        assert frequency(b, 0.0) == pytest.approx(b.delta * (1 + b.zeta), rel=1e-14)
        assert frequency(b, 1.0) == pytest.approx(b.delta * (b.zeta - 1), rel=1e-14)

    def test_pump_branch_starts_low(self, default_config):
        b = default_config.branch("p")
        assert frequency(b, 0.0) == pytest.approx(b.delta * (b.zeta - 1), rel=1e-14)
        assert frequency(b, 1.0) == pytest.approx(b.delta * (b.zeta + 1), rel=1e-14)

    def test_domain(self, default_config):
        b = default_config.branch("c")
        with pytest.raises(ValueError):
            frequency(b, -0.01)
        with pytest.raises(ValueError):
            frequency(b, 1.01)
        with pytest.raises(ValueError):
            frequency_derivative(b, np.array([0.5, 1.2]))

    def test_positive_everywhere(self, rng):
        for _ in range(30):
            cfg = random_config(rng)
            for res in "chp":
                b = cfg.branch(res)
                w = frequency(b, np.linspace(0, 1, 257))
                assert np.all(w > 0.0)

    def test_derivative_endpoints_and_midpoint(self, default_config):
        for res in "chp":
            b = default_config.branch(res)
            assert frequency_derivative(b, 0.0) == 0.0
            assert frequency_derivative(b, 1.0) == 0.0
        c = default_config.branch("c")
        assert frequency_derivative(c, 0.5) == pytest.approx(-np.pi * c.delta, rel=1e-14)

    def test_derivative_matches_finite_difference(self, rng):
        h = 1e-6
        for _ in range(100):
            cfg = random_config(rng)
            b = cfg.branch(("c", "h", "p")[rng.integers(0, 3)])
            s = float(rng.uniform(0.001, 0.999))
            fd = (frequency(b, s + h) - frequency(b, s - h)) / (2 * h)
            assert abs(frequency_derivative(b, s) - fd) < 1e-6


def quench_pairs(config):
    """(end, start) splittings across the quenches c -> h, h -> p and p -> c."""
    c, h, p = config.branches()
    return tuple((frequency(a, 1.0), frequency(b, 0.0)) for a, b in ((c, h), (h, p), (p, c)))


class TestQuenches:
    def test_default_ratios(self, default_config):
        (wc1, wh0), (wh1, wp0), (wp1, wc0) = quench_pairs(default_config)
        assert wh0 / wc1 == pytest.approx(5.0, rel=1e-13)
        assert wp0 / wh1 == pytest.approx(0.5, rel=1e-13)
        assert wc0 / wp1 == pytest.approx(0.4, rel=1e-13)

    def test_ratio_product_telescopes(self, rng):
        for _ in range(30):
            cfg = random_config(rng)
            pairs = quench_pairs(cfg)
            product = 1.0
            for w_end, w_start in pairs:
                product *= w_start / w_end
            assert product == pytest.approx(1.0, rel=1e-12)

    def test_beta_omega_continuous(self, rng):
        for _ in range(30):
            cfg = random_config(rng)
            (wc1, wh0), (wh1, wp0), (wp1, wc0) = quench_pairs(cfg)
            assert wc1 / cfg.T_c == pytest.approx(wh0 / cfg.T_h, rel=1e-12)
            assert wh1 / cfg.T_h == pytest.approx(wp0 / cfg.T_p, rel=1e-12)
            assert wp1 / cfg.T_p == pytest.approx(wc0 / cfg.T_c, rel=1e-12)


def test_branch_rejects_bad_inputs(default_config):
    with pytest.raises(ConfigError):
        default_config.branch("x")
