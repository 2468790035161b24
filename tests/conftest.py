import numpy as np
import pytest

from qtricycle import TricycleConfig


@pytest.fixture
def default_config():
    return TricycleConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def mp():
    """mpmath at 50 digits; skips the test where mpmath is not installed."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def random_config(rng):
    """Valid configuration draw kept inside well-conditioned ranges
    (beta * omega stays below ~25 on every branch)."""
    T_c = rng.uniform(0.15, 0.5)
    T_h = rng.uniform(0.9, 2.0)
    T_p = T_c + rng.uniform(0.2, 0.8) * (T_h - T_c)
    return TricycleConfig(
        T_c=T_c, T_h=T_h, T_p=T_p,
        zeta_c=rng.uniform(1.2, 3.0),
        zeta_h=rng.uniform(1.2, 3.0),
        delta_c=rng.uniform(0.15, 0.8),
        gamma0=rng.uniform(0.5, 2.0),
        alpha=rng.uniform(-0.5, 1.5),
    )


def random_branch(rng):
    config = random_config(rng)
    reservoir = ("c", "h", "p")[rng.integers(0, 3)]
    rng.uniform(1.0, 50.0)  # a duration, no longer used; drawn so later draws stay put
    return config.branch(reservoir)


def light_draw(rng):
    """(config, (tau_c, tau_h, tau_p), (delta_min, delta_max)) from the ranges
    of the benchmark's ``light`` workload, at the default temperatures and
    displacements."""
    config = TricycleConfig(
        delta_c=rng.uniform(0.5, 0.8),
        gamma0=rng.uniform(1.0, 1.5),
        alpha=rng.uniform(-0.5, 1.5),
    )
    taus = tuple(float(t) for t in rng.uniform(15.0, 60.0, 3))
    return config, taus, (rng.uniform(0.01, 0.05), rng.uniform(1.9, 2.0))
