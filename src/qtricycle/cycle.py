"""Cycle assembly: COP, cooling rate, figure of merit, reversible landmarks.

A cycle is three heat-exchange branches joined by instantaneous quenches that
carry no duration and no heat.  Because the entropy changes telescope to zero
around the loop, the cycle-level quantities reduce to the six per-branch
coefficients (dS_eq, Sigma) and the three durations:

    Q_v  = T_v (dS_v + Sigma_v / tau_v)
    psi  = Q_c / Q_h
    R    = Q_c / (tau_c + tau_h + tau_p)
    chi  = psi * R
    entropy production = -sum_v Q_v / T_v = -sum_v Sigma_v / tau_v >= 0

No constraint is imposed here: the work residual -(Q_c + Q_h + Q_p) is
reported as-is so free sweeps stay honest about their imbalance.  Enforcing
energy balance belongs to :mod:`qtricycle.optimize`.

The quasi-static sum sum_v T_v dS_v is array-valued in the cold amplitude:
:func:`zeroth_heat_sum_curve` evaluates its whole grid as one expression, and
:func:`zeroth_heat_sum` and the bisection of :func:`reversible_amplitude` call
the same kernel at one amplitude.  Everything else takes one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import thermo
from ._numerics import bisect
from .errors import ConvergenceError
from .protocol import derive_linked_params
from .thermo import BranchThermo

__all__ = [
    "CycleCoefficients",
    "cycle_coefficients",
    "CycleMetrics",
    "evaluate_cycle",
    "reversible_cop",
    "zeroth_heat_sum",
    "zeroth_heat_sum_curve",
    "reversible_amplitude",
]

DEFAULT_DELTA_SCAN = (0.01, 2.0, 400)  # (lo, hi, scan_points) of reversible_amplitude


@dataclass(frozen=True)
class CycleCoefficients:
    """Duration-independent branch coefficients of one configuration."""

    T: tuple  # (T_c, T_h, T_p)
    dS: tuple  # (dS_c, dS_h, dS_p)
    Sigma: tuple  # (Sigma_c, Sigma_h, Sigma_p)


def cycle_coefficients(config):
    """Compute (dS_eq, Sigma) for all three branches once per configuration."""
    branches = config.branches()
    return CycleCoefficients(
        T=tuple(b.temperature for b in branches),
        dS=tuple(thermo.branch_entropy_change(b) for b in branches),
        Sigma=tuple(thermo.sigma_coefficient(b) for b in branches),
    )


@dataclass(frozen=True)
class CycleMetrics:
    """Cycle-level performance summary.

    ``valid`` is False when Q_h <= 0 (the machine is not running as a
    heat-driven refrigerator); psi and chi are NaN in that case rather than
    misleading ratios.
    """

    cold: BranchThermo
    hot: BranchThermo
    pump: BranchThermo
    psi: float
    R: float
    chi: float
    work_residual: float
    entropy_production: float
    valid: bool


def _metrics_from_coeffs(coeffs, tau_c, tau_h, tau_p):
    cold, hot, pump = (
        BranchThermo.from_coefficients(res, T, dS, Sigma, tau)
        for res, T, dS, Sigma, tau in zip("chp", coeffs.T, coeffs.dS, coeffs.Sigma,
                                          (tau_c, tau_h, tau_p))
    )
    total_tau = tau_c + tau_h + tau_p
    R = cold.Q / total_tau
    valid = hot.Q > 0.0
    psi = cold.Q / hot.Q if valid else float("nan")
    chi = psi * R if valid else float("nan")
    work_residual = -(cold.Q + hot.Q + pump.Q)
    entropy_production = -sum(q / T for q, T in zip((cold.Q, hot.Q, pump.Q), coeffs.T))
    return CycleMetrics(
        cold=cold, hot=hot, pump=pump,
        psi=psi, R=R, chi=chi,
        work_residual=work_residual,
        entropy_production=entropy_production,
        valid=valid,
    )


def evaluate_cycle(config, tau_c, tau_h, tau_p, coeffs=None):
    """Assemble the cycle metrics for an arbitrary duration triple.

    ``coeffs`` may carry precomputed :func:`cycle_coefficients` to avoid
    redundant quadrature in sweeps.
    """
    for name, tau in (("tau_c", tau_c), ("tau_h", tau_h), ("tau_p", tau_p)):
        if tau <= 0.0:
            raise ValueError(f"{name} must be > 0, got {tau}")
    if coeffs is None:
        coeffs = cycle_coefficients(config)
    return _metrics_from_coeffs(coeffs, tau_c, tau_h, tau_p)


def reversible_cop(T_c, T_h, T_p):
    """Quasi-static COP bound psi_r = T_c (T_h - T_p) / (T_h (T_p - T_c))."""
    if not (0.0 < T_c < T_p < T_h):
        raise ValueError("temperatures must satisfy 0 < T_c < T_p < T_h")
    return T_c * (T_h - T_p) / (T_h * (T_p - T_c))


def _zeroth_heat_sums(config, delta_c):
    """sum_v T_v [S_eq(T_v, omega_v(1)) - S_eq(T_v, omega_v(0))] at each cold
    amplitude of the array ``delta_c``, every other parameter from ``config``.

    The hot and pump amplitudes are derive_linked_params' factors at unit
    delta_c times delta_c, its own operation order, and the endpoint
    splittings are delta (zeta + 1) and delta (zeta - 1) as ``frequency``
    gives them (cos 0 = 1 and cos pi = -1 exactly), so each value equals the
    sum of a config built at that amplitude bit for bit.
    """
    delta_c = np.asarray(delta_c, dtype=float)
    zeta_p, per_h, per_p = derive_linked_params(
        config.T_c, config.T_h, config.T_p, config.zeta_c, config.zeta_h, 1.0)
    rows = (slice(None),) + (np.newaxis,) * delta_c.ndim  # c, h, p along axis 0
    T = np.array([config.T_c, config.T_h, config.T_p])[rows]
    delta = np.array([1.0, per_h, per_p])[rows] * delta_c
    zeta = np.array([config.zeta_c, config.zeta_h, zeta_p])[rows]
    S_wide = thermo.equilibrium_entropy(T, delta * (zeta + 1.0))
    S_narrow = thermo.equilibrium_entropy(T, delta * (zeta - 1.0))
    # c and h run from the wide splitting to the narrow one, p the other way
    Q0 = np.array([1.0, 1.0, -1.0])[rows] * T * (S_narrow - S_wide)
    return Q0[0] + Q0[1] + Q0[2]


def zeroth_heat_sum(config):
    """sum_v T_v dS_v: positive for an irreversible finite-time cycle,
    zero at the reversible amplitude."""
    return float(_zeroth_heat_sums(config, config.delta_c))


def zeroth_heat_sum_curve(config, delta_c_grid):
    """(delta_c, sum_v Q_v^0) pairs over an ascending amplitude grid, from one
    array evaluation."""
    grid = np.asarray(delta_c_grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("delta_c grid must be positive and strictly ascending")
    return list(zip(grid.tolist(), _zeroth_heat_sums(config, grid).tolist()))


def reversible_amplitude(config, lo=DEFAULT_DELTA_SCAN[0], hi=DEFAULT_DELTA_SCAN[1],
                         scan_points=DEFAULT_DELTA_SCAN[2]):
    """Cold-branch amplitude at which the quasi-static heats balance, from a
    ``scan_points`` scan of delta_c over [lo, hi].  Above it the sum is positive."""
    grid = np.linspace(lo, hi, scan_points)
    return _amplitude_root(config, zeroth_heat_sum_curve(config, grid))


def _amplitude_root(config, points):
    """Reversible amplitude from a :func:`zeroth_heat_sum_curve` scan: the first
    sign change, bisected to 1e-12 (well below the 1e-8 the root needs)."""
    grid, vals = np.array(points).T
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if idx.size == 0:
        raise ConvergenceError(
            f"no sign change of sum_v Q_v^0 in delta_c on [{grid[0]}, {grid[-1]}] "
            f"(endpoint values {vals[0]:.3e}, {vals[-1]:.3e})",
            failed_points=points[::40],
        )
    i = int(idx[0])
    root = bisect(lambda dc: _zeroth_heat_sums(config, dc), grid[i], grid[i + 1],
                  xtol=1e-12)
    return float(root)
