"""Cycle assembly: COP, cooling rate, figure of merit, reversible landmarks.

A cycle is three heat-exchange branches joined by instantaneous quenches that
carry no duration and no heat.  Because the entropy changes telescope to zero
around the loop, the cycle-level quantities reduce to the six per-branch
coefficients (dS_eq, Sigma), computed once by :func:`cycle_coefficients`, and
the three durations, which is all :func:`evaluate_cycle` takes:

    Q_v  = T_v (dS_v + Sigma_v / tau_v)
    psi  = Q_c / Q_h
    R    = Q_c / (tau_c + tau_h + tau_p)
    chi  = psi * R
    entropy production = -sum_v Q_v / T_v = -sum_v Sigma_v / tau_v >= 0

No constraint is imposed here: the work residual -(Q_c + Q_h + Q_p) is
reported as-is so free sweeps stay honest about their imbalance.  Enforcing
energy balance belongs to :mod:`qtricycle.optimize`.

The quasi-static sum sum_v T_v dS_v is array-valued in the cold amplitude:
:func:`zeroth_heat_sum_curve` evaluates its whole grid as one expression,
:func:`reversible_amplitude` refines the first sign change of such a scan with
one such expression per pass, and :func:`zeroth_heat_sum` calls the same kernel
at one amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import thermo
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

DEFAULT_DELTA_SCAN = (0.01, 2.0, 400)  # (lo, hi, points) of reversible_amplitude's scan
_ROOT_POINTS = 65  # per refinement pass: 64 sub-cells of the current cell
_ROOT_XTOL, _ROOT_RTOL = 1e-12, 4.0 * np.finfo(float).eps
_ROOT_MAXITER = 20  # passes; each shrinks the cell 64-fold


@dataclass(frozen=True)
class CycleCoefficients:
    """Duration-independent branch coefficients of one configuration."""

    T: tuple  # (T_c, T_h, T_p)
    dS: tuple  # (dS_c, dS_h, dS_p)
    Sigma: tuple  # (Sigma_c, Sigma_h, Sigma_p)


def cycle_coefficients(config):
    """Compute (dS_eq, Sigma) for all three branches once per configuration, a
    row each; an array ``config.alpha`` gives an array of Sigma per branch (dS
    does not depend on it)."""
    branches = config.branches()
    return CycleCoefficients(
        T=tuple(b.temperature for b in branches),
        dS=thermo.branch_entropy_change(branches),
        Sigma=thermo.sigma_coefficient(branches),
    )


@dataclass(frozen=True)
class CycleMetrics:
    """Cycle-level performance summary.

    ``valid`` is False when Q_c <= 0 or Q_h <= 0 (the machine is not running
    as a heat-driven refrigerator); psi and chi are NaN in that case rather
    than misleading ratios.
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


def cycle_heats(coeffs, tau_c, tau_h, tau_p):
    """(cold, hot, pump, R): each branch's BranchThermo and the cooling rate
    Q_c / (tau_c + tau_h + tau_p) of a duration triple, unchecked; scalars, or
    arrays that broadcast, field by field."""
    cold, hot, pump = (
        BranchThermo.from_coefficients(res, T, dS, Sigma, tau)
        for res, T, dS, Sigma, tau in zip("chp", coeffs.T, coeffs.dS, coeffs.Sigma,
                                          (tau_c, tau_h, tau_p))
    )
    return cold, hot, pump, cold.Q / (tau_c + tau_h + tau_p)


def evaluate_cycle(coeffs, tau_c, tau_h, tau_p):
    """Cycle metrics of the coefficients ``coeffs`` for any duration triple."""
    for name, tau in (("tau_c", tau_c), ("tau_h", tau_h), ("tau_p", tau_p)):
        if tau <= 0.0:
            raise ValueError(f"{name} must be > 0, got {tau}")
    cold, hot, pump, R = cycle_heats(coeffs, tau_c, tau_h, tau_p)
    valid = hot.Q > 0.0 and cold.Q > 0.0
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


def reversible_amplitude(config, scan=None):
    """Cold-branch amplitude at which the quasi-static heats balance; above it
    the sum is positive.  The first sign change of a
    :func:`zeroth_heat_sum_curve` scan (by default over ``DEFAULT_DELTA_SCAN``),
    refined to 1e-12 (well below the 1e-8 the root needs): each pass evaluates
    the sum on ``_ROOT_POINTS`` points of the current cell and keeps the first
    sub-cell whose ends change sign or touch zero."""
    if scan is None:
        scan = zeroth_heat_sum_curve(config, np.linspace(*DEFAULT_DELTA_SCAN))
    grid, vals = np.array(scan).T
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if idx.size == 0:
        raise ConvergenceError(
            f"no sign change of sum_v Q_v^0 in delta_c on [{grid[0]}, {grid[-1]}] "
            f"(endpoint values {vals[0]:.3e}, {vals[-1]:.3e})",
            failed_points=[(dc, f"sum_v Q_v^0 = {q:.3e}, no sign change")
                           for dc, q in scan[::40]],
        )
    a, b = grid[idx[0]], grid[idx[0] + 1]
    for _ in range(_ROOT_MAXITER):
        x = np.linspace(a, b, _ROOT_POINTS)
        sign = np.sign(_zeroth_heat_sums(config, x))
        # x holds the cell's own ends, so some sub-cell changes sign or touches zero
        j = int(np.argmax(sign[:-1] * sign[1:] <= 0.0))
        a, b = x[j], x[j + 1]
        mid = 0.5 * (a + b)
        if b - a < _ROOT_XTOL + _ROOT_RTOL * abs(mid):
            return float(mid)
    raise ConvergenceError(f"reversible amplitude not refined in {_ROOT_MAXITER} passes "
                           f"on [{a}, {b}]")
