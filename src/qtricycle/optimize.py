"""Optimal time allocation for the three-branch refrigeration cycle.

The durations (tau_c, tau_h, tau_p) are chosen to maximize the cooling rate
R at fixed COP psi subject to zero net heat over the cycle.  Writing the
Lagrangian R + lam1 * psi + lam2 * (Q_c + Q_h + Q_p) and eliminating both
multipliers from the three stationarity conditions leaves a single scalar
constraint on the durations,

    dS_h tau_h^2/Sigma_h + dS_p tau_p^2/Sigma_p + dS_c tau_c^2/Sigma_c
        + 2 (tau_c + tau_h + tau_p) = 0,

while the energy balance Q_c + Q_h + Q_p = 0 fixes tau_h in closed form,

    tau_h = N tau_p / (K tau_p + M),    N = -T_h Sigma_h,  M = T_p Sigma_p,
    K = T_p dS_p + T_c (dS_c + Sigma_c/tau_c) + T_h dS_h.

With tau_c as the independent parameter, substituting the second relation
into the first and multiplying by (K tau_p + M)^2 leaves one quartic in tau_p
per tau_c (a_v = dS_v/Sigma_v, c0 = dS_c tau_c^2/Sigma_c + 2 tau_c):

    a_p K^2 tau_p^4 + 2K (a_p M + K) tau_p^3 + (a_p M^2 + 4KM + c0 K^2
        + a_h N^2 + 2NK) tau_p^2 + 2M (M + c0 K + N) tau_p + c0 M^2 = 0.

Its real roots above -M/K (where tau_h > 0), swept over tau_c, trace the
optimal performance curves (R vs psi, chi vs psi).  Everything downstream of
the per-branch coefficients (dS, Sigma) is plain algebra, so sweeps are cheap
once the three quadratures are done; the algebra takes those coefficients
(:class:`~qtricycle.cycle.CycleCoefficients`), not a configuration.

Each curve point is one :class:`SweepRecord`.  The R and chi maxima come from
the coefficients alone: the R peak is a root of a cubic (:func:`_rate_peak`),
the chi peak Newton's method from it (:func:`_merit_peak`), and
:func:`max_cooling_rate` and :func:`max_figure_of_merit` return the curve
points there.  The alpha sweeps refine alpha by golden section over those
maxima; one array interpolation inverts curves at target COPs for the
envelope and the profiles.  The grid rules live here; the CLI reads them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import cycle
from ._numerics import golden
from .errors import ConvergenceError

__all__ = [
    "AllocationSolution",
    "SweepRecord",
    "CurveResult",
    "AlphaRecord",
    "AlphaSweepResult",
    "EnvelopeResult",
    "ProfilePoint",
    "FreeSweepResult",
    "balanced_tau_h",
    "solve_time_allocation",
    "optimal_curve",
    "max_cooling_rate",
    "max_figure_of_merit",
    "curve_maxima",
    "alpha_sweep",
    "envelope_curve",
    "time_allocation_profile",
    "free_time_sweep",
    "DEFAULT_TAU_C_RANGE",
    "DEFAULT_TAU_C_GRID",
    "DEFAULT_ALPHA_WINDOW",
    "DEFAULT_ALPHA_POINTS",
    "DEFAULT_ENVELOPE_ALPHA_POINTS",
    "MIN_GRID_POINTS",
]

# (first, last, points) of the geometric tau_c sweep used when the caller does
# not supply a grid: wide enough to cover the R peak and the large-time COP
# saturation for every alpha in the default window.
DEFAULT_TAU_C_RANGE = (0.3, 3000.0, 120)
DEFAULT_TAU_C_GRID = np.geomspace(*DEFAULT_TAU_C_RANGE)
DEFAULT_ALPHA_WINDOW = (-0.5, 1.5)
DEFAULT_ALPHA_POINTS = 101  # alpha_sweep's grid over the window
DEFAULT_ENVELOPE_ALPHA_POINTS = 61  # fixed-alpha curves behind an envelope
MIN_GRID_POINTS = 100  # of a tau_c grid and of an alpha_sweep grid


def _require_sign_structure(coeffs):
    """The solver relies on dS_c, dS_h > 0 > dS_p and Sigma_v < 0 throughout."""
    dS_c, dS_h, dS_p = coeffs.dS
    if not (dS_c > 0.0 and dS_h > 0.0 and dS_p < 0.0):
        raise ConvergenceError(
            f"entropy changes outside the refrigeration sign structure: "
            f"dS_c={dS_c:.3e}, dS_h={dS_h:.3e}, dS_p={dS_p:.3e}"
        )
    if not all(s < 0.0 for s in coeffs.Sigma):
        raise ConvergenceError(
            f"dissipation coefficients must all be negative, got {coeffs.Sigma}"
        )


def balanced_tau_h(coeffs, tau_c, tau_p):
    """Hot-branch duration closing the energy balance Q_c + Q_h + Q_p = 0."""
    tau_h, _ = _energy_balance(coeffs, tau_c, tau_p)
    if not tau_h > 0.0:
        raise ValueError(
            f"no positive energy-balanced tau_h at tau_c={tau_c}, tau_p={tau_p}"
        )
    return float(tau_h)


def _energy_balance(coeffs, tau_c, tau_p):
    """(tau_h, Q_c) with tau_h closing the energy balance, NaN where the balance
    admits no positive tau_h.  Scalars or broadcastable arrays."""
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    Q_c = T_c * (dS_c + S_c / tau_c)
    denom = T_p * (dS_p + S_p / tau_p) + Q_c + T_h * dS_h
    return -T_h * S_h / np.where(denom > 0.0, denom, np.nan), Q_c


def _stationarity_terms(coeffs, tau_c, tau_h, tau_p):
    """The four terms of the multiplier-free stationarity constraint."""
    (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.dS, coeffs.Sigma
    return (dS_h * tau_h ** 2 / S_h, dS_p * tau_p ** 2 / S_p,
            dS_c * tau_c ** 2 / S_c, 2.0 * (tau_c + tau_h + tau_p))


# Accepted |F| relative to the summed |terms| of F.  Accurate roots stay below
# about 2.5e-11 of it (the rounding of the balanced tau_h's denominator
# dominates); a root off by 1e-10 relative leaves a median 1e-10, so this
# rejects wrong or unpolished roots, not every last-digits error.
_RESIDUAL_RTOL = 1e-10


def _checked_residual(coeffs, tau_c, tau_h, tau_p):
    """Stationarity residual, or :class:`ConvergenceError` when it exceeds
    ``_RESIDUAL_RTOL`` times the summed magnitudes of its terms."""
    terms = _stationarity_terms(coeffs, tau_c, tau_h, tau_p)
    residual = sum(terms)
    limit = _RESIDUAL_RTOL * sum(map(abs, terms))
    if abs(residual) > limit:
        raise ConvergenceError(
            f"stationarity residual {residual:.3e} too large at "
            f"tau_c={tau_c} (limit {limit:.3e})"
        )
    return residual


def _horner(coefficients, x):
    """Polynomial value in plain floats, np.polyval's operation order."""
    y = 0.0
    for c in coefficients:
        y = y * x + c
    return y


@dataclass(frozen=True)
class AllocationSolution:
    """One energy-balanced stationary duration triple; its energy residual is
    ``-metrics.work_residual``."""

    tau_c: float
    tau_h: float
    tau_p: float
    residual_constraint: float
    metrics: cycle.CycleMetrics


def _stationarity_quartic(coeffs, tau_c):
    """(K, M, coefficients of the stationarity quartic, highest power first)."""
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    N, M = -T_h * S_h, T_p * S_p
    K = T_p * dS_p + T_c * (dS_c + S_c / tau_c) + T_h * dS_h
    a_h, a_p = dS_h / S_h, dS_p / S_p
    c0 = dS_c * tau_c ** 2 / S_c + 2 * tau_c
    return K, M, (a_p * K ** 2, 2 * K * (a_p * M + K),
                  a_p * M ** 2 + 4 * K * M + c0 * K ** 2 + a_h * N ** 2 + 2 * N * K,
                  2 * M * (M + c0 * K + N), c0 * M ** 2)


def solve_time_allocation(coeffs, tau_c):
    """All stationary allocations at the given cold-branch duration.

    The real roots of the stationarity quartic above -M/K (tau_h > 0), each
    polished by one Newton step, ordered by descending cooling rate, so the
    principal solution comes first.  A root without a finite Newton update,
    or one that misses the stationarity constraint by more than
    ``_RESIDUAL_RTOL`` of its summed term magnitudes (a spurious root at the
    pole -M/K of the balanced tau_h), is dropped.  Raises
    :class:`ConvergenceError` when the energy balance admits no positive
    tau_h (K <= 0; the reason names the tau_c or delta_c bound that fails),
    tau_c overflows a quartic coefficient or its companion matrix, or no root
    is left; the reason is then the first dropped root's, if any.
    """
    if tau_c <= 0.0:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    _require_sign_structure(coeffs)
    tau_c = float(tau_c)

    try:
        K, M, poly = _stationarity_quartic(coeffs, tau_c)
    except OverflowError:  # ** on a Python float raises where * gives inf
        poly = (math.inf,)
    if not all(map(math.isfinite, poly)):
        raise ConvergenceError(f"stationarity quartic coefficients overflow at tau_c={tau_c}")
    if not K > 0.0:  # K = sum_v T_v dS_v + T_c Sigma_c / tau_c
        zeroth = sum(T * dS for T, dS in zip(coeffs.T, coeffs.dS))
        cause = (f"tau_c must exceed T_c|Sigma_c| / sum_v T_v dS_v = "
                 f"{-coeffs.T[0] * coeffs.Sigma[0] / zeroth:.6g}" if zeroth > 0.0
                 else "delta_c at or below the reversible amplitude")
        raise ConvergenceError(
            f"energy balance infeasible for every tau_p at tau_c={tau_c} ({cause})")
    # np.roots divides by the leading coefficient (a zero one it strips); plain
    # floats overflow to inf here without the RuntimeWarning numpy would give
    lead = poly[0]
    if lead and not all(math.isfinite(c / lead) for c in poly[1:]):
        raise ConvergenceError(
            f"stationarity quartic companion matrix overflows at tau_c={tau_c}")
    roots = np.roots(poly)
    derivative = [c * power for c, power in zip(poly, (4, 3, 2, 1))]
    polished, dropped = [], []
    for root in roots[roots.imag == 0.0].real.tolist():  # one Newton step each
        slope = _horner(derivative, root)
        root = root - _horner(poly, root) / slope if slope else math.nan
        if math.isfinite(root):
            polished.append(root)
        else:
            dropped.append(
                f"stationarity quartic root has no finite Newton update at tau_c={tau_c}")

    solutions = []
    for tau_p in sorted(r for r in polished if r > -M / K):  # tau_h > 0 exactly here
        tau_h = float(_energy_balance(coeffs, tau_c, tau_p)[0])
        residual_c, reason = _attempt(_checked_residual, coeffs, tau_c, tau_h, tau_p)
        if reason is not None:
            dropped.append(reason)
            continue
        solutions.append(AllocationSolution(
            tau_c, tau_h, tau_p, residual_c, cycle.evaluate_cycle(coeffs, tau_c, tau_h, tau_p)))
    if not solutions:
        raise ConvergenceError(
            dropped[0] if dropped else f"no stationary tau_p with tau_h > 0 at tau_c={tau_c}")
    solutions.sort(key=lambda sol: -sol.metrics.R)
    return solutions


def _attempt(fn, *args, **kwargs):
    """``(fn(...), None)``, or None and the reason when fn raises ConvergenceError."""
    try:
        return fn(*args, **kwargs), None
    except ConvergenceError as exc:
        return None, str(exc)


class SweepRecord(NamedTuple):
    """One point of a performance curve."""

    alpha: float
    psi: float
    R: float
    chi: float
    tau_c: float
    tau_h: float
    tau_p: float


def _principal(coeffs, alpha, tau_c):
    """SweepRecord of the principal solution at tau_c; ConvergenceError when
    the solver fails or that solution does not refrigerate (``valid``)."""
    best = solve_time_allocation(coeffs, tau_c)[0]
    m = best.metrics
    if not m.valid:
        raise ConvergenceError(f"principal solution at tau_c={tau_c} does not refrigerate "
                               f"(Q_c={m.cold.Q:.3e}, Q_h={m.hot.Q:.3e})")
    return SweepRecord(float(alpha), m.psi, m.R, m.chi, best.tau_c, best.tau_h, best.tau_p)


@dataclass(frozen=True)
class CurveResult:
    """Optimal performance curve, one ``(tau_c, reason)`` pair per grid point
    that failed to solve (``skipped``) and the branch coefficients."""

    records: list
    skipped: list
    coeffs: cycle.CycleCoefficients


def optimal_curve(config, tau_c_grid=None):
    """Principal allocation per tau_c, sorted by COP.

    Grid points without a convergent refrigeration solution are skipped and
    reported in ``skipped`` as ``(tau_c, reason)`` pairs; fewer than 10
    survivors is an error that carries the same pairs as its ``failed_points``.
    """
    if tau_c_grid is None:
        tau_c_grid = DEFAULT_TAU_C_GRID
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    if tau_c_grid.size < MIN_GRID_POINTS:
        raise ValueError(f"tau_c grid needs >= {MIN_GRID_POINTS} points")
    if np.any(tau_c_grid <= 0.0):
        raise ValueError("tau_c grid must be positive")
    coeffs = cycle.cycle_coefficients(config)
    records, skipped = [], []
    for tau_c in tau_c_grid:
        record, reason = _attempt(_principal, coeffs, config.alpha, float(tau_c))
        if record is None:
            skipped.append((float(tau_c), reason))
        else:
            records.append(record)
    if len(records) < 10:
        raise ConvergenceError(
            f"only {len(records)} of {tau_c_grid.size} grid points converged "
            f"(first failure: {skipped[0][1]})",
            failed_points=skipped,
        )
    records.sort(key=lambda r: r.psi)
    return CurveResult(records, skipped, coeffs)


def _refine_max(f, xs, values, xtol):
    """(x, f(x)) of the golden-section maximum of f (-inf where it fails) within
    the grid neighbours of the first best of ``values``, f at the ascending
    ``xs``; None when that point is on an edge, or no bracket or gain is found."""
    i = int(np.argmax(values))
    if 0 < i < len(values) - 1:
        res = golden(lambda x: -f(x), xs[i - 1], xs[i], xs[i + 1], xtol=xtol)
        if res is not None and -res[1] > values[i]:
            return res[0], -res[1]
    return None


def _branch_terms(coeffs):
    """(A, Z, T_h dS_h, (a_c, a_h, a_p)): A = T_c dS_c, Z = sum_v T_v dS_v and
    a_v = -T_v Sigma_v, so Q_v = T_v dS_v - a_v / tau_v."""
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    return (T_c * dS_c, T_c * dS_c + T_h * dS_h + T_p * dS_p, T_h * dS_h,
            (-T_c * S_c, -T_h * S_h, -T_p * S_p))


def _rate_cubic(A, Z, a_c, c):
    """Coefficients, highest power first, of the numerator of dR/dt divided by
    t, for R(t) = (A t - a_c)(Z t - a_c) / (t^2 (Z t - a_c + c)), t = tau_c."""
    e, s = c - a_c, a_c * (A + Z)
    return (-A * Z * Z, 2.0 * s * Z, s * e - 3.0 * Z * a_c * a_c, -2.0 * e * a_c * a_c)


def _rate_peak(coeffs):
    """(tau_c, tau_p) of the largest R over all energy-balanced triples.  At
    fixed tau_c, tau_h + tau_p is least at tau_h/tau_p = sqrt(a_h/a_p): the hot
    and pump branches act as one of dissipation c = (sqrt a_h + sqrt a_p)^2.
    The admissible root (tau_c > 0, Q_c > 0, tau_h > 0) of :func:`_rate_cubic`
    with the largest R wins; none (as when Z <= 0) is a ConvergenceError."""
    _require_sign_structure(coeffs)
    A, Z, _, (a_c, a_h, a_p) = _branch_terms(coeffs)
    r_h, r_p = math.sqrt(a_h), math.sqrt(a_p)
    c = (r_h + r_p) ** 2
    roots = np.roots(_rate_cubic(A, Z, a_c, c))
    peaks = [((A * t - a_c) * (Z * t - a_c) / (t * t * (Z * t - a_c + c)), t)
             for t in roots[roots.imag == 0.0].real.tolist()
             if t > 0.0 and Z * t > a_c and A * t > a_c]
    if not peaks:
        raise ConvergenceError(f"no admissible cooling-rate peak (A={A:.3e}, Z={Z:.3e})")
    _, t = max(peaks)
    return t, r_p * (r_h + r_p) * t / (Z * t - a_c)


_NEWTON_RTOL, _NEWTON_MAXITER = 1e-12, 50  # of the figure-of-merit iteration


def _merit_peak(coeffs):
    """(tau_c, tau_p) of the largest chi: Newton's method on the gradient of
    ln chi = 2 ln Q_c - ln Q_h - ln tau in y = (1/tau_c, 1/tau_p), where Q_c, Q_h
    and 1/tau_h are linear, from :func:`_rate_peak`; done at a relative step
    of ``_NEWTON_RTOL`` and a negative-definite Hessian.  ConvergenceError when
    an iterate leaves positive durations and heats, or never converges."""
    A, Z, H, (a_c, a_h, a_p) = _branch_terms(coeffs)
    y = 1.0 / np.array(_rate_peak(coeffs))
    g_c, g_h = np.array([-a_c, 0.0]), np.array([a_c, a_p])  # gradients of Q_c, Q_h
    w_y = -g_h / a_h
    for _ in range(_NEWTON_MAXITER):
        Q_c, w = A - a_c * y[0], (Z - a_c * y[0] - a_p * y[1]) / a_h
        Q_h = H - a_h * w
        if not (np.all(y > 0.0) and w > 0.0 and Q_c > 0.0 and Q_h > 0.0):
            raise ConvergenceError(f"chi Newton iterate inadmissible at (tau_c, tau_p)={1 / y}")
        tau = np.sum(1.0 / y) + 1.0 / w
        tau_y = -y ** -2.0 - w_y / w ** 2
        tau_yy = np.diag(2.0 * y ** -3.0) + 2.0 * np.outer(w_y, w_y) / w ** 3
        grad = 2.0 * g_c / Q_c - g_h / Q_h - tau_y / tau
        hess = (np.outer(g_h, g_h) / Q_h ** 2 - 2.0 * np.outer(g_c, g_c) / Q_c ** 2
                - tau_yy / tau + np.outer(tau_y, tau_y) / tau ** 2)
        step = np.linalg.solve(hess, grad)
        y = y - step
        if np.all(np.abs(step) <= _NEWTON_RTOL * np.abs(y)) \
                and hess[0, 0] < 0.0 < np.linalg.det(hess):
            return tuple((1.0 / y).tolist())
    raise ConvergenceError(f"chi Newton iteration found no maximum in {_NEWTON_MAXITER} steps")


def max_cooling_rate(coeffs, alpha):
    """SweepRecord of the cooling-rate maximum (the curve point at its tau_c)."""
    return _principal(coeffs, alpha, _rate_peak(coeffs)[0])


def max_figure_of_merit(coeffs, alpha):
    """SweepRecord of the figure-of-merit maximum (the curve point at its tau_c)."""
    return _principal(coeffs, alpha, _merit_peak(coeffs)[0])


class AlphaRecord(NamedTuple):
    """Best cooling rate and figure of merit at one frequency exponent."""

    alpha: float
    R_max: float
    chi_max: float
    psi_at_R_max: float
    psi_at_chi_max: float


@dataclass(frozen=True)
class AlphaSweepResult:
    """Per-alpha maxima; ``skipped`` holds ``(alpha, reason)`` pairs."""

    rows: list
    alpha_chi: float
    alpha_R: float
    chi_max: float
    R_max: float
    skipped: list


def curve_maxima(coeffs, alpha):
    """AlphaRecord of the R and chi maxima of the coefficients ``coeffs``."""
    at_R, at_chi = max_cooling_rate(coeffs, alpha), max_figure_of_merit(coeffs, alpha)
    return AlphaRecord(float(alpha), at_R.R, at_chi.chi, at_R.psi, at_chi.psi)


def _alpha_maxima(config, alpha):
    """:func:`curve_maxima` of ``config`` at the frequency exponent ``alpha``."""
    return curve_maxima(cycle.cycle_coefficients(replace(config, alpha=alpha)), alpha)


def _refine_alpha(config, alphas, values, key):
    """AlphaRecord at the alpha maximizing ``key``: ``values`` at the ascending
    ``alphas`` choose the bracket that :func:`_refine_max` searches."""
    def value(alpha):
        record = _attempt(_alpha_maxima, config, alpha)[0]
        return getattr(record, key) if record is not None else -math.inf

    hit = _refine_max(value, alphas, values, xtol=1e-4)
    return _alpha_maxima(config, hit[0] if hit is not None else alphas[int(np.argmax(values))])


def _alpha_grid(alpha_grid, points, min_points=1):
    """``alpha_grid`` as floats (None: ``points`` over the window); ValueError if invalid."""
    if alpha_grid is None:
        alpha_grid = np.linspace(*DEFAULT_ALPHA_WINDOW, points)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < min_points:
        raise ValueError(f"alpha grid needs >= {min_points} points")
    lo, hi = DEFAULT_ALPHA_WINDOW
    if not lo <= alpha_grid.min() <= alpha_grid.max() <= hi:
        raise ValueError(f"alpha grid must stay within [{lo}, {hi}]")
    return alpha_grid.tolist()


def alpha_sweep(config, alpha_grid=None):
    """Best R and chi per frequency exponent and the alphas of their maxima,
    from the coefficients alone (no curve is built).  Failing grid points are
    listed in ``skipped`` as ``(alpha, reason)`` pairs."""
    alpha_grid = _alpha_grid(alpha_grid, DEFAULT_ALPHA_POINTS, MIN_GRID_POINTS)
    results = [_attempt(_alpha_maxima, config, a) for a in alpha_grid]
    rows = [record for record, _ in results if record is not None]
    skipped = [(a, why) for a, (record, why) in zip(alpha_grid, results) if record is None]
    if not rows:
        raise ConvergenceError("every alpha grid point failed", failed_points=skipped)

    alphas = [r.alpha for r in rows]
    at_R = _refine_alpha(config, alphas, [r.R_max for r in rows], "R_max")
    at_chi = _refine_alpha(config, alphas, [r.chi_max for r in rows], "chi_max")
    return AlphaSweepResult(rows=rows, alpha_chi=at_chi.alpha, alpha_R=at_R.alpha,
                            chi_max=at_chi.chi_max, R_max=at_R.R_max, skipped=skipped)


@dataclass(frozen=True)
class EnvelopeResult:
    """Alpha-optimized performance curves and their peak COPs."""

    r_curve: list
    chi_curve: list
    psi_R: float
    psi_chi: float
    skipped: list


def _interp_on_curve(records, psi):
    """Linear interpolation of (R, chi, tau_c) at the COPs ``psi`` (an array)
    along records sorted by COP; NaN outside [first psi, last psi]."""
    psis = np.array([r.psi for r in records])
    return tuple(np.interp(psi, psis, [getattr(r, key) for r in records],
                           left=np.nan, right=np.nan) for key in ("R", "chi", "tau_c"))


def envelope_curve(config, psi_grid=None, alpha_grid=None, tau_c_grid=None):
    """Upper envelopes of R(psi) and chi(psi) over the frequency exponent.

    For every target COP the best alpha is selected among the fixed-alpha
    optimal curves of ``alpha_grid`` (by default ``DEFAULT_ENVELOPE_ALPHA_POINTS``
    across the window; each curve inverted by monotone interpolation, the
    first of equal maxima winning); the matching duration triple is then
    re-solved exactly.  The labeled peak COPs are the :func:`curve_maxima`
    at the alpha refined from the bracket of the curves' grid maxima.
    """
    alphas = _alpha_grid(alpha_grid, DEFAULT_ENVELOPE_ALPHA_POINTS)
    results = [_attempt(optimal_curve, replace(config, alpha=a), tau_c_grid) for a in alphas]
    built = [(a, c) for a, (c, _) in zip(alphas, results) if c is not None]
    if not built:
        raise ConvergenceError(
            "no alpha in the window produced an optimal curve",
            failed_points=[(a, reason) for a, (_, reason) in zip(alphas, results)],
        )

    if psi_grid is None:
        lo = min(c.records[0].psi for _, c in built)
        hi = max(c.records[-1].psi for _, c in built)
        span = hi - lo
        psi_grid = np.linspace(lo + 0.01 * span, hi - 0.01 * span, 80)
    psi_grid = np.asarray(psi_grid, dtype=float)

    # (alpha, psi) stacks; only the best alpha's point per psi is re-solved
    R, chi, tau_c = map(np.array, zip(*(_interp_on_curve(c.records, psi_grid)
                                         for _, c in built)))
    reached = ~np.isnan(R).all(axis=0)
    skipped = psi_grid[~reached].tolist()
    best_R = np.nan_to_num(R, nan=-np.inf).argmax(axis=0)
    best_chi = np.nan_to_num(chi, nan=-np.inf).argmax(axis=0)
    r_curve, chi_curve = [], []
    for j in np.flatnonzero(reached).tolist():
        for k, out in ((best_R[j], r_curve), (best_chi[j], chi_curve)):
            alpha, c = built[k]
            record = _attempt(_principal, c.coeffs, alpha, float(tau_c[k, j]))[0]
            if record is not None:
                out.append(record)
    if skipped and len(skipped) == len(psi_grid):
        raise ConvergenceError(
            "no requested COP is attained by any alpha in the window",
            failed_points=[(psi, "not attained by any alpha's curve") for psi in skipped],
        )

    # Peak COPs of the envelopes: the per-alpha grid maxima bracket alpha, and
    # the peak psi is read off the curve maxima there.
    built_alphas = [a for a, _ in built]
    at_R = _refine_alpha(config, built_alphas,
                         [max(r.R for r in c.records) for _, c in built], "R_max")
    at_chi = _refine_alpha(config, built_alphas,
                           [max(r.chi for r in c.records) for _, c in built], "chi_max")
    return EnvelopeResult(r_curve=r_curve, chi_curve=chi_curve,
                          psi_R=at_R.psi_at_R_max, psi_chi=at_chi.psi_at_chi_max,
                          skipped=skipped)


class ProfilePoint(NamedTuple):
    """Durations along the optimal curve at one COP."""

    psi: float
    tau_total: float
    ratio_hp: float  # tau_h / tau_p
    ratio_cp: float  # tau_c / tau_p
    tau_c: float
    tau_h: float
    tau_p: float


def time_allocation_profile(curve, psi_grid):
    """Duration profile along a fixed-alpha :class:`CurveResult`: each target
    COP is inverted to tau_c as in :func:`envelope_curve` and re-solved there.

    The expected shape (total time increasing with the COP, tau_h/tau_p
    falling and tau_c/tau_p rising) is checked between consecutive points;
    each kind of violation raises one RuntimeWarning with its count and first
    psi pair, and the caller decides whether the shape is a requirement.
    """
    coeffs, records = curve.coeffs, curve.records
    psi_grid = np.asarray(psi_grid, dtype=float)
    tau_c = _interp_on_curve(records, psi_grid)[2]
    unreachable = psi_grid[np.isnan(tau_c)].tolist()
    if unreachable:
        span = f"[{records[0].psi:.4f}, {records[-1].psi:.4f}]"
        raise ConvergenceError(
            f"COP targets outside the attainable range {span}",
            failed_points=[(psi, f"outside {span}") for psi in unreachable],
        )
    points = []
    for psi, tc in zip(psi_grid.tolist(), tau_c.tolist()):
        rec = _attempt(_principal, coeffs, records[0].alpha, tc)[0]
        if rec is None:
            raise ConvergenceError(f"allocation lost while refining psi={psi}")
        points.append(ProfilePoint(rec.psi, rec.tau_c + rec.tau_h + rec.tau_p,
                                   rec.tau_h / rec.tau_p, rec.tau_c / rec.tau_p,
                                   rec.tau_c, rec.tau_h, rec.tau_p))
    psi, total, hp, cp = (np.array([getattr(p, key) for p in points])
                          for key in ("psi", "tau_total", "ratio_hp", "ratio_cp"))
    rising = psi[1:] > psi[:-1]  # duplicate targets are not compared
    tol = 1e-12
    for what, bad in (("total time not increasing", total[1:] < total[:-1] * (1.0 - tol)),
                      ("tau_h/tau_p not falling or tau_c/tau_p not rising",
                       (hp[1:] > hp[:-1] * (1.0 + tol)) | (cp[1:] < cp[:-1] * (1.0 - tol)))):
        pairs = np.flatnonzero(rising & bad)
        if pairs.size:
            a, b = psi[pairs[0]:pairs[0] + 2].tolist()
            warnings.warn(
                f"{what} between {pairs.size} of {len(points) - 1} consecutive psi "
                f"pairs, first between psi={a} and psi={b}",
                RuntimeWarning, stacklevel=2,  # at the caller
            )
    return points


@dataclass(frozen=True)
class FreeSweepResult:
    """Cooling rate over a free (tau_c, tau_p) grid with tau_h balanced."""

    tau_c_grid: np.ndarray
    tau_p_grid: np.ndarray
    R: np.ndarray  # shape (len(tau_c), len(tau_p)), NaN where infeasible
    tau_h: np.ndarray


def free_time_sweep(coeffs, tau_c_grid, tau_p_grid):
    """Cooling rate for every (tau_c, tau_p); tau_h closes the energy balance.

    Grid cells where no positive balanced tau_h exists are NaN.
    """
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    tau_p_grid = np.asarray(tau_p_grid, dtype=float)
    if np.any(tau_c_grid <= 0.0) or np.any(tau_p_grid <= 0.0):
        raise ValueError("duration grids must be positive")
    tc, tp = tau_c_grid[:, None], tau_p_grid[None, :]
    tau_h, Q_c = _energy_balance(coeffs, tc, tp)
    R = Q_c / (tc + tau_h + tp)
    return FreeSweepResult(tau_c_grid=tau_c_grid, tau_p_grid=tau_p_grid,
                           R=R, tau_h=tau_h)
