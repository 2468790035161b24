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

Each curve point is one :class:`SweepRecord`.  :func:`_stationary_roots`
solves the quartic for a whole column of tau_c at once: one ``eigvals`` of
the companion-matrix stack, one Newton step for every root, and each drop a
mask with its reason; :func:`_principal_records` picks each row's principal
root.  :func:`optimal_curve` is one such call, and
:func:`solve_time_allocation` and :func:`_principal` are one-point views.
The R and chi maxima come from the coefficients alone: the R peak is a root
of a cubic (:func:`_rate_peak`), the chi peak Newton's method from it
(:func:`_merit_peak`), and :func:`_maxima` solves both peaks of every alpha
of a sweep in one call.  The alpha sweeps refine alpha by golden section over
those maxima.  The envelope and the profiles build no curve either: their
points are the fixed-COP maxima of :func:`_cop_points`, also one call.  The
grid rules live here.
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
    "DEFAULT_ALPHA_WINDOW",
    "DEFAULT_ALPHA_POINTS",
    "DEFAULT_ENVELOPE_ALPHA_POINTS",
    "MIN_GRID_POINTS",
]

# (first, last, points) of the geometric tau_c sweep used when the caller does
# not supply a grid: wide enough to cover the R peak and the large-time COP
# saturation for every alpha in the default window.
DEFAULT_TAU_C_RANGE = (0.3, 3000.0, 120)
DEFAULT_ALPHA_WINDOW = (-0.5, 1.5)
DEFAULT_ALPHA_POINTS = 101  # alpha_sweep's grid over the window
DEFAULT_ENVELOPE_ALPHA_POINTS = 61  # the alphas an envelope compares
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
    return (dS_h * _square(tau_h) / S_h, dS_p * _square(tau_p) / S_p,
            dS_c * _square(tau_c) / S_c, 2.0 * (tau_c + tau_h + tau_p))


# Accepted |F| relative to the summed |terms| of F.  Accurate roots stay below
# about 2.5e-11 of it (the rounding of the balanced tau_h's denominator
# dominates); a root off by 1e-10 relative leaves a median 1e-10, so this
# rejects wrong or unpolished roots, not every last-digits error.
_RESIDUAL_RTOL = 1e-10


def _residual(coeffs, tau_c, tau_h, tau_p):
    """(F, limit, missed) of the stationarity constraint at broadcastable
    durations: F, ``_RESIDUAL_RTOL`` of its summed term magnitudes, and where
    |F| is not within that limit (NaN included, as at a root on the pole)."""
    terms = _stationarity_terms(coeffs, tau_c, tau_h, tau_p)
    residual = terms[0] + terms[1] + terms[2] + terms[3]
    limit = _RESIDUAL_RTOL * (abs(terms[0]) + abs(terms[1]) + abs(terms[2]) + abs(terms[3]))
    return residual, limit, ~(np.abs(residual) <= limit)


def _square(x):
    """x ** 2 by Python's pow, element by element for an array (numpy squares
    an array by x * x, which differs from libm's pow in the last bit now and
    then); inf where a float's square overflows."""
    if isinstance(x, np.ndarray):
        return np.array([_square(v) for v in x.ravel().tolist()]).reshape(x.shape)
    try:
        return x ** 2
    except OverflowError:  # pow raises where * gives inf
        return math.inf


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
    c0 = dS_c * _square(tau_c) / S_c + 2 * tau_c
    K2, M2 = _square(K), _square(M)
    return K, M, (a_p * K2, 2 * K * (a_p * M + K),
                  a_p * M2 + 4 * K * M + c0 * K2 + a_h * _square(N) + 2 * N * K,
                  2 * M * (M + c0 * K + N), c0 * M2)


def _stationary_roots(coeffs, tau_c):
    """(tau_h, tau_p, residual, reasons) at each cold-branch duration of the
    (n, 1) column ``tau_c``, each coefficient of ``coeffs`` a float or an
    (n, 1) column: (n, 4) rows of the real roots of the stationarity quartic
    above -M/K (tau_h > 0), ascending, each polished by one Newton step, NaN
    where a column holds none, and per row None or the reason it has no root.

    All rows' roots come from one ``eigvals`` of the companion-matrix stack
    (``np.roots`` for a row whose first or last coefficient is 0, which it
    trims).  A root without a finite Newton update, or one that misses the
    stationarity constraint by more than ``_RESIDUAL_RTOL`` of its summed term
    magnitudes (:func:`_residual`; a spurious root at the pole -M/K of the
    balanced tau_h, whose tau_h may come out NaN), is dropped.  A row has no
    root when its coefficients break the sign structure, tau_c overflows a
    quartic coefficient or its companion matrix, the energy balance admits no
    positive tau_h (K <= 0; the reason names the tau_c or delta_c bound that
    fails), or every root is dropped (the reason is then the first dropped
    root's, a Newton failure before a residual).
    """
    n = tau_c.shape[0]
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    with np.errstate(all="ignore"):  # the rows dropped below and the NaN entries
        signed = np.broadcast_to((dS_c > 0.0) & (dS_h > 0.0) & (dS_p < 0.0) & (S_c < 0.0)
                                 & (S_h < 0.0) & (S_p < 0.0), (n, 1))[:, 0]
        K, M, poly = _stationarity_quartic(coeffs, tau_c)
        poly = np.array(poly)[:, :, 0]  # (5, n)
        companion_row = -poly[1:] / poly[0]
        finite, feasible = np.isfinite(poly).all(0), K[:, 0] > 0.0
        bounded = (poly[0] == 0.0) | np.isfinite(companion_row).all(0)
        solvable = signed & finite & feasible & bounded
        stack = solvable & (poly[0] != 0.0) & (poly[4] != 0.0)
        companion = np.zeros((stack.sum(), 4, 4))
        companion[:, 0] = companion_row[:, stack].T
        companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
        roots = np.full((n, 4), complex(np.nan, np.nan))  # not real
        roots[stack] = np.linalg.eigvals(companion)
        for i in np.flatnonzero(solvable & ~stack).tolist():
            trimmed = np.roots(poly[:, i])
            roots[i, :trimmed.size] = trimmed
        real = roots.imag == 0.0
        x = np.where(real, roots.real, np.nan)
        poly = poly[:, :, None]
        value, slope = poly[0], 4 * poly[0]  # Horner in np.polyval's order
        for c, power in zip(poly[1:], (3, 2, 1, 0)):
            value = value * x + c
            if power:
                slope = slope * x + c * power
        x = np.where(slope != 0.0, x - value / slope, np.nan)  # one Newton step
        polished = np.isfinite(x)
        unpolished = (real & ~polished).any(1)
        tau_p = np.sort(np.where(polished & (x > -M / K), x, np.nan), axis=1)
        tau_h = _energy_balance(coeffs, tau_c, tau_p)[0]
        residual, limit, missed = _residual(coeffs, tau_c, tau_h, tau_p)
    missed &= ~np.isnan(tau_p)
    reasons = [None] * n
    for i in np.flatnonzero((np.isnan(tau_p) | missed).all(1)).tolist():
        at = f"at tau_c={tau_c[i, 0]}"
        if not signed[i]:
            row = (tuple(float(np.broadcast_to(v, (n, 1))[i, 0]) for v in group)
                   for group in (coeffs.T, coeffs.dS, coeffs.Sigma))
            reasons[i] = _attempt(_require_sign_structure, cycle.CycleCoefficients(*row))[1]
        elif not finite[i]:
            reasons[i] = f"stationarity quartic coefficients overflow {at}"
        elif not feasible[i]:  # K = sum_v T_v dS_v + T_c Sigma_c / tau_c
            zeroth, bound = (np.broadcast_to(v, (n, 1))[i, 0]
                             for v in (T_c * dS_c + T_h * dS_h + T_p * dS_p, -T_c * S_c))
            cause = (f"tau_c must exceed T_c|Sigma_c| / sum_v T_v dS_v = {bound / zeroth:.6g}"
                     if zeroth > 0.0 else "delta_c at or below the reversible amplitude")
            reasons[i] = f"energy balance infeasible for every tau_p {at} ({cause})"
        elif not bounded[i]:
            reasons[i] = f"stationarity quartic companion matrix overflows {at}"
        elif unpolished[i]:
            reasons[i] = f"stationarity quartic root has no finite Newton update {at}"
        elif missed[i].any():
            j = int(np.argmax(missed[i]))
            reasons[i] = (f"stationarity residual {residual[i, j]:.3e} too large {at} "
                          f"(limit {limit[i, j]:.3e})")
        else:
            reasons[i] = f"no stationary tau_p with tau_h > 0 {at}"
    if missed.any():
        for a in (tau_h, tau_p, residual):
            a[missed] = np.nan
    return tau_h, tau_p, residual, reasons


def solve_time_allocation(coeffs, tau_c):
    """All stationary allocations at the given cold-branch duration: the
    one-row view of :func:`_stationary_roots`, ordered by descending cooling
    rate, so the principal solution comes first.  Raises
    :class:`ConvergenceError` with the row's reason when it has no root.
    """
    if tau_c <= 0.0:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    tau_c = float(tau_c)
    tau_h, tau_p, residual, (reason,) = _stationary_roots(coeffs, np.array([[tau_c]]))
    if reason is not None:
        raise ConvergenceError(reason)
    solutions = [AllocationSolution(tau_c, h, p, r, cycle.evaluate_cycle(coeffs, tau_c, h, p))
                 for h, p, r in zip(tau_h[0].tolist(), tau_p[0].tolist(), residual[0].tolist())
                 if not math.isnan(p)]
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


def _principal_records(coeffs, alpha, tau_c):
    """(records, reasons) at each cold-branch duration of the (n, 1) column
    ``tau_c``, ``coeffs`` and ``alpha`` shared or given per row as by
    :func:`_rows`: the SweepRecord of the root of :func:`_stationary_roots`
    with the largest cooling rate (the first in ascending tau_p on a tie), or
    None and the reason when the row has no root or that root does not
    refrigerate (``valid``)."""
    tau_h, tau_p, _, reasons = _stationary_roots(coeffs, tau_c)
    with np.errstate(all="ignore"):  # the NaN columns and the rows without a root
        cold, hot, _, R = cycle.cycle_heats(coeffs, tau_c, tau_h, tau_p)
        best = np.fmax(R, -np.inf).argmax(1)[:, None]
        tau_h, tau_p, R, Q_h = (np.take_along_axis(a, best, 1)
                                for a in (tau_h, tau_p, R, hot.Q))
        Q_c = cold.Q
        psi = Q_c / Q_h
    records = []
    for i, (a, t, q_c, q_h, p, r, h, tp) in enumerate(zip(
            np.broadcast_to(alpha, tau_c.shape[:1]).tolist(),
            *(col.ravel().tolist() for col in (tau_c, Q_c, Q_h, psi, R, tau_h, tau_p)))):
        if reasons[i] is None and not (q_h > 0.0 and q_c > 0.0):
            reasons[i] = (f"principal solution at tau_c={t} does not refrigerate "
                          f"(Q_c={q_c:.3e}, Q_h={q_h:.3e})")
        records.append(None if reasons[i] else SweepRecord(float(a), p, r, p * r, t, h, tp))
    return records, reasons


def _rows(pairs):
    """(coefficients, alphas) of the ``(coeffs, alpha)`` pairs, one row each:
    every coefficient an (n, 1) column, the alphas a 1-D array; the pair
    itself where every row holds the same one."""
    if all(pair is pairs[0] for pair in pairs):
        return pairs[0]
    cols = [np.array(col)[:, None]
            for col in zip(*((*c.T, *c.dS, *c.Sigma, a) for c, a in pairs))]
    coeffs = cycle.CycleCoefficients(tuple(cols[:3]), tuple(cols[3:6]), tuple(cols[6:9]))
    return coeffs, cols[9][:, 0]


def _principal(coeffs, alpha, tau_c):
    """The one-point view of :func:`_principal_records`: its SweepRecord at
    tau_c, or ConvergenceError with the reason."""
    (record,), (reason,) = _principal_records(coeffs, alpha, np.array([[float(tau_c)]]))
    if record is None:
        raise ConvergenceError(reason)
    return record


@dataclass(frozen=True)
class CurveResult:
    """Optimal performance curve, one ``(tau_c, reason)`` pair per grid point
    that failed to solve (``skipped``) and the branch coefficients."""

    records: list
    skipped: list
    coeffs: cycle.CycleCoefficients


def optimal_curve(config, tau_c_grid=None):
    """Principal allocation per tau_c, sorted by COP, from one
    :func:`_principal_records` call over the whole grid.

    Grid points without a convergent refrigeration solution are skipped and
    reported in ``skipped`` as ``(tau_c, reason)`` pairs; fewer than 10
    survivors is an error that carries the same pairs as its ``failed_points``.
    """
    if tau_c_grid is None:
        tau_c_grid = np.geomspace(*DEFAULT_TAU_C_RANGE)
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    if tau_c_grid.size < MIN_GRID_POINTS:
        raise ValueError(f"tau_c grid needs >= {MIN_GRID_POINTS} points")
    if np.any(tau_c_grid <= 0.0):
        raise ValueError("tau_c grid must be positive")
    coeffs = cycle.cycle_coefficients(config)
    records, reasons = _principal_records(coeffs, config.alpha, tau_c_grid[:, None])
    skipped = [(t, why) for t, why in zip(tau_c_grid.tolist(), reasons) if why]
    records = sorted((r for r in records if r is not None), key=lambda r: r.psi)
    if len(records) < 10:
        raise ConvergenceError(
            f"only {len(records)} of {tau_c_grid.size} grid points converged "
            f"(first failure: {skipped[0][1]})",
            failed_points=skipped,
        )
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


def _cop_range(coeffs):
    """(lo, hi) of the COPs with tau_h > 0 (psi > (A - Z)/H) and tau_p > 0 (psi <
    A/(H - Z)); T and dS fix both, so no alpha moves them."""
    A, Z, H, _ = _branch_terms(coeffs)
    return max(0.0, (A - Z) / H), A / (H - Z)


def _cop_points(coeffs, psi):
    """(tau_c, R) arrays of the largest R at each fixed COP ``psi``, NaN outside
    :func:`_cop_range`.  With Q_h = Q_c/psi and Q_p = -k Q_c, k = 1 + 1/psi,
    1/tau_h and 1/tau_p are linear in u = 1/tau_c, so g = Q_c' tau - Q_c tau'
    falls (g' = -Q_c tau'' < 0) from +inf to -inf on the admissible u; its
    root takes Newton steps kept inside a bisection bracket."""
    _require_sign_structure(coeffs)
    A, Z, H, (a_c, a_h, a_p) = _branch_terms(coeffs)
    P, psi = Z - A - H, np.asarray(psi, dtype=float)
    with np.errstate(all="ignore"):  # the NaN entries
        k = 1.0 + 1.0 / psi
        lo, hi = np.maximum((A - psi * H) / a_c, 0.0), (A + P / k) / a_c
        lo, hi = (np.where((psi > 0.0) & (lo < hi), x, np.nan) for x in (lo, hi))
        d_h, d_p = a_c / (psi * a_h), -k * a_c / a_p  # d(1/tau_h)/du, d(1/tau_p)/du
        u = 0.5 * (lo + hi)
        done = np.isnan(u)  # outside the range
        for _ in range(_NEWTON_MAXITER):
            Q_c = A - a_c * u
            w_h, w_p = (H - Q_c / psi) / a_h, (P + k * Q_c) / a_p
            tau_u = -u ** -2.0 - d_h / w_h ** 2 - d_p / w_p ** 2
            tau_uu = 2.0 * (u ** -3.0 + d_h ** 2 / w_h ** 3 + d_p ** 2 / w_p ** 3)
            g = -a_c * (1.0 / u + 1.0 / w_h + 1.0 / w_p) - Q_c * tau_u
            lo, hi = np.where(g > 0.0, u, lo), np.where(g > 0.0, hi, u)
            new = u + g / (Q_c * tau_uu)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            u, done = np.where(done, u, new), done | (np.abs(new - u) <= _NEWTON_RTOL * new)
            if done.all():
                Q_c = A - a_c * u
                return 1.0 / u, Q_c / (1.0 / u + a_h / (H - Q_c / psi) + a_p / (P + k * Q_c))
    raise ConvergenceError(f"fixed-COP Newton iteration found no maximum at "
                           f"psi={psi[~done].flat[0]} in {_NEWTON_MAXITER} steps")


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
    """Per-alpha maxima; ``skipped`` holds ``(alpha, reason)`` pairs, and
    ``at_R`` and ``at_chi`` the ``(coefficients, AlphaRecord)`` of the refined
    maxima, whose alphas and values ``alpha_R``, ``R_max``, ``alpha_chi`` and
    ``chi_max`` read."""

    rows: list
    skipped: list
    at_R: tuple
    at_chi: tuple

    alpha_R = property(lambda self: self.at_R[1].alpha)
    R_max = property(lambda self: self.at_R[1].R_max)
    alpha_chi = property(lambda self: self.at_chi[1].alpha)
    chi_max = property(lambda self: self.at_chi[1].chi_max)


def _maxima(pairs):
    """(AlphaRecord, None), or None and the reason, for each ``(coeffs,
    alpha)`` pair: the principal points at its R and chi peaks, those of every
    pair from one :func:`_principal_records` call.  The reason is the first
    failure of the R peak, its point, the chi peak and its point, in order."""
    peaks = [(_attempt(_rate_peak, c), _attempt(_merit_peak, c)) for c, _ in pairs]
    live = [(pair, (at_R[0], (at_chi or at_R)[0]))
            for pair, ((at_R, _), (at_chi, _)) in zip(pairs, peaks) if at_R]
    found = iter([])
    if live:
        coeffs, alphas = _rows([pair for pair, _ in live for _ in range(2)])
        records, reasons = _principal_records(
            coeffs, alphas, np.array([t for _, ts in live for t in ts])[:, None])
        found = iter(zip(records[::2], reasons[::2], records[1::2], reasons[1::2]))
    out = []
    for (_, alpha), ((at_R, why), (_, why_chi)) in zip(pairs, peaks):
        if at_R:
            at_R, why_R, at_chi, why_at_chi = next(found)
            why = why_R or why_chi or why_at_chi
        out.append((None, why) if why else (AlphaRecord(
            float(alpha), at_R.R, at_chi.chi, at_R.psi, at_chi.psi), None))
    return out


def curve_maxima(coeffs, alpha):
    """AlphaRecord of the R and chi maxima of the coefficients ``coeffs``, the
    one-pair view of :func:`_maxima`."""
    (record, reason), = _maxima([(coeffs, alpha)])
    if reason:
        raise ConvergenceError(reason)
    return record


def _alpha_maxima(config, alphas):
    """((coefficients, AlphaRecord), None) of ``config`` at each of the
    ``alphas``, or None and the reason, from one :func:`_maxima` call."""
    coeffs = [_attempt(cycle.cycle_coefficients, replace(config, alpha=a)) for a in alphas]
    maxima = iter(_maxima([(c, a) for (c, _), a in zip(coeffs, alphas) if c is not None]))
    out = []
    for c, why in coeffs:
        row, why = next(maxima) if c is not None else (None, why)
        out.append(((c, row), None) if row else (None, why))
    return out


def _alpha_rows(config, alpha_grid, size, min_size=1):
    """(points, skipped, at_R, at_chi) over ``alpha_grid`` (None: ``size``
    alphas across the window), which needs ``min_size`` ascending alphas in
    the window (else ValueError): :func:`_alpha_maxima` of the alphas,
    ``(alpha, reason)`` of those that fail (all failing is an error), and the
    points that :func:`_refine_max` finds for R_max and chi_max from the
    rows, which seed its lookup, so no alpha is computed twice."""
    if alpha_grid is None:
        alpha_grid = np.linspace(*DEFAULT_ALPHA_WINDOW, size)
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size < min_size:
        raise ValueError(f"alpha grid needs >= {min_size} points")
    lo, hi = DEFAULT_ALPHA_WINDOW
    if not lo <= alphas.min() <= alphas.max() <= hi:
        raise ValueError(f"alpha grid must stay within [{lo}, {hi}]")
    results = _alpha_maxima(config, alphas.tolist())
    skipped = [(a, why) for a, (point, why) in zip(alphas.tolist(), results) if point is None]
    if len(skipped) == len(results):
        raise ConvergenceError("every alpha grid point failed", failed_points=skipped)
    points = [point for point, _ in results if point is not None]
    known = {row.alpha: (coeffs, row) for coeffs, row in points}

    def value(alpha, key):
        if alpha not in known:
            known[alpha] = _alpha_maxima(config, [alpha])[0][0]
        return getattr(known[alpha] and known[alpha][1], key, -math.inf)  # -inf: failed

    rows, refined = [row for _, row in points], []
    for key in ("R_max", "chi_max"):
        values = [getattr(row, key) for row in rows]
        hit = _refine_max(lambda a: value(a, key), [r.alpha for r in rows], values, xtol=1e-4)
        refined.append(known[hit[0]] if hit is not None else points[int(np.argmax(values))])
    return points, skipped, *refined


def alpha_sweep(config, alpha_grid=None):
    """Best R and chi per frequency exponent and the alphas of their maxima,
    from the coefficients alone (no curve is built).  Failing grid points are
    listed in ``skipped`` as ``(alpha, reason)`` pairs."""
    points, skipped, at_R, at_chi = _alpha_rows(config, alpha_grid, DEFAULT_ALPHA_POINTS,
                                                MIN_GRID_POINTS)
    return AlphaSweepResult(rows=[row for _, row in points], skipped=skipped,
                            at_R=at_R, at_chi=at_chi)


@dataclass(frozen=True)
class EnvelopeResult:
    """Alpha-optimized curve, the envelope of R(psi) and so of chi(psi) = psi R,
    its peak COPs and ``(psi, reason)`` pairs of the ``skipped`` COPs."""

    records: list
    psi_R: float
    psi_chi: float
    skipped: list


def _cop_records(pairs, psi_grid):
    """SweepRecords at the COPs ``psi_grid``, each the principal point at the
    fixed-COP tau_c (:func:`_cop_points`) of the first ``(coeffs, alpha)`` pair
    with the largest R there, all from one :func:`_principal_records` call,
    and ``(psi, reason)`` of the COPs that fail."""
    tau_c, R = map(np.array, zip(*(_cop_points(coeffs, psi_grid) for coeffs, _ in pairs)))
    span = "({:.4f}, {:.4f})".format(*_cop_range(pairs[0][0]))
    cols = np.arange(psi_grid.size)
    best = np.nan_to_num(R, nan=-np.inf).argmax(axis=0)
    found = np.flatnonzero(~np.isnan(R[best, cols]))
    records, reasons = [None] * cols.size, [f"outside the attainable range {span}"] * cols.size
    if found.size:
        coeffs, alphas = _rows([pairs[k] for k in best[found].tolist()])
        for j, record, why in zip(found.tolist(), *_principal_records(
                coeffs, alphas, tau_c[best[found], found][:, None])):
            records[j], reasons[j] = record, why
    return ([record for record in records if record is not None],
            [(psi, why) for psi, record, why in zip(psi_grid.tolist(), records, reasons)
             if record is None])


def envelope_curve(config, psi_grid=None, alpha_grid=None):
    """Upper envelope of R(psi), and so of chi(psi), over the frequency exponent,
    from :func:`_cop_records` over ``alpha_grid`` (by default
    ``DEFAULT_ENVELOPE_ALPHA_POINTS`` across the window); the default psi grid
    spans 1% to 99% of :func:`_cop_range`.  The peak COPs come from the refined
    per-alpha maxima, as in :func:`alpha_sweep`.  No curve is built."""
    points, _, at_R, at_chi = _alpha_rows(config, alpha_grid, DEFAULT_ENVELOPE_ALPHA_POINTS)
    if psi_grid is None:
        lo, hi = _cop_range(points[0][0])
        psi_grid = lo + (hi - lo) * np.linspace(0.01, 0.99, 80)
    records, skipped = _cop_records([(coeffs, row.alpha) for coeffs, row in points],
                                    np.asarray(psi_grid, dtype=float))
    if not records:
        raise ConvergenceError("no requested COP is attained by any alpha in the window",
                               failed_points=skipped)
    return EnvelopeResult(records=records, psi_R=at_R[1].psi_at_R_max,
                          psi_chi=at_chi[1].psi_at_chi_max, skipped=skipped)


class ProfilePoint(NamedTuple):
    """Durations along the optimal curve at one COP."""

    psi: float
    tau_total: float
    ratio_hp: float  # tau_h / tau_p
    ratio_cp: float  # tau_c / tau_p
    tau_c: float
    tau_h: float
    tau_p: float


def time_allocation_profile(coeffs, alpha, psi_grid):
    """Duration profile of :func:`_cop_records` at the frequency exponent
    ``alpha`` (its coefficients ``coeffs``), no curve built; a target COP that
    fails is a ConvergenceError.

    The expected shape (total time increasing with the COP, tau_h/tau_p
    falling and tau_c/tau_p rising) is checked between consecutive points;
    each kind of violation raises one RuntimeWarning with its count and first
    psi pair, and the caller decides whether the shape is a requirement.
    """
    records, skipped = _cop_records([(coeffs, alpha)], np.asarray(psi_grid, dtype=float))
    if skipped:
        raise ConvergenceError(f"no allocation at psi={skipped[0][0]}: {skipped[0][1]}",
                               failed_points=skipped)
    points = [ProfilePoint(r.psi, r.tau_c + r.tau_h + r.tau_p, r.tau_h / r.tau_p,
                           r.tau_c / r.tau_p, r.tau_c, r.tau_h, r.tau_p) for r in records]
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
