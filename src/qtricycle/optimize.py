"""Optimal time allocation for the three-branch refrigeration cycle.

The durations (tau_c, tau_h, tau_p) are chosen to maximize the cooling rate
R at fixed COP psi subject to zero net heat over the cycle.  The heats are
Q_v = T_v dS_v - y_v in the rates y_v = a_v/tau_v, a_v = -T_v Sigma_v, and
every solve here works in them: gamma0 only sets the time scale, so scaling
it by k divides every a_v, and the matching durations, by k and leaves the
rates as they are.  Writing the Lagrangian R + lam1 * psi + lam2 * (Q_c + Q_h
+ Q_p) and eliminating both multipliers from the three stationarity
conditions leaves a single scalar constraint,

    F = sum_v dS_v tau_v^2/Sigma_v + 2 tau_v = sum_v a_v (2 y_v - T_v dS_v)/y_v^2 = 0,

while the energy balance Q_c + Q_h + Q_p = 0 makes the rates sum to Z =
sum_v T_v dS_v: y_h = K - y_p with K = Z - y_c.  With tau_c as the
independent parameter, y_p^2 F/a_p goes from -T_p dS_p > 0 at y_p = 0 to
-inf at y_p = K, where tau_h diverges, and crosses zero once in between;
swept over tau_c, those roots trace the optimal performance curves (R vs
psi, chi vs psi).  Everything downstream of the per-branch coefficients (dS,
Sigma) is plain algebra, so sweeps are cheap once the three quadratures are
done; the algebra takes those coefficients
(:class:`~qtricycle.cycle.CycleCoefficients`), not a configuration.

A curve's, an envelope's or a profile's points are float64 columns: one
:class:`SweepRecord` from one :func:`_records` call over their (tau_c, tau_p),
tau_h balanced and each row held to the stationarity constraint; a maximum is
one row.  Only the curve needs that root: :func:`_stationary_tau_p` takes it
for a whole column of tau_c at once, by Newton steps kept in a bisection
bracket (:func:`_newton_root`), and :func:`solve_time_allocation` is the
one-point view.  The R and chi maxima come from the coefficients alone: both
maximize psi^k R, k = 0 and 1, by one damped Newton's method in (y_c, y_p)
(:func:`_peak`); the alpha sweeps take them from one coefficients call over
many alphas, and refine alpha by zoom passes of such calls around the best
one.  The envelope and the profiles build no curve either: their points are
the fixed-COP maxima of :func:`_cop_points`, the same bracketed Newton in y_c
as the curve's.  The grid rules live here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import cycle
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
_ALPHA_XTOL = 1e-5  # zoom until the best alpha's neighbours are this close (alpha may be 0)
_ZOOM_POINTS = 8  # the alphas that one zoom pass adds between them


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
    """The four terms of the multiplier-free stationarity constraint F over tau_c,
    in the ratios tau_v/tau_c and tau_c/Sigma_v, which gamma0 leaves unchanged."""
    (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.dS, coeffs.Sigma
    r_h, r_p = tau_h / tau_c, tau_p / tau_c
    return (dS_h * (r_h * r_h) * (tau_c / S_h), dS_p * (r_p * r_p) * (tau_c / S_p),
            dS_c * (tau_c / S_c), 2.0 * (1.0 + r_h + r_p))


# Accepted |F| relative to the summed |terms| of F.  Accurate roots stay below
# about 2.5e-11 of it (the rounding of the balanced tau_h's denominator
# dominates); a root off by 1e-10 relative leaves a median 1e-10, so this
# rejects wrong or unconverged roots, not every last-digits error.
_RESIDUAL_RTOL = 1e-10


def _residual(coeffs, tau_c, tau_h, tau_p):
    """(F/tau_c, limit, missed) of the stationarity constraint F at
    broadcastable durations: F/tau_c, ``_RESIDUAL_RTOL`` of its summed term
    magnitudes, and where it is not within that limit (NaN included)."""
    terms = _stationarity_terms(coeffs, tau_c, tau_h, tau_p)
    residual = terms[0] + terms[1] + terms[2] + terms[3]
    limit = _RESIDUAL_RTOL * (abs(terms[0]) + abs(terms[1]) + abs(terms[2]) + abs(terms[3]))
    return residual, limit, ~(np.abs(residual) <= limit)


def _too_large(residual, limit, tau_c):
    """The reason of a triple that misses the stationarity constraint."""
    return f"stationarity residual {residual:.3e} too large at tau_c={tau_c} (limit {limit:.3e})"


@dataclass(frozen=True)
class AllocationSolution:
    """One energy-balanced stationary duration triple; its energy residual is
    ``-metrics.work_residual``."""

    tau_c: float
    tau_h: float
    tau_p: float
    residual_constraint: float
    metrics: cycle.CycleMetrics


_NEWTON_RTOL, _NEWTON_MAXITER = 1e-12, 50  # of every Newton iteration here


def _newton_root(fn, x, lo, hi):
    """The root in (lo, hi) of a function positive left of it and negative right
    of it, from ``x`` (arrays): Newton steps x - g/g', ``(g, g') = fn(x)``, kept
    in the bracket that the signs of g shrink (a bisection where a step leaves
    it), done at a relative step of ``_NEWTON_RTOL``; NaN where x is NaN or no
    root is found in ``_NEWTON_MAXITER`` steps."""
    done = np.isnan(x)
    for _ in range(_NEWTON_MAXITER):
        g, slope = fn(x)
        lo, hi = np.where(g > 0.0, x, lo), np.where(g > 0.0, hi, x)
        new = x - g / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        x, done = np.where(done, x, new), done | (np.abs(new - x) <= _NEWTON_RTOL * new)
        if done.all():
            break
    return np.where(done, x, np.nan)


def _line_constraint(coeffs, y_c):
    """y -> (g, dg/dy) at y = a_p/tau_p: g = y^2 F/a_p, F the stationarity
    constraint with y_c = a_c/tau_c and y_h = K - y balanced, K = Z - y_c; each
    branch adds a_v (2 y_v - T_v dS_v)/y_v^2 to F, so g goes from -T_p dS_p > 0
    at y = 0 to -inf at y = K, crossing zero once, though not always falling."""
    A, Z, H, (a_c, a_h, a_p) = _branch_terms(coeffs)
    K, E_p, rho_h, f_c = Z - y_c, Z - A - H, a_h / a_p, a_c / a_p * (2.0 * y_c - A)

    def g(y):
        y_h = K - y
        q_h, q_c, f_h = y / y_h, y / y_c, rho_h * (2.0 * y_h - H)
        c = f_c * q_c  # so f_c (y/y_c)^2 = c q_c, where y_c^2 alone can underflow
        return (f_h * q_h * q_h + 2.0 * y - E_p + c * q_c,
                2.0 * (q_h * (f_h * K / (y_h * y_h) - rho_h * q_h) + 1.0 + c / y_c))
    return g


def _stationary_tau_p(coeffs, tau_c):
    """(tau_p, reasons) at the 1-D cold-branch durations ``tau_c``: a_p/y at the
    root of :func:`_line_constraint` in y = a_p/tau_p on (0, K), where tau_h >
    0, by :func:`_newton_root` from min(a_p/tau_c, K/2).  NaN and the reason
    where the coefficients break the sign structure, the balance admits no
    positive tau_h (K <= 0; the reason names the tau_c or delta_c bound that
    fails), or the iteration does not converge."""
    unsigned = _attempt(_require_sign_structure, coeffs)[1]  # None or the reason
    _, Z, _, (a_c, _, a_p) = _branch_terms(coeffs)
    with np.errstate(all="ignore"):  # the entries without a root
        y_c, K = a_c / tau_c, Z - a_c / tau_c
        feasible = K > 0.0
        hi = np.where((unsigned is None) & feasible, K, np.nan)
        y = _newton_root(_line_constraint(coeffs, y_c), np.minimum(a_p / tau_c, 0.5 * hi), 0.0, hi)
    reasons = [None] * tau_c.size
    for i in np.flatnonzero(np.isnan(y)).tolist():
        at = f"at tau_c={tau_c[i]}"
        if unsigned:
            reasons[i] = unsigned
        elif not feasible[i]:  # K = sum_v T_v dS_v - a_c / tau_c
            cause = (f"tau_c must exceed T_c|Sigma_c| / sum_v T_v dS_v = {a_c / Z:.6g}"
                     if Z > 0.0 else "delta_c at or below the reversible amplitude")
            reasons[i] = f"energy balance infeasible for every tau_p {at} ({cause})"
        else:
            reasons[i] = f"stationary tau_p not found in {_NEWTON_MAXITER} steps {at}"
    return a_p / y, reasons


def solve_time_allocation(coeffs, tau_c):
    """The stationary allocation at the given cold-branch duration, as a
    one-element list: the one-point view of :func:`_stationary_tau_p` (the
    constraint has one root with tau_h > 0), held to the constraint by
    :func:`_residual`.  Raises :class:`ConvergenceError` with the reason when
    there is no root or it misses the constraint.
    """
    if tau_c <= 0.0:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    tau_c = float(tau_c)
    (tau_p,), (reason,) = _stationary_tau_p(coeffs, np.array([tau_c]))
    tau_p = float(tau_p)
    with np.errstate(all="ignore"):  # no root
        tau_h = float(_energy_balance(coeffs, tau_c, tau_p)[0])
        residual, limit, missed = _residual(coeffs, tau_c, tau_h, tau_p)
    if reason or missed:
        raise ConvergenceError(reason or _too_large(residual, limit, tau_c))
    return [AllocationSolution(tau_c, tau_h, tau_p, residual,
                               cycle.evaluate_cycle(coeffs, tau_c, tau_h, tau_p))]


def _attempt(fn, *args, **kwargs):
    """``(fn(...), None)``, or None and the reason when fn raises ConvergenceError."""
    try:
        return fn(*args, **kwargs), None
    except ConvergenceError as exc:
        return None, str(exc)


class SweepRecord(NamedTuple):
    """Points of a performance curve, float64 columns (a maximum: floats)."""

    alpha: float
    psi: float
    R: float
    chi: float
    tau_c: float
    tau_h: float
    tau_p: float


def _records(coeffs, alpha, tau_c, tau_p, reasons=None):
    """(record, reasons) at the 1-D durations ``tau_c`` and ``tau_p``, tau_h
    balanced: a SweepRecord of columns over the rows that hold, and each row's
    reason, None where it holds.  A row fails where ``reasons`` (default: none)
    holds one, it misses the stationarity constraint (:func:`_residual`), or it
    does not refrigerate.  ``alpha`` and ``coeffs.Sigma`` may be one per row."""
    reasons = [None] * tau_c.size if reasons is None else reasons
    with np.errstate(all="ignore"):  # the NaN rows
        tau_h = _energy_balance(coeffs, tau_c, tau_p)[0]
        cold, hot, _, R = cycle.cycle_heats(coeffs, tau_c, tau_h, tau_p)
        psi = cold.Q / hot.Q
        chi = psi * R
        residual, limit, missed = _residual(coeffs, tau_c, tau_h, tau_p)
    for i in (missed | ~(np.minimum(hot.Q, cold.Q) > 0.0)).nonzero()[0].tolist():  # NaN fails
        if reasons[i] is None and missed[i]:
            reasons[i] = _too_large(residual[i].item(), limit[i].item(), tau_c[i].item())
        elif reasons[i] is None:
            reasons[i] = (f"allocation at tau_c={tau_c[i].item()} does not refrigerate "
                          f"(Q_c={cold.Q[i].item():.3e}, Q_h={hot.Q[i].item():.3e})")
    record = SweepRecord(np.full(tau_c.shape, alpha, dtype=float), psi, R, chi,
                         tau_c, tau_h, tau_p)
    if any(reasons):  # a row failed; a one-row peak that holds pays for no mask
        holds = np.array([why is None for why in reasons])
        record = record._make(c[holds] for c in record)
    return record, reasons


def _peak_record(coeffs, alpha, k):
    """The row of :func:`_records` at ``_peak(coeffs, k)`` in floats, or ConvergenceError."""
    record, (reason,) = _records(coeffs, alpha, *np.array([_peak(coeffs, k)]).T)
    if reason:
        raise ConvergenceError(reason)
    return SweepRecord._make(map(np.ndarray.item, record))


@dataclass(frozen=True)
class CurveResult:
    """Optimal performance curve (columns by COP), a ``(tau_c, reason)`` pair
    per grid point that failed to solve (``skipped``) and the coefficients."""

    records: SweepRecord
    skipped: list
    coeffs: cycle.CycleCoefficients


def optimal_curve(config, tau_c_grid=None):
    """Stationary allocation per tau_c, sorted by COP, from one
    :func:`_stationary_tau_p` call over the whole grid.

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
    records, reasons = _records(coeffs, config.alpha, tau_c_grid,
                               *_stationary_tau_p(coeffs, tau_c_grid))
    skipped = [(t, why) for t, why in zip(tau_c_grid.tolist(), reasons) if why]
    if records.psi.size < 10:
        raise ConvergenceError(
            f"only {records.psi.size} of {tau_c_grid.size} grid points converged "
            f"(first failure: {skipped[0][1]})",
            failed_points=skipped,
        )
    order = np.argsort(records.psi, kind="stable")
    return CurveResult(records._make(c[order] for c in records), skipped, coeffs)


def _branch_terms(coeffs):
    """(A, Z, T_h dS_h, (a_c, a_h, a_p)): A = T_c dS_c, Z = sum_v T_v dS_v and
    a_v = -T_v Sigma_v, so Q_v = T_v dS_v - a_v / tau_v."""
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    return (T_c * dS_c, T_c * dS_c + T_h * dS_h + T_p * dS_p, T_h * dS_h,
            (-T_c * S_c, -T_h * S_h, -T_p * S_p))


def _peak(coeffs, k):
    """(tau_c, tau_p) of the largest psi^k R over the energy-balanced triples:
    k = 0 is the cooling-rate peak, k = 1 the figure-of-merit peak (chi = psi
    R).  In (u, v) = (a_c/tau_c, a_p/tau_p), Q_c = A - u, Q_h = H - w and
    a_h/tau_h = w = Z - u - v have slopes +-1, and tau/a_c = t = 1/u + rho_p/v
    + rho_h/w, rho_v = a_v/a_c, so ln(psi^k R) = (1 + k) ln Q_c - k ln Q_h - ln
    t + const.  Newton's method on its gradient starts at u = min(A, Z)/2 on the
    R-optimal split tau_h/tau_p = sqrt(a_h/a_p) and halves a step until 0 < u <
    A, v > 0 and Z - H < u + v < Z, which keeps the durations and heats
    positive.  Done at a relative step of ``_NEWTON_RTOL`` and a
    negative-definite Hessian; Z <= 0 or no end: ConvergenceError."""
    _require_sign_structure(coeffs)
    A, Z, H, (a_c, a_h, a_p) = _branch_terms(coeffs)
    if not Z > 0.0:
        raise ConvergenceError(f"no admissible cooling-rate peak (A={A:.3e}, Z={Z:.3e})")
    r_h, r_p, rho_h, rho_p = math.sqrt(a_h), math.sqrt(a_p), a_h / a_c, a_p / a_c
    u = 0.5 * min(A, Z)
    v = r_p * (Z - u) / (r_h + r_p)
    name = ("cooling-rate", "figure-of-merit")[k]
    for _ in range(_NEWTON_MAXITER):  # x * x, not x ** 2: a Python float pow can raise
        Q_c, Q_h, w = A - u, H - Z + u + v, Z - u - v
        # t = tau/a_c: grad t = (t_u, t_v), hess t = diag(2/u^3, 2 rho_p/v^3) + s (1 1; 1 1)
        t, s, r = 1.0 / u + rho_p / v + rho_h / w, 2.0 * rho_h / (w * w * w), rho_h / (w * w)
        t_u, t_v = r - 1.0 / (u * u), r - rho_p / (v * v)
        g_u, g_v = -(1 + k) / Q_c - k / Q_h - t_u / t, -k / Q_h - t_v / t
        q_h, q_t = k / (Q_h * Q_h) - s / t, 1.0 / (t * t)
        h_uu = q_h - (1 + k) / (Q_c * Q_c) - 2.0 / (u * u * u) / t + t_u * t_u * q_t
        h_uv = q_h + t_u * t_v * q_t
        h_vv = q_h - 2.0 * rho_p / (v * v * v) / t + t_v * t_v * q_t
        det = h_uu * h_vv - h_uv * h_uv
        d_u, d_v = (h_vv * g_u - h_uv * g_v) / det, (h_uu * g_v - h_uv * g_u) / det
        while not (0.0 < u - d_u < A and v - d_v > 0.0 and Z - H < u - d_u + v - d_v < Z):
            if not (math.isfinite(d_u) and math.isfinite(d_v)):  # no halving ends
                raise ConvergenceError(f"{name} peak: Newton step not finite at "
                                       f"1/tau_c={u / a_c}, 1/tau_p={v / a_p}")
            d_u, d_v = 0.5 * d_u, 0.5 * d_v
        u, v = u - d_u, v - d_v
        if abs(d_u) <= _NEWTON_RTOL * u and abs(d_v) <= _NEWTON_RTOL * v and h_uu < 0.0 < det:
            return a_c / u, a_p / v
    raise ConvergenceError(f"{name} peak not found in {_NEWTON_MAXITER} steps")


def _cop_range(coeffs):
    """(lo, hi) of the COPs with tau_h > 0 (psi > (A - Z)/H) and tau_p > 0 (psi <
    A/(H - Z)); T and dS fix both, so no alpha moves them."""
    A, Z, H, _ = _branch_terms(coeffs)
    return max(0.0, (A - Z) / H), A / (H - Z)


def _cop_points(coeffs, psi):
    """(tau_c, tau_p, R) arrays of the largest R at each fixed COP ``psi``, NaN
    outside :func:`_cop_range`.  With Q_h = Q_c/psi and Q_p = -k Q_c, k = 1 +
    1/psi, the rates y_h = H - Q_c/psi and y_p = P + k Q_c (P = T_p dS_p) are
    linear in y = a_c/tau_c = A - Q_c, and tau/a_c = t = 1/y + rho_h/y_h +
    rho_p/y_p, rho_v = a_v/a_c, is convex in y.  So g = -t - Q_c t' falls (g' =
    -Q_c t'' < 0) from +inf to -inf on the admissible y, and
    :func:`_newton_root` takes its root."""
    _require_sign_structure(coeffs)
    A, Z, H, (a_c, a_h, a_p) = _branch_terms(coeffs)
    P, psi, rho_h, rho_p = Z - A - H, np.asarray(psi, dtype=float), a_h / a_c, a_p / a_c
    with np.errstate(all="ignore"):  # the NaN entries
        k = 1.0 + 1.0 / psi
        lo, hi = np.maximum(A - psi * H, 0.0), A + P / k
        lo, hi = (np.where((psi > 0.0) & (lo < hi), x, np.nan) for x in (lo, hi))

        def g(y):  # each term b = rho_v/y_v of t has b' = -b e, b'' = 2 b e^2
            Q_c = A - y
            y_h, y_p = H - Q_c / psi, P + k * Q_c
            b_c, b_h, b_p = 1.0 / y, rho_h / y_h, rho_p / y_p
            e_c, e_h, e_p = b_c, 1.0 / (psi * y_h), -k / y_p  # e = y_v'/y_v
            t_y = -(b_c * e_c + b_h * e_h + b_p * e_p)
            t_yy = 2.0 * (b_c * e_c * e_c + b_h * e_h * e_h + b_p * e_p * e_p)
            return -(b_c + b_h + b_p) - Q_c * t_y, -(Q_c * t_yy)

        y = _newton_root(g, 0.5 * (lo + hi), lo, hi)
        failed = np.isnan(y) & ~np.isnan(lo)
        if failed.any():
            raise ConvergenceError(f"fixed-COP Newton iteration found no maximum at "
                                   f"psi={psi[failed].flat[0]} in {_NEWTON_MAXITER} steps")
        Q_c = A - y
        tau_c, tau_p = a_c / y, a_p / (P + k * Q_c)
        return tau_c, tau_p, Q_c / (tau_c + a_h / (H - Q_c / psi) + tau_p)


def max_cooling_rate(coeffs, alpha):
    """SweepRecord of the cooling-rate maximum, at ``_peak(coeffs, 0)``'s durations."""
    return _peak_record(coeffs, alpha, 0)


def max_figure_of_merit(coeffs, alpha):
    """SweepRecord of the figure-of-merit maximum, at ``_peak(coeffs, 1)``'s durations."""
    return _peak_record(coeffs, alpha, 1)


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


def curve_maxima(coeffs, alpha):
    """AlphaRecord of the R and chi maxima of the coefficients ``coeffs``:
    :func:`max_cooling_rate` and :func:`max_figure_of_merit`."""
    at_R, at_chi = max_cooling_rate(coeffs, alpha), max_figure_of_merit(coeffs, alpha)
    return AlphaRecord(float(alpha), at_R.R, at_chi.chi, at_R.psi, at_chi.psi)


def _alpha_maxima(config, alphas):
    """((coefficients, AlphaRecord), None) of ``config`` at each of the
    ``alphas`` (:func:`curve_maxima`), or None and the reason, from one
    :func:`cycle.cycle_coefficients` call (its failure is every alpha's)."""
    batch, why = _attempt(cycle.cycle_coefficients, replace(config, alpha=np.array(alphas)))
    if batch is None:
        return [(None, why)] * len(alphas)
    each = [replace(batch, Sigma=sigma) for sigma in zip(*(s.tolist() for s in batch.Sigma))]
    return [_attempt(lambda coeffs, alpha: (coeffs, curve_maxima(coeffs, alpha)), coeffs, alpha)
            for coeffs, alpha in zip(each, alphas)]


def _alpha_rows(config, alpha_grid, size, min_size=1):
    """(points, skipped, at_R, at_chi) over ``alpha_grid`` (None: ``size``
    alphas across the window), which needs ``min_size`` alphas in the window
    (else ValueError): :func:`_alpha_maxima` of the alphas, ``(alpha,
    reason)`` of those that fail (all failing is an error), and the best
    points for R_max and chi_max over every alpha known (a failed one is
    -inf), each zoomed in on by :func:`_alpha_maxima` calls while it is inside.
    No alpha is computed twice."""
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
    known = {alpha: point for alpha, (point, _) in zip(alphas.tolist(), results)}
    refined = []
    for key in ("R_max", "chi_max"):
        while True:
            xs = sorted(known)
            i = int(np.argmax([getattr(known[x] and known[x][1], key, -math.inf) for x in xs]))
            if not 0 < i < len(xs) - 1 or xs[i + 1] - xs[i - 1] <= _ALPHA_XTOL:
                break
            new = [a for a in np.linspace(xs[i - 1], xs[i + 1], _ZOOM_POINTS + 2)[1:-1].tolist()
                   if a not in known]
            known.update(zip(new, (point for point, _ in _alpha_maxima(config, new))))
        refined.append(known[xs[i]])
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
    """Alpha-optimized curve (columns), the envelope of R(psi) and so of chi(psi)
    = psi R, its peak COPs and ``(psi, reason)`` pairs of the ``skipped`` COPs."""

    records: SweepRecord
    psi_R: float
    psi_chi: float
    skipped: list


def _cop_records(pairs, psi_grid):
    """(record, skipped) of one :func:`_records` call at the COPs ``psi_grid``,
    each row at the fixed-COP durations (:func:`_cop_points`), Sigma and alpha
    of the first ``(coeffs, alpha)`` pair with the largest R there (the pairs
    share T and dS), and ``(psi, reason)`` of the COPs that fail."""
    tau_c, tau_p, R = map(np.array, zip(*(_cop_points(coeffs, psi_grid) for coeffs, _ in pairs)))
    outside = "outside the attainable range ({:.4f}, {:.4f})".format(*_cop_range(pairs[0][0]))
    best = (np.nan_to_num(R, nan=-np.inf).argmax(axis=0), np.arange(psi_grid.size))
    sigma, alpha = (np.array(x)[best[0]] for x in zip(*((c.Sigma, a) for c, a in pairs)))
    preset = [outside if x else None for x in np.isnan(R[best]).tolist()]
    records, reasons = _records(replace(pairs[0][0], Sigma=tuple(sigma.T)), alpha,
                                tau_c[best], tau_p[best], preset)
    return records, [(psi, why) for psi, why in zip(psi_grid.tolist(), reasons) if why]


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
    if not records.psi.size:
        raise ConvergenceError("no requested COP is attained by any alpha in the window",
                               failed_points=skipped)
    return EnvelopeResult(records=records, psi_R=at_R[1].psi_at_R_max,
                          psi_chi=at_chi[1].psi_at_chi_max, skipped=skipped)


class ProfilePoint(NamedTuple):
    """Durations along the optimal curve, float64 columns over its COPs."""

    psi: float
    tau_total: float
    ratio_hp: float  # tau_h / tau_p
    ratio_cp: float  # tau_c / tau_p
    tau_c: float
    tau_h: float
    tau_p: float


def time_allocation_profile(coeffs, alpha, psi_grid):
    """Duration profile, a ProfilePoint of columns, of :func:`_cop_records` at
    the frequency exponent ``alpha`` (its coefficients ``coeffs``), no curve
    built; a target COP that fails is a ConvergenceError.

    The expected shape (total time increasing with the COP, tau_h/tau_p
    falling and tau_c/tau_p rising) is checked between consecutive points;
    each kind of violation raises one RuntimeWarning with its count and first
    psi pair, and the caller decides whether the shape is a requirement.
    """
    r, skipped = _cop_records([(coeffs, alpha)], np.asarray(psi_grid, dtype=float))
    if skipped:
        raise ConvergenceError(f"no allocation at psi={skipped[0][0]}: {skipped[0][1]}",
                               failed_points=skipped)
    points = ProfilePoint(r.psi, r.tau_c + r.tau_h + r.tau_p, r.tau_h / r.tau_p,
                          r.tau_c / r.tau_p, r.tau_c, r.tau_h, r.tau_p)
    psi, total, hp, cp = points[:4]
    rising = psi[1:] > psi[:-1]  # duplicate targets are not compared
    tol = 1e-12
    for what, bad in (("total time not increasing", total[1:] < total[:-1] * (1.0 - tol)),
                      ("tau_h/tau_p not falling or tau_c/tau_p not rising",
                       (hp[1:] > hp[:-1] * (1.0 + tol)) | (cp[1:] < cp[:-1] * (1.0 - tol)))):
        pairs = np.flatnonzero(rising & bad)
        if pairs.size:
            a, b = psi[pairs[0]:pairs[0] + 2].tolist()
            warnings.warn(
                f"{what} between {pairs.size} of {psi.size - 1} consecutive psi "
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
