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
once the three quadratures are done.

Every fixed-alpha result takes one path: :func:`optimal_curve` solves a curve
and keeps its coefficients, :func:`curve_extrema` refines both maxima on it,
and profiles and envelope points re-solve from the curve alone.  The alpha
sweeps golden-section search alpha over one memoized refined record per alpha.
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
    "stationarity_residual",
    "solve_time_allocation",
    "optimal_curve",
    "max_cooling_rate",
    "max_figure_of_merit",
    "curve_extrema",
    "alpha_sweep",
    "envelope_curve",
    "time_allocation_profile",
    "free_time_sweep",
    "DEFAULT_TAU_C_GRID",
    "DEFAULT_ALPHA_WINDOW",
]

# tau_c sweep used when the caller does not supply a grid: wide enough to
# cover the R peak and the large-time COP saturation for every alpha in the
# default window.
DEFAULT_TAU_C_GRID = np.geomspace(0.3, 3000.0, 120)
DEFAULT_ALPHA_WINDOW = (-0.5, 1.5)


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


def balanced_tau_h(config, tau_c, tau_p, coeffs=None):
    """Hot-branch duration closing the energy balance Q_c + Q_h + Q_p = 0."""
    if coeffs is None:
        coeffs = cycle.cycle_coefficients(config)
    tau_h, _ = _energy_balance(coeffs, tau_c, tau_p)
    if not tau_h > 0.0:
        raise ValueError(
            f"no positive energy-balanced tau_h at tau_c={tau_c}, tau_p={tau_p}"
        )
    return float(tau_h)


def _energy_balance(coeffs, tau_c, tau_p):
    """(tau_h, Q_c) with tau_h closing the energy balance, NaN where the balance
    admits no positive tau_h.  Scalars or broadcastable arrays."""
    T_c, T_h, T_p = coeffs.T
    dS_c, dS_h, dS_p = coeffs.dS
    S_c, S_h, S_p = coeffs.Sigma
    Q_c = T_c * (dS_c + S_c / tau_c)
    denom = T_p * (dS_p + S_p / tau_p) + Q_c + T_h * dS_h
    return -T_h * S_h / np.where(denom > 0.0, denom, np.nan), Q_c


def _stationarity_terms(coeffs, tau_c, tau_h, tau_p):
    """The four terms of the multiplier-free stationarity constraint."""
    dS_c, dS_h, dS_p = coeffs.dS
    S_c, S_h, S_p = coeffs.Sigma
    return (dS_h * tau_h ** 2 / S_h, dS_p * tau_p ** 2 / S_p,
            dS_c * tau_c ** 2 / S_c, 2.0 * (tau_c + tau_h + tau_p))


def stationarity_residual(coeffs, tau_c, tau_h, tau_p):
    """Left side of the multiplier-free stationarity constraint."""
    return sum(_stationarity_terms(coeffs, tau_c, tau_h, tau_p))


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
    T_c, T_h, T_p = coeffs.T
    dS_c, dS_h, dS_p = coeffs.dS
    S_c, S_h, S_p = coeffs.Sigma
    N, M = -T_h * S_h, T_p * S_p
    K = T_p * dS_p + T_c * (dS_c + S_c / tau_c) + T_h * dS_h
    a_h, a_p = dS_h / S_h, dS_p / S_p
    c0 = dS_c * tau_c ** 2 / S_c + 2 * tau_c
    return K, M, (a_p * K ** 2, 2 * K * (a_p * M + K),
                  a_p * M ** 2 + 4 * K * M + c0 * K ** 2 + a_h * N ** 2 + 2 * N * K,
                  2 * M * (M + c0 * K + N), c0 * M ** 2)


def solve_time_allocation(config, tau_c, coeffs=None):
    """All stationary allocations at the given cold-branch duration.

    The real roots of the stationarity quartic above -M/K (tau_h > 0), each
    polished by one Newton step, ordered by descending cooling rate, so the
    principal solution comes first.  A root without a finite Newton update,
    or one that misses the stationarity constraint by more than
    ``_RESIDUAL_RTOL`` of its summed term magnitudes (a spurious root at the
    pole -M/K of the balanced tau_h), is dropped.  Raises
    :class:`ConvergenceError` when the energy balance admits no positive
    tau_h (K <= 0), tau_c overflows a quartic coefficient or its companion
    matrix, or no root is left; the reason is then the first dropped root's,
    if any.
    """
    if tau_c <= 0.0:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    if coeffs is None:
        coeffs = cycle.cycle_coefficients(config)
    _require_sign_structure(coeffs)

    try:
        K, M, poly = _stationarity_quartic(coeffs, tau_c)
    except OverflowError:  # ** on a Python float raises where * gives inf
        poly = (math.inf,)
    if not all(map(math.isfinite, poly)):
        raise ConvergenceError(f"stationarity quartic coefficients overflow at tau_c={tau_c}")
    if not K > 0.0:
        raise ConvergenceError(
            f"energy balance infeasible for every tau_p at tau_c={tau_c} "
            f"(likely delta_c at or below the reversible amplitude)"
        )
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
        tau_h, _ = _energy_balance(coeffs, tau_c, tau_p)
        residual_c, reason = _attempt(_checked_residual, coeffs, tau_c, tau_h, tau_p)
        if reason is not None:
            dropped.append(reason)
            continue
        solutions.append(AllocationSolution(
            tau_c=float(tau_c), tau_h=float(tau_h), tau_p=float(tau_p),
            residual_constraint=float(residual_c),
            metrics=cycle._metrics_from_coeffs(coeffs, tau_c, tau_h, tau_p),
        ))
    if not solutions:
        raise ConvergenceError(
            dropped[0] if dropped else f"no stationary tau_p with tau_h > 0 at tau_c={tau_c}")
    solutions.sort(key=lambda sol: -sol.metrics.R)
    return solutions


def _attempt(fn, *args, **kwargs):
    """``(fn(...), None)``, or ``(None, reason)`` when fn raises ConvergenceError."""
    try:
        return fn(*args, **kwargs), None
    except ConvergenceError as exc:
        return None, str(exc)


def _principal(coeffs, tau_c):
    """Principal refrigeration solution at tau_c.

    Raises :class:`ConvergenceError` when the solver fails or its principal
    solution does not refrigerate.
    """
    best = solve_time_allocation(None, tau_c, coeffs=coeffs)[0]
    m = best.metrics
    if not m.valid or m.cold.Q <= 0.0:
        raise ConvergenceError(
            f"principal solution at tau_c={tau_c} does not refrigerate "
            f"(valid={m.valid}, Q_c={m.cold.Q:.3e})"
        )
    return best


class SweepRecord(NamedTuple):
    """One point of a performance curve."""

    alpha: float
    psi: float
    R: float
    chi: float
    tau_c: float
    tau_h: float
    tau_p: float


def _record(alpha, sol):
    m = sol.metrics
    return SweepRecord(alpha=float(alpha), psi=m.psi, R=m.R, chi=m.chi,
                       tau_c=sol.tau_c, tau_h=sol.tau_h, tau_p=sol.tau_p)


@dataclass(frozen=True)
class CurveResult:
    """Optimal performance curve, the grid points that failed to solve and
    the branch coefficients it was solved with.

    ``skipped`` holds one ``(tau_c, reason)`` pair per failed grid point.
    """

    records: list
    skipped: list
    coeffs: cycle.CycleCoefficients


def optimal_curve(config, tau_c_grid=None, coeffs=None):
    """Principal allocation per tau_c, sorted by COP.

    Grid points without a convergent refrigeration solution are skipped and
    reported in ``skipped`` as ``(tau_c, reason)`` pairs; fewer than 10
    survivors is an error that carries the same pairs as its ``failed_points``.
    """
    if tau_c_grid is None:
        tau_c_grid = DEFAULT_TAU_C_GRID
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    if tau_c_grid.size < 100:
        raise ValueError("tau_c grid needs >= 100 points")
    if np.any(tau_c_grid <= 0.0):
        raise ValueError("tau_c grid must be positive")
    if coeffs is None:
        coeffs = cycle.cycle_coefficients(config)
    records, skipped = [], []
    for tau_c in tau_c_grid:
        sol, reason = _attempt(_principal, coeffs, float(tau_c))
        if sol is None:
            skipped.append((float(tau_c), reason))
        else:
            records.append(_record(config.alpha if config is not None else np.nan, sol))
    if len(records) < 10:
        raise ConvergenceError(
            f"only {len(records)} of {tau_c_grid.size} grid points converged "
            f"(first failure: {skipped[0][1]})",
            failed_points=skipped,
        )
    records.sort(key=lambda r: r.psi)
    return CurveResult(records=records, skipped=skipped, coeffs=coeffs)


def _refine_objective(curve, key):
    """(value, allocation): golden-section refinement of max(record.key) over
    log tau_c.  Never returns less than the best grid record; each allocation
    is solved once, the best grid record's only when it is returned.
    """
    coeffs, recs = curve.coeffs, sorted(curve.records, key=lambda r: r.tau_c)
    values = [getattr(r, key) for r in recs]
    i = int(np.argmax(values))
    best_val = values[i]
    if 0 < i < len(recs) - 1:  # a peak on the grid edge has nothing to bracket
        solved = {}

        def negated(x):
            sol = solved[x] = _attempt(_principal, coeffs, math.exp(x))[0]
            return -getattr(sol.metrics, key) if sol is not None else np.inf

        res = golden(negated, math.log(recs[i - 1].tau_c), math.log(recs[i].tau_c),
                     math.log(recs[i + 1].tau_c), xtol=1e-9)
        if res is not None and -res[1] > best_val:
            return -res[1], solved[res[0]]
    return best_val, _attempt(_principal, coeffs, recs[i].tau_c)[0]


def max_cooling_rate(config, tau_c_grid=None, coeffs=None):
    """(psi at max R, max R, allocation) with golden-section refinement."""
    R_max, sol = _refine_objective(optimal_curve(config, tau_c_grid, coeffs), "R")
    return sol.metrics.psi, R_max, sol


def max_figure_of_merit(config, tau_c_grid=None, coeffs=None):
    """(psi at max chi, max chi, allocation) with golden-section refinement."""
    chi_max, sol = _refine_objective(optimal_curve(config, tau_c_grid, coeffs), "chi")
    return sol.metrics.psi, chi_max, sol


class AlphaRecord(NamedTuple):
    """Best cooling rate and figure of merit at one frequency exponent."""

    alpha: float
    R_max: float
    chi_max: float
    psi_at_R_max: float
    psi_at_chi_max: float


@dataclass(frozen=True)
class AlphaSweepResult:
    """Per-alpha extrema; ``skipped`` holds ``(alpha, reason)`` pairs.

    ``extrema_R`` and ``extrema_chi`` are the (curve, AlphaRecord) pairs of
    :func:`curve_extrema` at ``alpha_R`` and ``alpha_chi``.
    """

    rows: list
    alpha_chi: float
    alpha_R: float
    chi_max: float
    R_max: float
    skipped: list
    extrema_R: tuple
    extrema_chi: tuple


def curve_extrema(config, tau_c_grid=None):
    """(optimal curve, AlphaRecord of its refined R and chi maxima) from one curve."""
    curve = optimal_curve(config, tau_c_grid=tau_c_grid)
    R_max, sol_R = _refine_objective(curve, "R")
    chi_max, sol_chi = _refine_objective(curve, "chi")
    return curve, AlphaRecord(alpha=float(config.alpha), R_max=R_max, chi_max=chi_max,
                              psi_at_R_max=sol_R.metrics.psi,
                              psi_at_chi_max=sol_chi.metrics.psi)


def _alpha_extrema(config, tau_c_grid):
    """Memoized ``alpha -> ((curve, refined AlphaRecord), None)``, or
    ``(None, reason)`` when :func:`curve_extrema` fails at that alpha."""
    cache = {}

    def at(alpha):
        alpha = float(alpha)
        if alpha not in cache:
            cache[alpha] = _attempt(curve_extrema, replace(config, alpha=alpha), tau_c_grid)
        return cache[alpha]

    return at


def _refine_alpha(extrema, coarse, key):
    """(alpha, (curve, refined AlphaRecord)) maximizing ``key``: golden section
    over alpha around the best of the ascending ``(alpha, value)`` pairs
    ``coarse`` (which only choose the bracket, and must all refine) on
    ``extrema(alpha)``."""
    i = max(range(len(coarse)), key=lambda j: coarse[j][1])
    alpha = coarse[i][0]
    if 0 < i < len(coarse) - 1:
        def negated(a):
            pair = extrema(a)[0]
            return -getattr(pair[1], key) if pair is not None else np.inf

        res = golden(negated, coarse[i - 1][0], alpha, coarse[i + 1][0], xtol=1e-4)
        if res is not None and -res[1] > coarse[i][1]:
            alpha = float(res[0])
    return alpha, extrema(alpha)[0]


def alpha_sweep(config, alpha_grid=None, tau_c_grid=None):
    """Best R and chi per frequency exponent, plus the locations of their maxima.

    Failing grid points are skipped and listed in ``skipped`` as
    ``(alpha, reason)`` pairs.
    """
    if alpha_grid is None:
        alpha_grid = np.linspace(*DEFAULT_ALPHA_WINDOW, 101)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if alpha_grid.size < 100:
        raise ValueError("alpha grid needs >= 100 points")
    if alpha_grid.min() < DEFAULT_ALPHA_WINDOW[0] - 1e-12 or \
       alpha_grid.max() > DEFAULT_ALPHA_WINDOW[1] + 1e-12:
        raise ValueError(f"alpha grid must stay within {DEFAULT_ALPHA_WINDOW}")

    extrema = _alpha_extrema(config, tau_c_grid)
    results = [extrema(a) for a in alpha_grid]
    rows = [pair[1] for pair, _ in results if pair is not None]
    skipped = [(float(a), reason) for a, (pair, reason) in zip(alpha_grid, results)
               if pair is None]
    if not rows:
        raise ConvergenceError("every alpha grid point failed", failed_points=skipped)

    alpha_R, at_R = _refine_alpha(extrema, [(r.alpha, r.R_max) for r in rows], "R_max")
    alpha_chi, at_chi = _refine_alpha(extrema, [(r.alpha, r.chi_max) for r in rows],
                                      "chi_max")
    return AlphaSweepResult(rows=rows, alpha_chi=alpha_chi, alpha_R=alpha_R,
                            chi_max=at_chi[1].chi_max, R_max=at_R[1].R_max,
                            skipped=skipped, extrema_R=at_R, extrema_chi=at_chi)


@dataclass(frozen=True)
class EnvelopeResult:
    """Alpha-optimized performance curves and their peak COPs."""

    r_curve: list
    chi_curve: list
    psi_R: float
    psi_chi: float
    skipped: list


def _interp_on_curve(records, psi):
    """Linear interpolation of (R, chi, tau_c) at the requested COP, or None."""
    psis = np.array([r.psi for r in records])
    if not (psis[0] <= psi <= psis[-1]):
        return None
    return tuple(float(np.interp(psi, psis, [getattr(r, key) for r in records]))
                 for key in ("R", "chi", "tau_c"))


def envelope_curve(config, psi_grid=None, alpha_window=DEFAULT_ALPHA_WINDOW,
                   alpha_points=61, tau_c_grid=None):
    """Upper envelopes of R(psi) and chi(psi) over the frequency exponent.

    For every target COP the best alpha is selected among ``alpha_points``
    fixed-alpha optimal curves (each inverted by monotone interpolation);
    the matching duration triple is then re-solved exactly.  The labeled
    peaks come from refining the best alpha for each objective.
    """
    alphas = np.linspace(alpha_window[0], alpha_window[1], alpha_points)
    results = [_attempt(optimal_curve, replace(config, alpha=float(a)), tau_c_grid)
               for a in alphas]
    built = [(float(a), curve.coeffs, curve.records)
             for a, (curve, _) in zip(alphas, results) if curve is not None]
    if not built:
        raise ConvergenceError(
            "no alpha in the window produced an optimal curve",
            failed_points=[(float(a), reason) for a, (_, reason) in zip(alphas, results)],
        )

    if psi_grid is None:
        lo = min(recs[0].psi for _, _, recs in built)
        hi = max(recs[-1].psi for _, _, recs in built)
        span = hi - lo
        psi_grid = np.linspace(lo + 0.01 * span, hi - 0.01 * span, 80)
    psi_grid = np.asarray(psi_grid, dtype=float)

    r_curve, chi_curve, skipped = [], [], []
    for psi in psi_grid:
        best_r, best_chi = None, None
        for alpha, coeffs, recs in built:
            hit = _interp_on_curve(recs, psi)
            if hit is None:
                continue
            R, chi, tau_c = hit
            if best_r is None or R > best_r[0]:
                best_r = (R, alpha, coeffs, tau_c)
            if best_chi is None or chi > best_chi[0]:
                best_chi = (chi, alpha, coeffs, tau_c)
        if best_r is None:
            skipped.append(float(psi))
            continue
        for best, out in ((best_r, r_curve), (best_chi, chi_curve)):
            _, alpha, coeffs, tau_c = best
            sol = _attempt(_principal, coeffs, tau_c)[0]
            if sol is not None:
                out.append(_record(alpha, sol))
    if skipped and len(skipped) == len(psi_grid):
        raise ConvergenceError(
            "no requested COP is attained by any alpha in the window",
            failed_points=skipped,
        )

    # Peak COPs of the envelopes: the unrefined per-alpha grid maxima bracket
    # alpha (every built curve refines), and the peak psi is read off the
    # refined record there.
    extrema = _alpha_extrema(config, tau_c_grid)
    coarse_R = [(a, max(r.R for r in recs)) for a, _, recs in built]
    coarse_chi = [(a, max(r.chi for r in recs)) for a, _, recs in built]
    _, (_, at_R) = _refine_alpha(extrema, coarse_R, "R_max")
    _, (_, at_chi) = _refine_alpha(extrema, coarse_chi, "chi_max")
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


def time_allocation_profile(config, psi_grid, alpha, tau_c_grid=None):
    """Duration profile along the fixed-alpha optimal curve.

    The expected shape (total time increasing with the COP, both duration
    ratios decreasing) is checked between consecutive points, and each kind
    of violation raises one RuntimeWarning giving its count and first psi
    pair, so sweep output is never silently trusted; the caller decides
    whether the shape is a hard requirement.
    """
    return _profile(optimal_curve(replace(config, alpha=float(alpha)), tau_c_grid), psi_grid)


def _profile(curve, psi_grid):
    """:func:`time_allocation_profile` along an already built curve."""
    coeffs, records = curve.coeffs, curve.records
    psi_grid = np.asarray(psi_grid, dtype=float)
    unreachable = [float(p) for p in psi_grid
                   if not (records[0].psi <= p <= records[-1].psi)]
    if unreachable:
        raise ConvergenceError(
            f"COP targets outside the attainable range "
            f"[{records[0].psi:.4f}, {records[-1].psi:.4f}]",
            failed_points=unreachable,
        )
    points = []
    for psi in psi_grid:
        _, _, tau_c = _interp_on_curve(records, float(psi))
        sol = _attempt(_principal, coeffs, tau_c)[0]
        if sol is None:
            raise ConvergenceError(f"allocation lost while refining psi={psi}")
        points.append(ProfilePoint(
            psi=sol.metrics.psi,
            tau_total=sol.tau_c + sol.tau_h + sol.tau_p,
            ratio_hp=sol.tau_h / sol.tau_p,
            ratio_cp=sol.tau_c / sol.tau_p,
            tau_c=sol.tau_c, tau_h=sol.tau_h, tau_p=sol.tau_p,
        ))
    tol = 1e-12
    total_drops, ratio_rises = [], []
    for a, b in zip(points, points[1:]):
        if b.psi <= a.psi:
            continue  # duplicate targets
        if b.tau_total < a.tau_total * (1.0 - tol):
            total_drops.append((a.psi, b.psi))
        if b.ratio_hp > a.ratio_hp * (1.0 + tol) or b.ratio_cp > a.ratio_cp * (1.0 + tol):
            ratio_rises.append((a.psi, b.psi))
    for what, pairs in (("total time not increasing", total_drops),
                        ("duration ratios not decreasing", ratio_rises)):
        if pairs:
            warnings.warn(
                f"{what} between {len(pairs)} of {len(points) - 1} consecutive psi "
                f"pairs, first between psi={pairs[0][0]} and psi={pairs[0][1]}",
                RuntimeWarning, stacklevel=3,  # at the caller of time_allocation_profile
            )
    return points


@dataclass(frozen=True)
class FreeSweepResult:
    """Cooling rate over a free (tau_c, tau_p) grid with tau_h balanced."""

    tau_c_grid: np.ndarray
    tau_p_grid: np.ndarray
    R: np.ndarray  # shape (len(tau_c), len(tau_p)), NaN where infeasible
    tau_h: np.ndarray


def free_time_sweep(config, tau_c_grid, tau_p_grid, coeffs=None):
    """Cooling rate for every (tau_c, tau_p); tau_h closes the energy balance.

    Grid cells where no positive balanced tau_h exists are NaN.
    """
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    tau_p_grid = np.asarray(tau_p_grid, dtype=float)
    if np.any(tau_c_grid <= 0.0) or np.any(tau_p_grid <= 0.0):
        raise ValueError("duration grids must be positive")
    if coeffs is None:
        coeffs = cycle.cycle_coefficients(config)
    tc, tp = tau_c_grid[:, None], tau_p_grid[None, :]
    tau_h, Q_c = _energy_balance(coeffs, tc, tp)
    R = Q_c / (tc + tau_h + tp)
    return FreeSweepResult(tau_c_grid=tau_c_grid, tau_p_grid=tau_p_grid,
                           R=R, tau_h=tau_h)
