"""Independent oracles used by the tests.

These deliberately avoid the production shortcuts: the dissipation
coefficient is evaluated from its defining trace expression with a
finite-difference outer derivative and the full generalized-inverse matrix,
the Drazin inverse is rebuilt spectrally from an eigendecomposition, and the
RK4 reference applies each stage generator to the state vector step by step.
The zeroth-heat scan and the temperature-entropy trajectory are the per-point
loops the package ran before it evaluated them as array expressions: one
config and three branches per amplitude, one state per sample (a
:class:`TrajectoryPoint`, a row of the package's :class:`Trajectory` columns).
The allocation reference is the stationarity quartic that the package solved
before it took its tau_p as one bracketed Newton root on the energy-balance
line: denominators cleared, coefficients squared by Python's pow, one
``np.roots``, plain-float Newton step, residual check and ``evaluate_cycle``
per root, and the principal root the one with the largest R.  The
cooling-rate peak reference, :func:`rate_peak_reference`, is the one the
package took before it solved the peak as one bracketed root in the rate
a_c/tau_c: all three roots of a cubic in tau_c by ``np.roots``, filtered to
the admissible ones, the one with the largest R kept.

Simpson's rule and the heat it gave over the stored samples, the package's
heat before each RK4 step carried it, are kept as :func:`simpson_heat`.  The
samples come from :func:`sample_path`, which applies the integrator's batch
maps batch by batch, as :func:`qtricycle.propagate` did before it returned the
branch map alone; :func:`rk4_reference` is too slow for the long branches.
The per-cell CSV emitter, one ``_fmt_cell`` call per cell of a report's rows,
is :func:`csv_report_reference`; the package takes that path only for a
report below its crossover and builds a larger one from its digit kernel,
which the tests hold to this reference byte for byte.  The package takes a
report as its columns; :func:`report_columns` and :func:`report_rows` turn
rows into columns and back, and :func:`record_rows` turns a curve's or a
profile's record of columns into one record per row.

The Drazin inverse, the effective temperature and the von Neumann entropy
live here only: the package computes Sigma from its closed-form integrand
and the T-S diagram from the populations, so no program path calls them.
The package's generator, :func:`qtricycle.liouvillian`, acts on the
population pair (rho11, rho00); its integrator carries rho11 alone.  The
whole density matrix, flattened to the column (rho11, rho10, rho01, rho00) by
:func:`density_column`, and the generator on it, :func:`full_liouvillian`
with its coherence entries, live here: the Drazin checks,
:func:`sigma_direct` and :func:`rk4_reference` use them, so that coherences
never feeding the populations stays tested.
"""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np

from qtricycle import (
    ConvergenceError,
    PositivityError,
    bose_occupation,
    cycle_coefficients,
    damping_rate,
    evaluate_cycle,
    gibbs_state,
    oracle,
    propagate,
)
from qtricycle.cli import _fmt_cell
from qtricycle.optimize import (
    MIN_GRID_POINTS,
    AllocationSolution,
    SweepRecord,
    _branch_terms,
    _energy_balance,
    _require_sign_structure,
    _RESIDUAL_RTOL,
    _stationarity_terms,
)
from qtricycle.protocol import frequency, frequency_derivative
from qtricycle.thermo import (
    Take,
    Trajectory,
    branch_entropy_change,
    gauss_legendre_adaptive,
    population_lag,
)

TrajectoryPoint = namedtuple("TrajectoryPoint", Trajectory._fields)

TRACELESS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)


def density_column(populations, rho10=0.0):
    """The density matrix with the pair ``populations`` = (rho11, rho00) on
    its diagonal and coherence ``rho10``, as the column (rho11, rho10, rho01,
    rho00) that :func:`full_liouvillian` acts on."""
    rho11, rho00 = populations
    return np.array([rho11, rho10, np.conj(rho10), rho00], dtype=complex)


def full_liouvillian(T, omega, gamma0, alpha):
    """Thermal generator on the whole density column, coherences included.

    Block diagonal: the populations relax at rate gamma * (2n + 1) toward the
    Gibbs pair, and the coherences rotate and decay on their own,

        L = [[-g(n+1),      0,          0,      g n   ],
             [ 0,     -g(n+1/2)-i w,    0,       0    ],
             [ 0,           0,    -g(n+1/2)+i w, 0    ],
             [ g(n+1),      0,          0,     -g n   ]]

    with g = gamma0 * omega**alpha.  Built from :func:`bose_occupation` and
    :func:`damping_rate` alone, not from :func:`qtricycle.liouvillian`, whose
    2x2 generator is this matrix's population corner.  Array-valued in
    ``omega``: the result has shape ``omega.shape + (4, 4)``.
    """
    omega = np.asarray(omega, dtype=float)
    n = bose_occupation(T, omega)
    g = damping_rate(gamma0, alpha, omega)
    half = g * (n + 0.5)
    L = np.zeros(omega.shape + (4, 4), dtype=complex)
    L[..., 0, 0] = -g * (n + 1.0)
    L[..., 0, 3] = g * n
    L[..., 1, 1] = -half - 1j * omega
    L[..., 2, 2] = -half + 1j * omega
    L[..., 3, 0] = g * (n + 1.0)
    L[..., 3, 3] = -g * n
    return L


def drazin_inverse(T, omega, gamma0, alpha):
    """Closed-form Drazin inverse of :func:`full_liouvillian`.

    L is singular (the Gibbs state spans its kernel), so the generalized
    inverse of the slow-driving expansion is the Drazin inverse: zero on the
    kernel, the plain inverse on the complement.  The population block maps
    the traceless direction (1, 0, 0, -1) to -(1, 0, 0, -1) / (gamma (2n+1))
    and annihilates the Gibbs state; the coherence entries are the ordinary
    reciprocals of the (invertible) coherence eigenvalues.
    """
    n = bose_occupation(T, omega)
    g = damping_rate(gamma0, alpha, omega)
    scale = g * (2.0 * n + 1.0) ** 2
    half = g * (n + 0.5)
    return np.array(
        [
            [-(n + 1.0) / scale, 0.0, 0.0, n / scale],
            [0.0, 1.0 / (-half - 1j * omega), 0.0, 0.0],
            [0.0, 0.0, 1.0 / (-half + 1j * omega), 0.0],
            [(n + 1.0) / scale, 0.0, 0.0, -n / scale],
        ],
        dtype=complex,
    )


def effective_temperature(populations, omega):
    """Temperature read off the pair (rho11, rho00), T = omega / ln(rho00/rho11).

    Equal populations have no defined temperature (raises ValueError); an
    inverted state (rho11 > rho00) comes back negative, which is the standard
    flag for population inversion.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    p1, p0 = (float(p) for p in populations)
    if p1 <= 0.0:
        return 0.0
    if p0 == p1:
        raise ValueError("equal populations: effective temperature undefined")
    return omega / np.log(p0 / p1)


def von_neumann_entropy(column):
    """Entropy -Tr[rho ln rho] of a two-level density column."""
    matrix = np.reshape(column, (2, 2))  # rows (rho11, rho10) and (rho01, rho00)
    evals = np.clip(np.linalg.eigvalsh(matrix).real, 0.0, 1.0)
    return float(-sum(p * math.log(p) for p in evals if p > 0.0))


def _gibbs_derivative(branch, s):
    """d/ds of the instantaneous thermal vector (analytic populations)."""
    w = frequency(branch, s)
    wp = frequency_derivative(branch, s)
    x = branch.beta * w
    e = np.exp(-x)
    # dp/dx for p = 1/(e^x + 1)
    dp_dx = -e / (1.0 + e) ** 2
    return (branch.beta * wp * dp_dx) * TRACELESS


def _lag_vector(branch, s):
    """Bracketed vector L^-1(s) d rho_eq/ds via the full matrix."""
    w = frequency(branch, s)
    D = drazin_inverse(branch.temperature, w, branch.gamma0, branch.alpha)
    return D @ _gibbs_derivative(branch, s)


def sigma_direct(branch, h=1e-5):
    """Dissipation coefficient from the defining trace integral.

    The outer derivative of the lag vector is taken by central finite
    difference with step ``h`` (the integration variable is clamped inside
    the unit interval near the endpoints, where the integrand vanishes
    anyway because the schedule slope does).
    """

    def integrand(samples):
        out = np.empty_like(samples)
        for i, s in enumerate(samples):
            lo = max(s - h, 0.0)
            hi = min(s + h, 1.0)
            du = (_lag_vector(branch, hi) - _lag_vector(branch, lo)) / (hi - lo)
            w = frequency(branch, float(s))
            # Tr[H du] = (w/2)(du_11 - du_00)
            out[i] = 0.5 * w * (du[0].real - du[3].real)
        return out

    return branch.beta * gauss_legendre_adaptive(integrand)


def spectral_drazin(L, rel_tol=1e-9):
    """Drazin inverse from an eigendecomposition: invert on the nonzero
    eigenspace, annihilate the kernel."""
    evals, vecs = np.linalg.eig(L)
    cutoff = rel_tol * np.max(np.abs(evals))
    inv = np.where(np.abs(evals) > cutoff, 1.0 / np.where(evals == 0, 1.0, evals), 0.0)
    return vecs @ np.diag(inv) @ np.linalg.inv(vecs)


def fixed_cop_times(coeffs, psi, tau_c):
    """(tau_h, tau_p) keeping the COP at ``psi`` and the heats balanced.

    Closed-form inversion: tau_c fixes Q_c, the COP fixes Q_h, the balance
    fixes Q_p, and each heat inverts to its duration.  Returns None when a
    duration would be non-positive.
    """
    T_c, T_h, T_p = coeffs.T
    dS_c, dS_h, dS_p = coeffs.dS
    S_c, S_h, S_p = coeffs.Sigma
    Q_c = T_c * (dS_c + S_c / tau_c)
    Q_h = Q_c / psi
    denom_h = Q_h / T_h - dS_h
    if denom_h >= 0.0:
        return None
    tau_h = S_h / denom_h
    Q_p = -Q_c - Q_h
    denom_p = Q_p / T_p - dS_p
    if denom_p >= 0.0:
        return None
    tau_p = S_p / denom_p
    if tau_h <= 0.0 or tau_p <= 0.0:
        return None
    return tau_h, tau_p


def stationarity_brackets(coeffs, tau_c, lo=1e-4, hi=1e9, points=200_001):
    """(a, b) intervals on a dense log scan of tau_p where the stationarity
    constraint changes sign with a positive balanced tau_h at both ends.

    tau_h and the constraint are evaluated straight from their defining
    formulas, point by point on the grid, with no polynomial in between.
    """
    T_c, T_h, T_p = coeffs.T
    dS_c, dS_h, dS_p = coeffs.dS
    S_c, S_h, S_p = coeffs.Sigma
    tau_p = np.geomspace(lo, hi, points)
    denom = T_p * (dS_p + S_p / tau_p) + T_c * (dS_c + S_c / tau_c) + T_h * dS_h
    tau_h = -T_h * S_h / np.where(denom > 0.0, denom, np.nan)
    f = (dS_h * tau_h ** 2 / S_h + dS_p * tau_p ** 2 / S_p
         + dS_c * tau_c ** 2 / S_c + 2.0 * (tau_c + tau_h + tau_p))
    sign = np.sign(f)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]  # NaN (tau_h <= 0) never brackets
    return [(float(tau_p[i]), float(tau_p[i + 1])) for i in idx]


def _generator(branch, s):
    return full_liouvillian(
        branch.temperature,
        frequency(branch, s),
        branch.gamma0,
        branch.alpha,
    )


def rk4_reference(branch, tau, steps, initial):
    """(states, heat) of classic RK4 applied stage by stage.

    The per-step loop of the integrator before it batched its step maps:
    three 4x4 generators per step, each stage vector k formed explicitly,
    and the same positivity check and message at the same step.  ``initial``
    is a density column; columns 0 and 3 of the (steps + 1, 4) states are the
    population pair the integrator carries.  The heat is RK4 on the
    augmented state (rho, Q) with dQ/dt = Tr[H d rho/dt] = omega d rho11/dt,
    accumulated stage by stage: dt/6 Re(w1 k1 + 2 w2 k2 + 2 w2 k3 + w4 k4)
    on the excited entry of the stage vectors.
    """
    dt = tau / steps
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    rho = np.array(initial, dtype=complex)
    states[0] = rho
    heat = 0.0
    for i in range(steps):
        # stage times as exact index fractions so s never leaves [0, 1]
        s1, s2, s4 = i / steps, (i + 0.5) / steps, (i + 1) / steps
        L1, L2, L4 = _generator(branch, s1), _generator(branch, s2), _generator(branch, s4)
        w1, w2, w4 = frequency(branch, s1), frequency(branch, s2), frequency(branch, s4)
        k1 = L1 @ rho
        k2 = L2 @ (rho + 0.5 * dt * k1)
        k3 = L2 @ (rho + 0.5 * dt * k2)
        k4 = L4 @ (rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        heat += (dt / 6.0) * (w1 * k1[0] + 2.0 * w2 * k2[0] + 2.0 * w2 * k3[0]
                              + w4 * k4[0]).real
        p = rho[0].real
        if p < -1e-8 or p > 1.0 + 1e-8:
            raise PositivityError(
                f"population {p} left [0, 1] beyond {1e-8} at "
                f"t={times[i + 1]:.6g} on branch {branch.reservoir!r}: "
                f"step size too large ({steps} steps for tau={tau})"
            )
        states[i + 1] = rho
    return states, heat


def simpson(y, dx):
    """Composite Simpson sum of equally spaced samples y with spacing dx.

    Needs an even number of intervals (an odd number of samples).
    """
    y = np.asarray(y, dtype=float)
    if y.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an even interval count, got {y.size - 1}")
    return float(np.sum(y[0:-2:2] + 4.0 * y[1::2] + y[2::2]) * dx / 3.0)


def sample_path(branch, tau, steps, x0):
    """The excited population x = rho11 at the ``steps + 1`` sample times of
    :func:`qtricycle.propagate` from ``x0``: each batch's scanned maps from
    ``oracle._batch_maps`` applied to the x the batch starts from.  Its last
    entry is the map's final ``x``, bit for bit."""
    path = np.empty(steps + 1)
    path[0] = x0
    for start in range(0, steps, oracle._CHUNK):
        stop = min(start + oracle._CHUNK, steps)
        s = np.arange(2 * start, 2 * stop + 1) / (2 * steps)
        (a, b), _ = oracle._batch_maps(branch, s, tau / steps)
        path[start + 1:stop + 1] = a * path[start] + b
    assert path[-1] == propagate(branch, tau, steps, x0).x
    return path


def simpson_heat(branch, tau, path):
    """Heat of a sample path by the second pass the package made before it
    carried the heat in its RK4 steps: the excited row of the generator
    applied to every sampled pair (x, 1 - x), and omega dp11/dt
    Simpson-integrated over the sample spacing (so the step count must be
    even)."""
    times = np.linspace(0.0, tau, len(path))
    w = frequency(branch, times / tau)
    n = bose_occupation(branch.temperature, w)
    g = damping_rate(branch.gamma0, branch.alpha, w)
    p1, p0 = path, 1.0 - path
    dp1 = -g * (n + 1.0) * p1 + g * n * p0  # excited row of L p
    # Tr[H drho/dt] = (w/2)(dp1 - dp0) = w * dp1 since dp0 = -dp1
    return simpson(w * dp1, times[1] - times[0])


def zeroth_heat_sum_reference(config):
    """sum_v T_v dS_v from the config's three branches."""
    branches = config.branches()
    return sum(b.temperature * branch_entropy_change(b) for b in branches)


def zeroth_heat_sum_curve_reference(config, delta_c_grid):
    """(delta_c, sum_v Q_v^0) pairs: one config per amplitude."""
    grid = np.asarray(delta_c_grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("delta_c grid must be positive and strictly ascending")
    return [
        (float(dc), zeroth_heat_sum_reference(replace(config, delta_c=float(dc))))
        for dc in grid
    ]


def perturbed_state_reference(branch, s, tau):
    """First-order excited population at one rescaled time s."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    w = frequency(branch, float(s))
    p_eq = float(gibbs_state(branch.temperature, w)[0])
    p = p_eq + population_lag(branch, float(s)) / tau
    if p < 0.0 or p > 1.0:
        raise PositivityError(
            f"perturbed excited population {p} outside [0, 1] on branch "
            f"{branch.reservoir!r} at s={s}, tau={tau}: duration too short "
            f"for the slow-driving expansion"
        )
    return p


def ts_trajectory_reference(config, taus, samples_per_branch=201):
    """Temperature-entropy samples, one perturbed state per sample."""
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    points = []
    for branch, tau in zip(config.branches(), taus, strict=True):
        for s in np.linspace(0.0, 1.0, samples_per_branch):
            p = perturbed_state_reference(branch, s, tau)
            w = frequency(branch, float(s))
            points.append(TrajectoryPoint(
                T_eff=effective_temperature((p, 1.0 - p), w),
                S=von_neumann_entropy(density_column((p, 1.0 - p))),
                reservoir=branch.reservoir,
                s=float(s),
                omega=w,
            ))
    return points


def profile_shape_warnings_reference(points):
    """The shape-warning texts of a duration profile, one consecutive pair of
    points at a time (pairs without a COP increase are not compared)."""
    tol = 1e-12
    total_drops, ratio_breaks = [], []
    for a, b in zip(points, points[1:]):
        if b.psi <= a.psi:
            continue
        if b.tau_total < a.tau_total * (1.0 - tol):
            total_drops.append((a.psi, b.psi))
        if b.ratio_hp > a.ratio_hp * (1.0 + tol) or b.ratio_cp < a.ratio_cp * (1.0 - tol):
            ratio_breaks.append((a.psi, b.psi))
    return [f"{what} between {len(pairs)} of {len(points) - 1} consecutive psi pairs, "
            f"first between psi={pairs[0][0]} and psi={pairs[0][1]}"
            for what, pairs in (("total time not increasing", total_drops),
                                ("tau_h/tau_p not falling or tau_c/tau_p not rising",
                                 ratio_breaks))
            if pairs]


def checked_residual(coeffs, tau_c, tau_h, tau_p):
    """Stationarity residual, or :class:`ConvergenceError` when it is not
    within ``_RESIDUAL_RTOL`` times the summed magnitudes of its terms (a NaN
    one, from a NaN tau_h, is not)."""
    terms = _stationarity_terms(coeffs, tau_c, tau_h, tau_p)
    residual = sum(terms)
    limit = _RESIDUAL_RTOL * sum(map(abs, terms))
    if not abs(residual) <= limit:
        raise ConvergenceError(
            f"stationarity residual {residual:.3e} too large at "
            f"tau_c={tau_c} (limit {limit:.3e})"
        )
    return residual


def _square(x):
    """x ** 2 by Python's pow; inf where it overflows (pow raises there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def stationarity_quartic(coeffs, tau_c):
    """(K, M, coefficients of the stationarity quartic, highest power first).

    The energy balance gives tau_h = N tau_p / (K tau_p + M), N = -T_h Sigma_h,
    M = T_p Sigma_p, K = T_p dS_p + T_c (dS_c + Sigma_c/tau_c) + T_h dS_h; put
    into the stationarity constraint F and multiplied by (K tau_p + M)^2, it
    leaves a quartic in tau_p (a_v = dS_v/Sigma_v, c0 = dS_c tau_c^2/Sigma_c +
    2 tau_c).  Its real roots above -M/K are those with tau_h > 0; there is at
    most one, which is why one bracketed root can replace the principal pick.
    """
    (T_c, T_h, T_p), (dS_c, dS_h, dS_p), (S_c, S_h, S_p) = coeffs.T, coeffs.dS, coeffs.Sigma
    N, M = -T_h * S_h, T_p * S_p
    K = T_p * dS_p + T_c * (dS_c + S_c / tau_c) + T_h * dS_h
    a_h, a_p = dS_h / S_h, dS_p / S_p
    c0 = dS_c * _square(tau_c) / S_c + 2 * tau_c
    K2, M2 = _square(K), _square(M)
    return K, M, (a_p * K2, 2 * K * (a_p * M + K),
                  a_p * M2 + 4 * K * M + c0 * K2 + a_h * _square(N) + 2 * N * K,
                  2 * M * (M + c0 * K + N), c0 * M2)


def _horner(coefficients, x):
    """Polynomial value in plain floats, np.polyval's operation order."""
    y = 0.0
    for c in coefficients:
        y = y * x + c
    return y


def _attempt(fn, *args, **kwargs):
    """``(fn(...), None)``, or None and the reason when fn raises ConvergenceError."""
    try:
        return fn(*args, **kwargs), None
    except ConvergenceError as exc:
        return None, str(exc)


def solve_time_allocation_reference(coeffs, tau_c):
    """All stationary allocations at one tau_c, one root at a time: the real
    roots of ``np.roots`` above -M/K, each polished by one plain-float Newton
    step and held to :func:`checked_residual`, ordered by descending R."""
    if tau_c <= 0.0:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    _require_sign_structure(coeffs)
    tau_c = float(tau_c)

    K, M, poly = stationarity_quartic(coeffs, tau_c)  # inf where a square overflows
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
        residual_c, reason = _attempt(checked_residual, coeffs, tau_c, tau_h, tau_p)
        if reason is not None:
            dropped.append(reason)
            continue
        solutions.append(AllocationSolution(
            tau_c, tau_h, tau_p, residual_c, evaluate_cycle(coeffs, tau_c, tau_h, tau_p)))
    if not solutions:
        raise ConvergenceError(
            dropped[0] if dropped else f"no stationary tau_p with tau_h > 0 at tau_c={tau_c}")
    solutions.sort(key=lambda sol: -sol.metrics.R)
    return solutions


def principal_reference(coeffs, alpha, tau_c):
    """SweepRecord of the principal solution at tau_c; ConvergenceError when
    the solver fails or that solution does not refrigerate (``valid``)."""
    best = solve_time_allocation_reference(coeffs, tau_c)[0]
    m = best.metrics
    if not m.valid:
        raise ConvergenceError(f"allocation at tau_c={tau_c} does not refrigerate "
                               f"(Q_c={m.cold.Q:.3e}, Q_h={m.hot.Q:.3e})")
    return SweepRecord(float(alpha), m.psi, m.R, m.chi, best.tau_c, best.tau_h, best.tau_p)


def optimal_curve_reference(config, tau_c_grid):
    """(records sorted by COP, skipped ``(tau_c, reason)`` pairs), one
    :func:`principal_reference` per grid point."""
    tau_c_grid = np.asarray(tau_c_grid, dtype=float)
    if tau_c_grid.size < MIN_GRID_POINTS:
        raise ValueError(f"tau_c grid needs >= {MIN_GRID_POINTS} points")
    coeffs = cycle_coefficients(config)
    records, skipped = [], []
    for tau_c in tau_c_grid:
        record, reason = _attempt(principal_reference, coeffs, config.alpha, float(tau_c))
        if record is None:
            skipped.append((float(tau_c), reason))
        else:
            records.append(record)
    records.sort(key=lambda r: r.psi)
    return records, skipped


def _rate_cubic(A, Z, a_c, c):
    """Coefficients, highest power first, of the numerator of dR/dt divided by
    t, for R(t) = (A t - a_c)(Z t - a_c) / (t^2 (Z t - a_c + c)), t = tau_c."""
    e, s = c - a_c, a_c * (A + Z)
    return (-A * Z * Z, 2.0 * s * Z, s * e - 3.0 * Z * a_c * a_c, -2.0 * e * a_c * a_c)


def rate_peak_reference(coeffs):
    """(tau_c, tau_p) of the largest R over the energy-balanced triples, from
    all three roots of :func:`_rate_cubic` in tau_c (``np.roots``): the
    admissible one (tau_c > 0, Q_c > 0, tau_h > 0) with the largest R, with
    tau_h/tau_p = sqrt(a_h/a_p); none is a ConvergenceError."""
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


def csv_report_reference(columns, rows):
    """The CSV text of a report, one ``_fmt_cell`` call per cell."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def report_columns(columns, rows):
    """A report's rows as its columns, a list each (empty when there are no rows)."""
    return [[row[j] for row in rows] for j in range(len(columns))]


def expand(column):
    """A report column with a :class:`Take` replaced by its cells, gathered
    by numpy indexing: a float64 array from an array of values, else a list."""
    if not isinstance(column, Take):
        return column
    if isinstance(column.values, np.ndarray):
        return column.values[column.index]
    return np.array(column.values, dtype=object)[column.index].tolist()


def report_rows(cells):
    """A report's columns as its rows of Python values, a take expanded, an
    array column by ``tolist``."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                      for c in map(expand, cells))))


def record_rows(record):
    """A NamedTuple of columns (a curve's SweepRecord, a ProfilePoint) as its
    rows, each the same NamedTuple of Python floats."""
    return [record._make(row) for row in report_rows(record)]
