"""Independent oracles used by the tests.

These deliberately avoid the production shortcuts: the dissipation
coefficient is evaluated from its defining trace expression with a
finite-difference outer derivative and the full generalized-inverse matrix,
the Drazin inverse is rebuilt spectrally from an eigendecomposition, and the
RK4 reference applies each stage generator to the state vector step by step.
The zeroth-heat scan and the temperature-entropy trajectory are the per-point
loops the package ran before it evaluated them as array expressions: one
config and three branches per amplitude, one state per sample.

The Drazin inverse, the effective temperature and the von Neumann entropy
live here only: the package computes Sigma from its closed-form integrand
and the T-S diagram from the populations, so no program path calls them.
Neither does any path flatten a density vector: the integrator carries the
populations only, so the 4-column form of :func:`as_array` lives here too.
"""

import math
from dataclasses import replace

import numpy as np

from qtricycle import (
    DensityVector,
    PositivityError,
    bose_occupation,
    damping_rate,
    gibbs_state,
    liouvillian,
)
from qtricycle.protocol import frequency, frequency_derivative
from qtricycle.thermo import (
    TrajectoryPoint,
    branch_entropy_change,
    gauss_legendre_adaptive,
    population_lag,
)

TRACELESS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)


def as_array(rho):
    """A :class:`DensityVector` as the column (rho11, rho10, rho01, rho00)
    that :func:`liouvillian` acts on."""
    return np.array([rho.rho11, rho.rho10, rho.rho01, rho.rho00], dtype=complex)


def drazin_inverse(T, omega, gamma0, alpha):
    """Closed-form Drazin inverse of :func:`qtricycle.liouvillian`.

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


def effective_temperature(state, omega):
    """Temperature read off the population ratio, T = omega / ln(rho00/rho11).

    Equal populations have no defined temperature (raises ValueError); an
    inverted state (rho11 > rho00) comes back negative, which is the standard
    flag for population inversion.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    p1 = state.rho11.real
    p0 = state.rho00.real
    if p1 <= 0.0:
        return 0.0
    if p0 == p1:
        raise ValueError("equal populations: effective temperature undefined")
    return omega / np.log(p0 / p1)


def von_neumann_entropy(state):
    """Entropy -Tr[rho ln rho] of a two-level density matrix."""
    matrix = np.array([[state.rho11, state.rho10], [state.rho01, state.rho00]], dtype=complex)
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
    return liouvillian(
        branch.temperature,
        frequency(branch, s),
        branch.gamma0,
        branch.alpha,
    )


def rk4_reference(branch, tau, steps, initial):
    """(steps + 1, 4) states of classic RK4 applied stage by stage.

    The per-step loop of the integrator before it batched its step maps:
    three 4x4 generators per step, each stage vector k formed explicitly,
    and the same positivity check and message at the same step.  Columns 0
    and 3 are the populations the integrator carries.
    """
    dt = tau / steps
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    rho = as_array(initial)
    states[0] = rho
    for i in range(steps):
        # stage times as exact index fractions so s never leaves [0, 1]
        L1 = _generator(branch, i / steps)
        L2 = _generator(branch, (i + 0.5) / steps)
        L4 = _generator(branch, (i + 1) / steps)
        k1 = L1 @ rho
        k2 = L2 @ (rho + 0.5 * dt * k1)
        k3 = L2 @ (rho + 0.5 * dt * k2)
        k4 = L4 @ (rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = rho[0].real
        if p < -1e-8 or p > 1.0 + 1e-8:
            raise PositivityError(
                f"population {p} left [0, 1] beyond {1e-8} at "
                f"t={times[i + 1]:.6g} on branch {branch.reservoir!r}: "
                f"step size too large ({steps} steps for tau={tau})"
            )
        states[i + 1] = rho
    return states


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
    """First-order slow-driving state at one rescaled time s."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    w = frequency(branch, float(s))
    p_eq = gibbs_state(branch.temperature, w).excited
    p = p_eq + population_lag(branch, float(s)) / tau
    if p < 0.0 or p > 1.0:
        raise PositivityError(
            f"perturbed excited population {p} outside [0, 1] on branch "
            f"{branch.reservoir!r} at s={s}, tau={tau}: duration too short "
            f"for the slow-driving expansion"
        )
    return DensityVector.from_populations(p)


def ts_trajectory_reference(config, taus, samples_per_branch=201):
    """Temperature-entropy samples, one perturbed state per sample."""
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    points = []
    for branch, tau in zip(config.branches(), taus, strict=True):
        for s in np.linspace(0.0, 1.0, samples_per_branch):
            state = perturbed_state_reference(branch, s, tau)
            w = frequency(branch, float(s))
            points.append(TrajectoryPoint(
                T_eff=effective_temperature(state, w),
                S=von_neumann_entropy(state),
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
