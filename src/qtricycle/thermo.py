"""Per-branch thermodynamics in the slow-driving regime.

For a branch of duration tau the heat exchanged with the reservoir expands as
Q = Q0 + Q1 with

    Q0 = T * dS_eq            (quasi-static heat, dS_eq the equilibrium
                               entropy change between the endpoint splittings)
    Q1 = T * Sigma / tau      (first-order irreversible correction)

where the dissipation coefficient is the rescaled-time integral

    Sigma = -beta^2 * Int_0^1 ds  omega'(s)^2 n(n+1) / (gamma (2n+1)^3) <= 0.

With p = (rho11, rho00) the population pair, the only state the heat reads,
and L its thermal generator (:mod:`qtricycle.lindblad`), this closed form
follows from integrating omega d/ds (L^-1 dp_eq/ds)_11 by parts; the boundary
terms vanish because the schedules have zero slope at the endpoints.  The
first-order pair lags the instantaneous Gibbs pair by (1/tau) L^-1 dp_eq/ds:

    p(s)   = p_eq(s) + (phi(s)/tau) * (1, -1),
    phi(s) = beta omega'(s) n(n+1) / (gamma (2n+1)^3).

All integrals use composite Gauss-Legendre quadrature with panel doubling.

Array-valued: :func:`equilibrium_entropy` (in T and omega),
:func:`population_lag` (in s) and :func:`ts_trajectory`, which evaluates
each branch's whole s-grid as one array expression.  :func:`perturbed_state`
is the scalar view of that expression.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import lindblad, protocol
from .errors import ConvergenceError, PositivityError

__all__ = [
    "BranchThermo",
    "gauss_legendre_adaptive",
    "equilibrium_entropy",
    "branch_entropy_change",
    "sigma_coefficient",
    "branch_heat",
    "perturbed_state",
    "population_lag",
    "ts_trajectory",
    "TrajectoryPoint",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
QUADRATURE_RTOL = 1e-9
QUADRATURE_START_PANELS = 64
QUADRATURE_MAX_PANELS = 2 ** 16
DEFAULT_SAMPLES_PER_BRANCH = 201  # of ts_trajectory


def gauss_legendre_adaptive(f):
    """Integrate f over [0, 1] with composite 8-point Gauss-Legendre panels.

    The panel count starts at ``QUADRATURE_START_PANELS`` and doubles until
    two successive estimates agree to ``QUADRATURE_RTOL`` relative (absolute
    floor 1e-300 guards the exactly-zero integrand), or raises
    :class:`ConvergenceError` past ``QUADRATURE_MAX_PANELS``.  ``f`` must
    accept an ndarray of sample points and return the integrand values.
    """
    panels = QUADRATURE_START_PANELS
    prev = None
    while panels <= QUADRATURE_MAX_PANELS:
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        val = float(np.dot(np.asarray(f(s), dtype=float), w))
        if prev is not None and abs(val - prev) <= QUADRATURE_RTOL * max(abs(val), 1e-300):
            return val
        prev = val
        panels *= 2
    raise ConvergenceError(
        f"quadrature did not reach rtol={QUADRATURE_RTOL} "
        f"within {QUADRATURE_MAX_PANELS} panels"
    )


def equilibrium_entropy(T, omega):
    """Entropy of the thermal state at (T, omega): binary entropy of the
    excited population p = 1/(exp(omega/T) + 1).  Array-friendly."""
    T = np.asarray(T, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if np.any(T <= 0.0) or np.any(omega <= 0.0):
        raise ValueError("equilibrium_entropy needs T > 0 and omega > 0")
    x = omega / T
    e = np.exp(-x)
    S = x * (e / (1.0 + e)) + np.log1p(e)  # -p ln p - (1-p) ln(1-p) with ln p = -x - ln(1+e)
    return S if S.ndim else float(S)


def branch_entropy_change(branch):
    """Equilibrium entropy difference between branch end and start."""
    w0 = protocol.frequency(branch, 0.0)
    w1 = protocol.frequency(branch, 1.0)
    T = branch.temperature
    return equilibrium_entropy(T, w1) - equilibrium_entropy(T, w0)


def _relaxation_kernel(branch, s, power, scale=1.0):
    """scale * omega'(s)**power * n(n+1) / (gamma (2n+1)^3): power 2 is the
    Sigma integrand, power 1 with scale beta the population lag."""
    w = protocol.frequency(branch, s)
    wp = protocol.frequency_derivative(branch, s)
    n = lindblad.bose_occupation(branch.temperature, w)
    g = lindblad.damping_rate(branch.gamma0, branch.alpha, w)
    return scale * wp ** power * n * (n + 1.0) / (g * (2.0 * n + 1.0) ** 3)


def sigma_coefficient(branch):
    """Dissipation coefficient Sigma of the branch (always <= 0).

    One smooth quadrature; the integrand is manifestly nonnegative so the
    sign is exact by construction.
    """
    beta = branch.beta
    return -beta ** 2 * gauss_legendre_adaptive(lambda s: _relaxation_kernel(branch, s, 2))


class BranchThermo(NamedTuple):
    """Thermodynamic summary of one branch at a given duration (the branch
    report's row, in its column order)."""

    reservoir: str
    tau: float
    dS_eq: float
    Sigma: float
    Q0: float
    Q1: float
    Q: float

    @classmethod
    def from_coefficients(cls, reservoir, T, dS, Sigma, tau):
        """Heat Q = Q0 + Q1 with Q0 = T dS_eq and Q1 = T Sigma / tau."""
        Q0 = T * dS
        Q1 = T * Sigma / tau
        return cls(reservoir=reservoir, dS_eq=dS, Sigma=Sigma,
                   Q0=Q0, Q1=Q1, Q=Q0 + Q1, tau=tau)


def branch_heat(branch, tau):
    """Heat exchanged with the reservoir over duration tau, split Q0 + Q1."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return BranchThermo.from_coefficients(
        branch.reservoir, branch.temperature, branch_entropy_change(branch),
        sigma_coefficient(branch), tau,
    )


def population_lag(branch, s):
    """First-order excited-population lag phi(s) (before division by tau).

    The perturbed pair is p_eq + (phi/tau) (1, -1); phi carries the sign of
    omega'(s), so the state trails the equilibrium it is chasing.
    Array-valued in s; a scalar s is evaluated as a one-element array, so each
    element equals the scalar value at its s.
    """
    phi = _relaxation_kernel(branch, np.atleast_1d(s), 1, scale=branch.beta)
    return phi if np.ndim(s) else float(phi[0])


def _lagged_population(branch, s, tau):
    """(omega, p): splitting and first-order excited population p_eq + phi/tau
    at rescaled time s, array-valued in s.  p is not checked here."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    w = protocol.frequency(branch, s)
    p_eq = lindblad.gibbs_state(branch.temperature, w)[..., 0]
    return w, p_eq + population_lag(branch, s) / tau


def _positivity_error(branch, p, s, tau):
    return PositivityError(
        f"perturbed excited population {p} outside [0, 1] on branch "
        f"{branch.reservoir!r} at s={s}, tau={tau}: duration too short "
        f"for the slow-driving expansion"
    )


def perturbed_state(branch, s, tau):
    """First-order excited population p_eq + phi/tau at rescaled time s, a
    float; the ground population is 1 - p.

    Raises :class:`PositivityError` when the shift pushes p outside [0, 1],
    which signals tau is too small for the expansion to be trusted.  The
    scalar view of the population that :func:`ts_trajectory` evaluates over a
    whole branch at once.
    """
    p = float(_lagged_population(branch, float(s), tau)[1])
    if p < 0.0 or p > 1.0:
        raise _positivity_error(branch, p, s, tau)
    return p


class TrajectoryPoint(NamedTuple):
    """One sample of the temperature-entropy diagram (the ts-diagram row)."""

    reservoir: str
    s: float
    omega: float
    T_eff: float
    S: float


def ts_trajectory(config, taus, samples_per_branch=DEFAULT_SAMPLES_PER_BRANCH):
    """Temperature-entropy samples along the full cycle, branch by branch.

    ``taus`` is the (tau_c, tau_h, tau_p) triple.  Within each branch the
    first-order state supplies both coordinates; the quenches between
    branches keep the populations (hence S) fixed while the splitting jumps
    by the temperature ratio, so consecutive branch endpoints line up
    vertically in the (S, T_eff) plane.

    Each branch is one array expression over its s-grid: p = p_eq + phi/tau,
    T_eff = omega / ln((1 - p)/p), the temperature of the population ratio
    (0.0 where p == 0), and S the binary entropy of p, which is the von
    Neumann entropy of the pair (p, 1 - p).  The first sample with p outside
    [0, 1] raises :class:`PositivityError`, one with equal populations
    ValueError.
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    s = np.linspace(0.0, 1.0, samples_per_branch)
    points = []
    for branch, tau in zip(config.branches(), taus, strict=True):
        w, p = _lagged_population(branch, s, tau)
        q = 1.0 - p
        outside = (p < 0.0) | (p > 1.0)
        stop = np.flatnonzero(outside | (q == p))
        if stop.size:
            i = stop[0]
            if outside[i]:
                raise _positivity_error(branch, float(p[i]), s[i], tau)
            raise ValueError("equal populations: effective temperature undefined")
        with np.errstate(all="ignore"):  # inf and nan pass silently, as in Python floats
            T_eff = w / np.log(q / p)  # p == 0 gives ln(inf), so T_eff = 0.0
            S = -(np.where(p > 0.0, p * np.log(p), 0.0)
                  + np.where(q > 0.0, q * np.log(q), 0.0))
        points.extend(map(TrajectoryPoint, itertools.repeat(branch.reservoir),
                          s.tolist(), w.tolist(), T_eff.tolist(), S.tolist()))
    return points
