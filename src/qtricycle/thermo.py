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

Array-valued: :func:`equilibrium_entropy` (in T and omega); a tuple of
branches is one stack, a row per branch with the bits of that branch alone, in
:func:`branch_entropy_change`, :func:`sigma_coefficient` (one quadrature, a
row per alpha too) and :func:`ts_trajectory` (one expression over (branch, s)).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import lindblad, protocol
from .errors import ConfigError, ConvergenceError, PositivityError

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
    "Take",
    "Trajectory",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
QUADRATURE_RTOL = 1e-9
QUADRATURE_START_PANELS = 64
QUADRATURE_MAX_PANELS = 2 ** 16
DEFAULT_SAMPLES_PER_BRANCH = 201  # of ts_trajectory


@functools.lru_cache(maxsize=4)
def _panel_nodes(panels):
    """Read-only nodes and weights of ``panels`` equal 8-point panels on [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    s.flags.writeable = w.flags.writeable = False
    return s, w


def gauss_legendre_adaptive(f):
    """Integrate f over [0, 1] with composite 8-point Gauss-Legendre panels.

    ``f`` maps an ndarray of sample points to the integrand values (a float
    result) or to rows of them along a last axis (an array of the leading
    shape, as a row per branch of :func:`sigma_coefficient`).  The panel
    count starts at ``QUADRATURE_START_PANELS`` and doubles; a row keeps the
    first estimate, from its own ``np.dot``, that agrees with the one before
    to ``QUADRATURE_RTOL`` relative (absolute floor 1e-300 guards the
    exactly-zero integrand).  A non-finite estimate raises ValueError at once,
    a row unsettled past ``QUADRATURE_MAX_PANELS`` :class:`ConvergenceError`.
    """
    panels, prev, done = QUADRATURE_START_PANELS, (), {}
    with np.errstate(all="ignore"):  # a non-finite estimate raises below
        while panels <= QUADRATURE_MAX_PANELS:
            s, w = _panel_nodes(panels)
            y = np.asarray(f(s), dtype=float)
            # one np.dot per row: a matrix product rounds some rows differently
            vals = [float(np.dot(row, w)) for row in y.reshape(-1, y.shape[-1])]
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"quadrature estimate not finite at {panels} panels")
            for i, (val, old) in enumerate(zip(vals, prev)):
                if i not in done and abs(val - old) <= QUADRATURE_RTOL * max(abs(val), 1e-300):
                    done[i] = val
            if len(done) == len(vals):
                return done[0] if y.ndim == 1 else np.reshape([done[i] for i in range(len(done))],
                                                              y.shape[:-1])
            prev = vals
            panels *= 2
    raise ConvergenceError(f"quadrature did not reach rtol={QUADRATURE_RTOL} "
                           f"within {QUADRATURE_MAX_PANELS} panels")


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
    """Equilibrium entropy difference between branch end and start; a tuple of
    branches gives a tuple, from one expression over their endpoint splittings."""
    branches = branch if isinstance(branch, tuple) else (branch,)
    S = equilibrium_entropy(np.array([b.temperature for b in branches])[:, None],
                            protocol.frequency(branches, (0.0, 1.0)))
    dS = tuple((S[:, 1] - S[:, 0]).tolist())
    return dS if isinstance(branch, tuple) else dS[0]


def _relaxation_kernel(branches, s, power, scale=1.0):
    """scale * omega'(s)**power * n(n+1) / (gamma (2n+1)^3) of a tuple of one
    config's branches, a row per branch and within it one per alpha of an
    array alpha: power 2 the Sigma integrand, power 1 with scale beta the lag."""
    w, wp = protocol.frequency(branches, s), protocol.frequency_derivative(branches, s)
    T = np.array([b.temperature for b in branches])[:, None]
    alpha = np.asarray(branches[0].alpha)[..., None]
    if alpha.ndim > 1:  # a row per alpha within each branch's
        w, wp, T = w[:, None], wp[:, None], T[:, None]
    else:  # as an exponent of w's shape: at 0.5, ** would take sqrt where an alpha row takes pow
        alpha = np.full_like(w, alpha[0])
    n = lindblad.bose_occupation(T, w)
    g = lindblad.damping_rate(branches[0].gamma0, alpha, w)
    return scale * wp ** power * n * (n + 1.0) / (g * (2.0 * n + 1.0) ** 3)


def sigma_coefficient(branch):
    """Dissipation coefficient Sigma (<= 0: the integrand is manifestly
    nonnegative) of the branch, an array of one per alpha for an array alpha;
    a tuple of branches gives a tuple, from one quadrature with a row each."""
    branches = branch if isinstance(branch, tuple) else (branch,)
    for b in branches:
        if not b.beta < 1e154:  # beta ** 2 overflows from 1.34e154
            raise ConfigError(f"temperature {b.temperature!r} of branch "
                              f"{b.reservoir!r} is too small: 1/T^2 overflows")
    rows = gauss_legendre_adaptive(lambda s: _relaxation_kernel(branches, s, 2))
    sigma = tuple(-b.beta ** 2 * row
                  for b, row in zip(branches, rows if rows.ndim > 1 else rows.tolist()))
    return sigma if isinstance(branch, tuple) else sigma[0]


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
    phi = _relaxation_kernel((branch,), np.atleast_1d(s), 1, scale=branch.beta)[0]
    return phi if np.ndim(s) else float(phi[0])


def _lagged_population(branches, s, tau):
    """(omega, p): splitting and first-order excited population p_eq + phi/tau
    of each of a tuple of branches, a row each, at the rescaled times s; tau is
    a column of their durations.  Neither tau nor p is checked here."""
    w, T = protocol.frequency(branches, s), np.array([b.temperature for b in branches])[:, None]
    p_eq = lindblad.gibbs_state(T, w)[..., 0]
    return w, p_eq + _relaxation_kernel(branches, s, 1, scale=1.0 / T) / tau


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
    scalar view of the population that :func:`ts_trajectory` evaluates over
    every branch at once.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    p = _lagged_population((branch,), np.array([float(s)]), tau)[1].item()
    if p < 0.0 or p > 1.0:
        raise _positivity_error(branch, p, s, tau)
    return p


class Take(NamedTuple):
    """A report column that repeats its values: cell i is ``values[index[i]]``.

    ``values`` is a float64 array or a list of Python scalars, ``index`` an
    int array with one entry per row."""

    values: object
    index: np.ndarray


class Trajectory(NamedTuple):
    """The ts-diagram report's columns: ``reservoir`` (the three labels) and
    ``s`` (the sample grid) each a :class:`Take`, the rest float64 arrays."""

    reservoir: Take
    s: Take
    omega: np.ndarray
    T_eff: np.ndarray
    S: np.ndarray


def ts_trajectory(config, taus, samples_per_branch=DEFAULT_SAMPLES_PER_BRANCH):
    """Temperature-entropy samples along the full cycle, a :class:`Trajectory` of columns.

    ``taus`` is the (tau_c, tau_h, tau_p) triple.  Within each branch the
    first-order state supplies both coordinates; the quenches between
    branches keep the populations (hence S) fixed while the splitting jumps
    by the temperature ratio, so consecutive branch endpoints line up
    vertically in the (S, T_eff) plane.

    All three branches are one array expression over (branch, s): p = p_eq +
    phi/tau, T_eff = omega / ln((1 - p)/p), the temperature of the population
    ratio (0.0 where p == 0), and S the binary entropy of p, which is the von
    Neumann entropy of the pair (p, 1 - p).  Branch by branch, a tau <= 0
    raises ValueError, then the first sample with p outside [0, 1]
    :class:`PositivityError`, one with equal populations ValueError.
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    branches, s = config.branches(), np.linspace(0.0, 1.0, samples_per_branch)
    column = np.reshape(np.array(taus, dtype=float), (len(branches), 1))
    # a tau <= 0 raises below, in branch order; as NaN it computes no warning
    w, p = _lagged_population(branches, s, np.where(column > 0.0, column, np.nan))
    q = 1.0 - p
    outside = (p < 0.0) | (p > 1.0)
    stop = np.flatnonzero(outside | (q == p) | (column <= 0.0))  # row-major: branch order
    if stop.size:
        v, i = divmod(int(stop[0]), s.size)
        if taus[v] <= 0.0:
            raise ValueError(f"tau must be > 0, got {taus[v]}")
        if outside[v, i]:
            raise _positivity_error(branches[v], float(p[v, i]), s[i], taus[v])
        raise ValueError("equal populations: effective temperature undefined")
    with np.errstate(all="ignore"):  # inf and nan pass silently, as in Python floats
        T_eff = w / np.log(q / p)  # p == 0 gives ln(inf), so T_eff = 0.0
        S = -(np.where(p > 0.0, p * np.log(p), 0.0)
              + np.where(q > 0.0, q * np.log(q), 0.0))
    branch, sample = np.indices(w.shape).reshape(2, -1)  # a row per (branch, s), s fastest
    return Trajectory(Take([b.reservoir for b in branches], branch), Take(s, sample),
                      w.ravel(), T_eff.ravel(), S.ravel())
