"""Brute-force integration of the time-dependent master equation.

This module is the independent check on the slow-driving expansion: it
propagates the population pair p = (rho11, rho00) under dp/dt = L(t) p with
classic fixed-step RK4 and evaluates the heat as Int omega(t) dp11/dt dt by
Simpson's rule over the stored samples.  As L depends on time, never on p,
each RK4 step is the linear map M = I + dt/6 (L1 + 2 K2 + 2 K3 + K4) with
K2 = L2 (I + dt/2 L1), K3 = L2 (I + dt/2 K2), K4 = L4 (I + dt K3), built in
batches of steps.  Nothing here shares a code path with the closed-form Q0/Q1
formulas beyond the generator matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lindblad, protocol
from ._numerics import simpson
from .errors import PositivityError

__all__ = [
    "BranchTrajectory",
    "default_steps",
    "propagate",
    "heat_via_trajectory",
]

# Positivity slack for the integrator: populations may round-trip slightly
# outside [0, 1]; anything beyond this signals too coarse a step.
_POSITIVITY_TOL = 1e-8

# Steps whose stage generators are built and combined in one batch, so the
# (2 * _CHUNK + 1, 2, 2) generator stack, about 16 kB, stays small whatever the
# step count.  512 ran the oracle benchmark about 10% faster on a 2-core x86_64
# host (then with 4x4 generators) but raised its peak RSS by 0.5 MB more.
_CHUNK = 256

# Largest step count propagate accepts, about 100 MB of samples.  It covers
# tau = 3000, the default tau_c grid's top, on every branch of the benchmark's
# model ranges (at most 3.31 M steps there).
_MAX_STEPS = 2 ** 22


@dataclass(frozen=True)
class BranchTrajectory:
    """Integrated trajectory plus the branch it belongs to; ``states`` holds
    one real (rho11, rho00) population row per entry of ``times``."""

    branch: protocol.BranchProtocol
    tau: float
    times: np.ndarray
    states: np.ndarray

    @property
    def omegas(self):
        return protocol.frequency(self.branch, self.times / self.tau)


def default_steps(branch, tau):
    """Step count resolving the fastest relaxation rate with >= 50 steps.

    The population relaxation rate is gamma * (2n + 1); its maximum over the
    schedule sets the step budget, floored at 1000 and rounded up to an even
    number so Simpson integration gets an even interval count.
    """
    s = np.linspace(0.0, 1.0, 201)
    w = protocol.frequency(branch, s)
    n = lindblad.bose_occupation(branch.temperature, w)
    g = lindblad.damping_rate(branch.gamma0, branch.alpha, w)
    rate_max = float(np.max(g * (2.0 * n + 1.0)))
    steps = max(1000, int(np.ceil(50.0 * tau * rate_max)))
    return steps + (steps % 2)


def _rk4_map(A1, A2, A4, dt):
    """Classic RK4 steps of dp/dt = A p as maps p -> M p, from the (n, 2, 2)
    generators ``A1``, ``A2``, ``A4`` at the start, middle and end of each step."""
    one = np.eye(2)
    K2 = A2 @ (one + (0.5 * dt) * A1)
    K3 = A2 @ (one + (0.5 * dt) * K2)
    K4 = A4 @ (one + dt * K3)
    return one + (dt / 6.0) * (A1 + 2.0 * K2 + 2.0 * K3 + K4)


def propagate(branch, tau, steps=None, initial=None):
    """RK4-integrate the branch populations from s=0 to s=1.

    Returns a :class:`BranchTrajectory` with ``steps + 1`` uniformly spaced
    samples; ``steps`` must be even, at least 1000 and at most ``_MAX_STEPS``.
    ``initial``, the pair (rho11, rho00) with unit trace and entries in [0, 1]
    to 1e-12, defaults to the Gibbs pair at the initial splitting.  Raises
    :class:`PositivityError` if a population leaves [0, 1] by more than 1e-8
    (step size too large), and ValueError for a bad ``initial`` or step count
    (before anything is allocated) and if tau / steps is not positive
    (tau <= 0, or a tau so small that the step underflows to 0).

    The generator depends on s only, so the steps are taken _CHUNK at a time:
    one :func:`lindblad.liouvillian` call gives every 2x2 stage generator of
    the chunk at s = j / (2 steps), the exact stage times i/steps and
    (i + 1/2)/steps, and the chunk's RK4 maps are formed as a batch, then
    applied to the pair step by step with the positivity check.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if steps is None:
        steps = default_steps(branch, tau)
    if steps < 1000:
        raise ValueError(f"steps must be >= 1000 for a trustworthy oracle, got {steps}")
    if steps % 2:
        raise ValueError(f"steps must be even for Simpson's rule on the heat, got {steps}")
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps} steps for tau={tau} on branch {branch.reservoir!r} "
                         f"exceed the oracle's limit of {_MAX_STEPS}")
    if initial is None:
        initial = lindblad.gibbs_state(branch.temperature, protocol.frequency(branch, 0.0))
    p1, p0 = (float(p) for p in initial)
    if abs(p1 + p0 - 1.0) > 1e-12:
        raise ValueError(f"trace violated: rho11 + rho00 = {p1 + p0}")
    if not (-1e-12 <= p1 <= 1.0 + 1e-12 and -1e-12 <= p0 <= 1.0 + 1e-12):
        raise ValueError(f"initial populations ({p1}, {p0}) outside [0, 1]")

    dt = tau / steps
    if not dt > 0.0:
        raise ValueError(f"tau={tau} too small: its step tau/{steps} underflows to 0")
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, 2))
    states[0] = p1, p0
    for start in range(0, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        s = np.arange(2 * start, 2 * stop + 1) / (2 * steps)
        P = lindblad.liouvillian(branch.temperature, protocol.frequency(branch, s),
                                 branch.gamma0, branch.alpha)
        M = _rk4_map(P[:-1:2], P[1::2], P[2::2], dt)
        populations = []
        for i, (m00, m01, m10, m11) in enumerate(M.reshape(-1, 4).tolist(), start + 1):
            p1, p0 = m00 * p1 + m01 * p0, m10 * p1 + m11 * p0
            if p1 < -_POSITIVITY_TOL or p1 > 1.0 + _POSITIVITY_TOL:
                raise PositivityError(
                    f"population {p1} left [0, 1] beyond {_POSITIVITY_TOL} at "
                    f"t={times[i]:.6g} on branch {branch.reservoir!r}: "
                    f"step size too large ({steps} steps for tau={tau})"
                )
            populations += (p1, p0)
        states[start + 1:stop + 1] = np.reshape(populations, (-1, 2))
    return BranchTrajectory(branch=branch, tau=tau, times=times, states=states)


def heat_via_trajectory(trajectory):
    """Heat absorbed from the reservoir, Int Tr[H(t) d rho/dt] dt.

    The excited row of the generator is applied to every stored pair and
    omega * dp11/dt Simpson-integrated over the sample spacing of ``times``.
    """
    if len(trajectory.times) < 1000:
        raise ValueError("need at least 1000 samples for the heat integral")
    branch = trajectory.branch
    w = np.asarray(trajectory.omegas, dtype=float)
    n = lindblad.bose_occupation(branch.temperature, w)
    g = lindblad.damping_rate(branch.gamma0, branch.alpha, w)
    p1, p0 = trajectory.states.T
    dp1 = -g * (n + 1.0) * p1 + g * n * p0  # excited row of L p
    # Tr[H drho/dt] = (w/2)(dp1 - dp0) = w * dp1 since dp0 = -dp1
    return simpson(w * dp1, trajectory.times[1] - trajectory.times[0])
