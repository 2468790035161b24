"""Brute-force integration of the time-dependent master equation.

This module is the independent check on the slow-driving expansion: it
propagates the full Lindblad dynamics drho/dt = L(t) rho with classic
fixed-step RK4, rebuilding the generator at every stage, and evaluates the
heat as Int Tr[H(t) drho/dt] dt by Simpson's rule over the stored samples.
Nothing here shares a code path with the closed-form Q0/Q1 formulas beyond
the generator matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lindblad, protocol
from ._numerics import simpson
from .errors import PositivityError

__all__ = [
    "TrajectorySample",
    "BranchTrajectory",
    "default_steps",
    "propagate",
    "heat_via_trajectory",
]

# Positivity slack for the integrator: populations may round-trip slightly
# outside [0, 1]; anything beyond this signals too coarse a step.
_POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class TrajectorySample:
    """State snapshot along an integrated branch."""

    t: float
    state: lindblad.DensityVector
    omega: float
    U: float  # mean energy Tr[H rho] = (omega/2)(rho11 - rho00)


@dataclass(frozen=True)
class BranchTrajectory:
    """Integrated trajectory plus the branch it belongs to.

    ``states`` holds the raw (n_samples, 4) complex array; ``samples`` wraps
    the same data as :class:`TrajectorySample` records.
    """

    branch: protocol.BranchProtocol
    tau: float
    times: np.ndarray
    states: np.ndarray

    @property
    def omegas(self):
        return protocol.frequency(self.branch, self.times / self.tau)

    @property
    def samples(self):
        omegas = self.omegas
        out = []
        for t, w, row in zip(self.times, omegas, self.states):
            state = lindblad.DensityVector.from_array(row)
            U = 0.5 * w * (row[0].real - row[3].real)
            out.append(TrajectorySample(t=float(t), state=state, omega=float(w), U=U))
        return out


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


def _generator(branch, s):
    return lindblad.liouvillian(
        branch.temperature,
        protocol.frequency(branch, s),
        branch.gamma0,
        branch.alpha,
    )


def propagate(branch, tau, steps=None, initial=None):
    """RK4-integrate the branch dynamics from s=0 to s=1.

    Returns a :class:`BranchTrajectory` with ``steps + 1`` uniformly spaced
    samples; ``steps`` must be even and at least 1000.  ``initial`` defaults to the Gibbs state at the initial
    splitting.  Raises :class:`PositivityError` if a population leaves
    [0, 1] by more than 1e-8 (step size too large).
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if steps is None:
        steps = default_steps(branch, tau)
    if steps < 1000:
        raise ValueError(f"steps must be >= 1000 for a trustworthy oracle, got {steps}")
    if steps % 2:
        raise ValueError(f"steps must be even for Simpson's rule on the heat, got {steps}")
    if initial is None:
        initial = lindblad.gibbs_state(branch.temperature, protocol.frequency(branch, 0.0))
    initial.validate()

    dt = tau / steps
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    rho = initial.as_array()
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
        if p < -_POSITIVITY_TOL or p > 1.0 + _POSITIVITY_TOL:
            raise PositivityError(
                f"population {p} left [0, 1] beyond {_POSITIVITY_TOL} at "
                f"t={times[i + 1]:.6g} on branch {branch.reservoir!r}: "
                f"step size too large ({steps} steps for tau={tau})"
            )
        states[i + 1] = rho
    return BranchTrajectory(branch=branch, tau=tau, times=times, states=states)


def heat_via_trajectory(trajectory):
    """Heat absorbed from the reservoir, Int Tr[H(t) L(t) rho(t)] dt.

    The generator is applied to every stored sample (vectorized over the
    population block; coherences never contribute to Tr[H drho/dt]) and the
    result Simpson-integrated over the sample spacing of ``times``.
    """
    if len(trajectory.times) < 1000:
        raise ValueError("need at least 1000 samples for the heat integral")
    branch = trajectory.branch
    w = np.asarray(trajectory.omegas, dtype=float)
    n = lindblad.bose_occupation(branch.temperature, w)
    g = lindblad.damping_rate(branch.gamma0, branch.alpha, w)
    p1 = trajectory.states[:, 0].real
    p0 = trajectory.states[:, 3].real
    dp1 = -g * (n + 1.0) * p1 + g * n * p0  # population row of L rho
    # Tr[H drho/dt] = (w/2)(dp1 - dp0) = w * dp1 since dp0 = -dp1
    return simpson(w * dp1, trajectory.times[1] - trajectory.times[0])
