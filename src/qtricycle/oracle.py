"""Brute-force integration of the time-dependent master equation.

The independent check on the slow-driving expansion: classic fixed-step RK4 on
dp/dt = L(t) p.  L conserves the trace, so the excited population x = rho11 is
the whole state, x' = f - r x with r = L01 - L00 and f = L01.  Each RK4 step is
an affine map x -> a x + b, and the branch is their prefix scan, x -> A x + B.
The heat Int omega dx is the RK4 quadrature of (x, Q), Q' = omega x': each step
adds (c x + d) dt/6 at its starting x, so the heat is affine in the start too.
Beyond the generator matrix, nothing is shared with the closed-form Q0/Q1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lindblad, protocol
from .errors import PositivityError

__all__ = ["BranchMap", "default_steps", "propagate", "heat_via_trajectory"]

# Positivity slack for the integrator: populations may round-trip slightly
# outside [0, 1]; anything beyond this signals too coarse a step.
_POSITIVITY_TOL = 1e-8

# Steps whose affine maps are built and composed in one batch: a fixed count of
# array passes, log2(_CHUNK) rounds of them in the scan, on a 49 kB generator
# stack.  Larger batches run faster but raise the oracle's peak RSS.
_CHUNK = 768

# Largest step count propagate accepts: no sample is stored, so it bounds the run
# time (2^22 steps take 1-3 s on a 2-core host).  It covers tau = 3000 on every
# branch of the benchmark's model ranges (at most 3.31 M steps there).
_MAX_STEPS = 2 ** 22


@dataclass(frozen=True)
class BranchMap:
    """The branch's RK4 map of its start population x0 = rho11: it ends at
    A x0 + B and absorbs heat_slope x0 + heat_intercept from the reservoir;
    ``x`` and ``heat`` are those from the given ``x0``, every step checked."""

    branch: protocol.BranchProtocol
    tau: float
    steps: int
    x0: float
    A: float
    B: float
    heat_slope: float
    heat_intercept: float
    x: float
    heat: float

    @property
    def times(self):
        """The ``steps + 1`` sample times, kept only for the benchmark's tracer."""
        return np.linspace(0.0, self.tau, self.steps + 1)


def default_steps(branch, tau):
    """Step count resolving the fastest relaxation rate with >= 50 steps.

    The population relaxation rate is gamma * (2n + 1); its maximum over the
    schedule sets the step budget, floored at 1000 and rounded up to an even
    number, which keeps the recorded ``oracle-check`` step counts and heats.
    A count past the limit stays a float (inf for a huge tau) for propagate's check.
    """
    s = np.linspace(0.0, 1.0, 201)
    w = protocol.frequency(branch, s)
    n = lindblad.bose_occupation(branch.temperature, w)
    g = lindblad.damping_rate(branch.gamma0, branch.alpha, w)
    rate_max = float(np.max(g * (2.0 * n + 1.0)))
    steps = max(1000.0, 2.0 * float(np.ceil(25.0 * tau * rate_max)))
    return int(steps) if steps <= _MAX_STEPS else steps


def _batch_maps(branch, s, dt):
    """((a, b), (c, d)) of a batch at stage times ``s``: each RK4 stage K is
    alpha x + beta, a step x -> a x + b, and a doubling scan composes them, so
    entry i maps the batch's start to x after step i; a step's heat
    dt/6 (w1 K1 + 2 w2 (K2 + K3) + w4 K4) is (c x + d) dt/6 at its starting x."""
    w = protocol.frequency(branch, s)
    L = lindblad.liouvillian(branch.temperature, w, branch.gamma0, branch.alpha)
    lam, f = L[:, 0, 0] - L[:, 0, 1], L[:, 0, 1]  # x' = lam x + f, lam = -r
    l1, l2, l4, f1, f2, f4 = lam[:-1:2], lam[1::2], lam[2::2], f[:-1:2], f[1::2], f[2::2]
    w1, w2, w4 = w[:-1:2], w[1::2], w[2::2]
    a2, b2 = l2 * (1.0 + 0.5 * dt * l1), 0.5 * dt * l2 * f1 + f2
    a3, b3 = l2 * (1.0 + 0.5 * dt * a2), 0.5 * dt * l2 * b2 + f2
    a4, b4 = l4 * (1.0 + dt * a3), dt * l4 * b3 + f4
    c = w1 * l1 + 2.0 * w2 * (a2 + a3) + w4 * a4
    d = w1 * f1 + 2.0 * w2 * (b2 + b3) + w4 * b4
    a = 1.0 + (dt / 6.0) * (l1 + 2.0 * (a2 + a3) + a4)
    b = (dt / 6.0) * (f1 + 2.0 * (b2 + b3) + b4)
    for k in (1 << j for j in range((a.size - 1).bit_length())):  # 1, 2, 4, ... < size
        b[k:] += a[k:] * b[:-k]
        a[k:] *= a[:-k]
    return (a, b), (c, d)


def propagate(branch, tau, steps=None, x0=None):
    """RK4-integrate the branch's excited population x from s=0 to s=1.

    Returns the :class:`BranchMap` of ``steps`` steps, odd or even, in [1000,
    ``_MAX_STEPS``], from ``x0`` in [0, 1] (default: the Gibbs population at
    the initial splitting).  Raises :class:`PositivityError` if a population is
    NaN or leaves [0, 1] by more than 1e-8 (step size too large), and ValueError
    for a bad ``x0`` or step count (before any step), for a tau that is not
    finite, and if tau / steps is not positive (tau <= 0, or the step underflows
    to 0).  One :func:`lindblad.liouvillian` call gives the stage generators of
    each batch of _CHUNK steps at s = j / (2 steps); the batches' maps compose.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be > 0 and finite, got {tau}")
    if steps is None:
        steps = default_steps(branch, tau)
    if steps < 1000:
        raise ValueError(f"steps must be >= 1000 for a trustworthy oracle, got {steps}")
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps:.4g} steps for tau={tau} on branch {branch.reservoir!r} "
                         f"exceed the oracle's limit of {_MAX_STEPS}")
    x0 = float(lindblad.gibbs_state(branch.temperature, protocol.frequency(branch, 0.0))[0]
               if x0 is None else x0)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"initial population x0={x0} outside [0, 1]")

    dt = tau / steps
    if not dt > 0.0:
        raise ValueError(f"tau={tau} too small: its step tau/{steps} underflows to 0")
    x, heat, A, B, slope, intercept = x0, 0.0, 1.0, 0.0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the positivity check
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            s = np.arange(2 * start, 2 * stop + 1) / (2 * steps)
            (a, b), (c, d) = _batch_maps(branch, s, dt)
            xs = a * x + b  # x after each step of the batch
            bad = np.flatnonzero(~((xs >= -_POSITIVITY_TOL) & (xs <= 1.0 + _POSITIVITY_TOL)))
            if bad.size:
                raise PositivityError(
                    f"population {float(xs[bad[0]])} left [0, 1] beyond {_POSITIVITY_TOL} at "
                    f"t={(start + 1 + bad[0]) * dt:.6g} on branch {branch.reservoir!r}: "
                    f"step size too large ({steps} steps for tau={tau})")
            d = d.sum()  # dt first below: a subnormal dt / 6 drops digits
            heat += float(c[0] * x + c[1:] @ xs[:-1] + d) * dt / 6.0
            h1, h0 = float(c[0] + c[1:] @ a[:-1]) * dt / 6.0, float(c[1:] @ b[:-1] + d) * dt / 6.0
            slope, intercept = slope + h1 * A, intercept + h1 * B + h0
            A, B, x = float(a[-1]) * A, float(a[-1]) * B + float(b[-1]), float(xs[-1])
    return BranchMap(branch=branch, tau=tau, steps=steps, x0=x0, A=A, B=B,
                     heat_slope=slope, heat_intercept=intercept, x=x, heat=heat)


def heat_via_trajectory(trajectory):
    """Heat absorbed from the reservoir, Int Tr[H(t) d rho/dt] dt, as propagate
    found it: an accessor kept only as the name the benchmark's tracer wraps."""
    return trajectory.heat
