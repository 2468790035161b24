"""Two-level thermal dissipator on the populations: generator and Gibbs pair.

The drive changes only the splitting omega of a Hamiltonian that commutes
with itself at all times, and the thermal generator relaxes the populations
at rate gamma * (2n + 1) toward the Gibbs pair, uncoupled from the
coherences.  So the heat reads the excited population alone, and the state
is the real pair (rho11, rho00), index 1 the excited level, on which the
generator at bath temperature T and splitting omega is

    L = [[-g(n+1),  g n ],
         [ g(n+1), -g n ]]

with g = gamma0 * omega**alpha and n the Bose occupation.  L conserves the
trace, so x = rho11 obeys x' = lam x + f, lam = L00 - L01 = -g(2n+1), f = L01:
:func:`rates` gives that pair over a stack of splittings for the brute-force
integrator; :func:`liouvillian`, the 2x2 stack, serves the tests and tracer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bose_occupation",
    "damping_rate",
    "gibbs_state",
    "liouvillian",
    "rates",
]


def bose_occupation(T, omega):
    """Mean phonon number n = 1 / (exp(omega/T) - 1); array-friendly.

    Evaluated as exp(-x) / (1 - exp(-x)) so large omega/T underflows to zero
    instead of overflowing.
    """
    T = np.asarray(T, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if np.any(T <= 0.0):
        raise ValueError("temperature must be > 0")
    if np.any(omega <= 0.0):
        raise ValueError("frequency must be > 0")
    x = omega / T
    n = np.exp(-x) / (-np.expm1(-x))
    return n if n.ndim else float(n)


def damping_rate(gamma0, alpha, omega):
    """Bath-induced damping gamma = gamma0 * omega**alpha."""
    omega = np.asarray(omega, dtype=float)
    if gamma0 <= 0.0:
        raise ValueError("gamma0 must be > 0")
    if np.any(omega <= 0.0):
        raise ValueError("frequency must be > 0 (fractional powers undefined otherwise)")
    g = gamma0 * omega ** alpha
    return g if g.ndim else float(g)


def gibbs_state(T, omega):
    """Instantaneous thermal pair (rho11, rho00) = (n, n+1)/(2n+1).

    Array-valued in ``omega``: the pair runs along a last axis of length 2.
    The excited population equals the Fermi-like factor 1/(exp(omega/T) + 1).
    """
    n = np.asarray(bose_occupation(T, omega))
    return np.stack([n / (2.0 * n + 1.0), (n + 1.0) / (2.0 * n + 1.0)], axis=-1)


def liouvillian(T, omega, gamma0, alpha):
    """Thermal generator on (rho11, rho00) at (T, omega); see module docstring.

    Array-valued in ``omega``: the result has shape ``omega.shape + (2, 2)``,
    so a scalar splitting gives one 2x2 matrix and a stack of splittings a
    stack of generators with the same entries, element for element.  Only the
    tests (against the 4x4 generator) call it; the benchmark's tracer wraps it.
    """
    omega = np.asarray(omega, dtype=float)
    n = bose_occupation(T, omega)
    g = damping_rate(gamma0, alpha, omega)
    L = np.empty(omega.shape + (2, 2))
    L[..., 0, 0] = -g * (n + 1.0)
    L[..., 0, 1] = g * n
    L[..., 1, 0] = g * (n + 1.0)
    L[..., 1, 1] = -g * n
    return L


def rates(T, omega, gamma0, alpha):
    """(lam, f) of x' = lam x + f at (T, omega): lam = -g(2n+1), the negated
    relaxation rate, and f = g n.  Array-valued in ``omega``, like its parts."""
    n = bose_occupation(T, omega)
    g = damping_rate(gamma0, alpha, omega)
    return -(g * (2.0 * n + 1.0)), g * n
