"""Vectorized two-level dissipator: Liouvillian, Gibbs state, Drazin inverse.

The density matrix is flattened into the column (rho11, rho10, rho01, rho00)
with index 1 the excited state.  In this basis the thermal generator at bath
temperature T and splitting omega is block diagonal: the populations relax at
rate gamma * (2n + 1) toward the Gibbs vector and the coherences rotate and
decay independently,

    L = [[-g(n+1),      0,          0,      g n   ],
         [ 0,     -g(n+1/2)-i w,    0,       0    ],
         [ 0,           0,    -g(n+1/2)+i w, 0    ],
         [ g(n+1),      0,          0,     -g n   ]]

with g = gamma0 * omega**alpha and n the Bose occupation.  :func:`liouvillian`
is array-valued: one call over a stack of splittings returns the stack of
generators, which is how the brute-force integrator builds the stage
generators of many steps at once.  L is singular (the Gibbs state spans its
kernel), so the generalized inverse used by the slow-driving expansion is the
Drazin inverse: zero on the kernel, the plain inverse on the complement.  For
this 4x4 block structure it is available in closed form, which
:func:`drazin_inverse` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityVector",
    "bose_occupation",
    "damping_rate",
    "gibbs_state",
    "liouvillian",
    "drazin_inverse",
]


@dataclass(frozen=True)
class DensityVector:
    """Vectorized two-level density matrix (rho11, rho10, rho01, rho00)."""

    rho11: complex
    rho10: complex
    rho01: complex
    rho00: complex

    def as_array(self):
        return np.array([self.rho11, self.rho10, self.rho01, self.rho00], dtype=complex)

    @classmethod
    def from_array(cls, vec):
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (4,):
            raise ValueError(f"expected a length-4 vector, got shape {vec.shape}")
        return cls(*(complex(v) for v in vec))

    @classmethod
    def from_populations(cls, excited):
        return cls(complex(excited), 0.0 + 0.0j, 0.0 + 0.0j, complex(1.0 - excited))

    @property
    def excited(self):
        """Excited-state population (real part of rho11)."""
        return self.rho11.real

    def matrix(self):
        return np.array([[self.rho11, self.rho10], [self.rho01, self.rho00]], dtype=complex)

    def validate(self, atol=1e-12):
        """Check trace, hermiticity and positivity; raise ValueError on failure."""
        if abs(self.rho11 + self.rho00 - 1.0) > atol:
            raise ValueError(f"trace violated: rho11 + rho00 = {self.rho11 + self.rho00}")
        if abs(self.rho01 - np.conjugate(self.rho10)) > atol:
            raise ValueError("hermiticity violated: rho01 != conj(rho10)")
        for name, pop in (("rho11", self.rho11), ("rho00", self.rho00)):
            if abs(pop.imag) > atol:
                raise ValueError(f"{name} has imaginary part {pop.imag}")
            if pop.real < -atol or pop.real > 1.0 + atol:
                raise ValueError(f"{name} = {pop.real} outside [0, 1]")
        if abs(self.rho10) ** 2 > self.rho11.real * self.rho00.real + atol:
            raise ValueError("positivity violated: |rho10|^2 > rho11 * rho00")
        return self


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
    """Instantaneous thermal state: populations (n, n+1)/(2n+1), no coherence.

    The excited population equals the Fermi-like factor 1/(exp(omega/T) + 1).
    """
    n = bose_occupation(T, omega)
    return DensityVector(
        rho11=n / (2.0 * n + 1.0),
        rho10=0.0 + 0.0j,
        rho01=0.0 + 0.0j,
        rho00=(n + 1.0) / (2.0 * n + 1.0),
    )


def liouvillian(T, omega, gamma0, alpha):
    """Thermal generator at (T, omega); see module docstring.

    Array-valued in ``omega``: the result has shape ``omega.shape + (4, 4)``,
    so a scalar splitting gives one 4x4 matrix and a stack of splittings a
    stack of generators with the same entries, element for element.
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
    """Closed-form Drazin inverse of :func:`liouvillian`.

    The population block maps the traceless direction (1, 0, 0, -1) to
    -(1, 0, 0, -1) / (gamma (2n+1)) and annihilates the Gibbs state; the
    coherence entries are the ordinary reciprocals of the (invertible)
    coherence eigenvalues.
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
