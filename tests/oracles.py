"""Independent oracles used by the tests.

These deliberately avoid the production shortcuts: the dissipation
coefficient is evaluated from its defining trace expression with a
finite-difference outer derivative and the full generalized-inverse matrix,
and the Drazin inverse is rebuilt spectrally from an eigendecomposition.
"""

import numpy as np

from qtricycle import drazin_inverse, gibbs_state
from qtricycle.protocol import frequency, frequency_derivative
from qtricycle.thermo import gauss_legendre_adaptive

TRACELESS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)


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


def sigma_direct(branch, h=1e-5, rtol=1e-9):
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

    return branch.beta * gauss_legendre_adaptive(integrand, rtol=rtol)


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
