"""Scalar 1-D minimisation and Simpson quadrature.

``golden`` keeps the iterates and stopping test of the usual library version
bit for bit (``tests/test_numerics.py`` checks this).
"""

from __future__ import annotations

import numpy as np

_GOLDEN_R = 0.61803399  # golden ratio conjugate, truncated to 8 digits
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_MAXITER = 5000


def golden(f, a, b, c, xtol):
    """Golden-section minimum of f from the bracket a <= b <= c.

    Returns ``(x, f(x))``, or None when (a, b, c) is not a bracket, that is
    unless f(b) is below both f(a) and f(c) (so never when b meets a or c).
    """
    fa, fb, fc = f(a), f(b), f(c)
    if not (fb < fa and fb < fc):
        return None
    x0, x3 = a, c
    if abs(c - b) > abs(b - a):
        x1, x2 = b, b + _GOLDEN_C * (c - b)
    else:
        x1, x2 = b - _GOLDEN_C * (b - a), b
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def simpson(y, dx):
    """Composite Simpson sum of equally spaced samples y with spacing dx.

    Needs an even number of intervals (an odd number of samples).
    """
    y = np.asarray(y, dtype=float)
    if y.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an even interval count, got {y.size - 1}")
    return float(np.sum(y[0:-2:2] + 4.0 * y[1::2] + y[2::2]) * dx / 3.0)
