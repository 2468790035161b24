"""Drive protocol of the three-reservoir two-level refrigerator.

The working substance is a two-level system whose energy splitting omega(t)
is swept by a cosine schedule while in contact with one of three reservoirs
(cold ``c``, hot ``h``, pump ``p``).  In rescaled time s = t/tau the
schedules read

    cold / hot :  omega(s) = delta * (cos(pi * s) + zeta)        (decreasing)
    pump       :  omega(s) = delta * (cos(pi * (1 - s)) + zeta)  (increasing)

so every branch starts and ends with zero slope.  Between branches the
splitting is quenched instantaneously by the ratio of the adjacent reservoir
temperatures, which keeps beta * omega (and hence the thermal state)
continuous.  Demanding that all three quenches line up fixes the pump
displacement and the hot/pump amplitudes in terms of the cold-branch
amplitude; see :func:`derive_linked_params`.

Natural units are used throughout: hbar = k_B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "TricycleConfig",
    "BranchProtocol",
    "derive_linked_params",
    "frequency",
    "frequency_derivative",
    "DEFAULT_CONFIG_VALUES",
]

RESERVOIRS = ("c", "h", "p")
_SLOPE_SIGN = {"decreasing": -1.0, "increasing": 1.0}  # of each phase's omega(s)

# Default operating point used across the package (CLI, demos, tests).
DEFAULT_CONFIG_VALUES = dict(
    T_c=0.2, T_h=1.0, T_p=0.5,
    zeta_c=2.0, zeta_h=2.0, delta_c=0.5333,
    gamma0=1.0, alpha=0.0,
)


def derive_linked_params(T_c, T_h, T_p, zeta_c, zeta_h, delta_c):
    """Pump displacement and hot/pump amplitudes implied by quench continuity.

    The splitting at the end of each heat-exchange branch must equal the
    splitting at the start of the next one scaled by the temperature ratio:

        delta_c (zeta_c - 1) / [delta_h (zeta_h + 1)] = T_c / T_h
        delta_h (zeta_h - 1) / [delta_p (zeta_p - 1)] = T_h / T_p
        delta_p (zeta_p + 1) / [delta_c (zeta_c + 1)] = T_p / T_c

    Solving with delta_c as the independent amplitude gives

        zeta_p  = (1 + zeta_c * zeta_h) / (zeta_c + zeta_h)
        delta_h = T_h (zeta_c - 1) / [T_c (1 + zeta_h)] * delta_c
        delta_p = T_p (zeta_c + zeta_h) / [T_c (1 + zeta_h)] * delta_c

    Returns
    -------
    (zeta_p, delta_h, delta_p)
    """
    if not (0.0 < T_c < T_p < T_h):
        raise ConfigError(
            f"temperatures must satisfy 0 < T_c < T_p < T_h, got "
            f"T_c={T_c}, T_p={T_p}, T_h={T_h}"
        )
    if zeta_c <= 1.0:
        raise ConfigError(f"zeta_c must be > 1 (positive frequencies), got {zeta_c}")
    if zeta_h <= 1.0:
        raise ConfigError(f"zeta_h must be > 1 (positive frequencies), got {zeta_h}")
    if delta_c <= 0.0:
        raise ConfigError(f"delta_c must be > 0, got {delta_c}")
    zeta_p = (1.0 + zeta_c * zeta_h) / (zeta_c + zeta_h)
    delta_h = T_h * (zeta_c - 1.0) / (T_c * (1.0 + zeta_h)) * delta_c
    delta_p = T_p * (zeta_c + zeta_h) / (T_c * (1.0 + zeta_h)) * delta_c
    return zeta_p, delta_h, delta_p


@dataclass(frozen=True)
class TricycleConfig:
    """Full parameter set of the tricycle.

    ``zeta_p``, ``delta_h`` and ``delta_p`` are derived from the independent
    parameters once, at construction; they cannot be passed in, so a config
    (including one made by ``dataclasses.replace``) cannot drift into an
    inconsistent state.
    """

    T_c: float = DEFAULT_CONFIG_VALUES["T_c"]
    T_h: float = DEFAULT_CONFIG_VALUES["T_h"]
    T_p: float = DEFAULT_CONFIG_VALUES["T_p"]
    zeta_c: float = DEFAULT_CONFIG_VALUES["zeta_c"]
    zeta_h: float = DEFAULT_CONFIG_VALUES["zeta_h"]
    delta_c: float = DEFAULT_CONFIG_VALUES["delta_c"]
    gamma0: float = DEFAULT_CONFIG_VALUES["gamma0"]
    alpha: float = DEFAULT_CONFIG_VALUES["alpha"]
    zeta_p: float = field(init=False, repr=False)
    delta_h: float = field(init=False, repr=False)
    delta_p: float = field(init=False, repr=False)

    def __post_init__(self):
        linked = derive_linked_params(self.T_c, self.T_h, self.T_p,
                                      self.zeta_c, self.zeta_h, self.delta_c)
        for name, value in zip(("zeta_p", "delta_h", "delta_p"), linked):
            object.__setattr__(self, name, value)
        if self.gamma0 <= 0.0:
            raise ConfigError(f"gamma0 must be > 0, got {self.gamma0}")

    def temperature(self, reservoir):
        return {"c": self.T_c, "h": self.T_h, "p": self.T_p}[reservoir]

    def branch(self, reservoir):
        """Build the :class:`BranchProtocol` of one heat-exchange step; its
        duration is passed to whatever evaluates the branch."""
        if reservoir not in RESERVOIRS:
            raise ConfigError(f"unknown reservoir {reservoir!r}, expected one of {RESERVOIRS}")
        if reservoir == "c":
            delta, zeta, phase = self.delta_c, self.zeta_c, "decreasing"
        elif reservoir == "h":
            delta, zeta, phase = self.delta_h, self.zeta_h, "decreasing"
        else:
            delta, zeta, phase = self.delta_p, self.zeta_p, "increasing"
        return BranchProtocol(
            reservoir=reservoir,
            temperature=self.temperature(reservoir),
            delta=delta,
            zeta=zeta,
            phase=phase,
            gamma0=self.gamma0,
            alpha=self.alpha,
        )

    def branches(self):
        return tuple(self.branch(reservoir) for reservoir in RESERVOIRS)


@dataclass(frozen=True)
class BranchProtocol:
    """One heat-exchange branch: reservoir contact plus its cosine schedule.

    ``phase`` is "decreasing" for the cold and hot branches (drive cos(pi s))
    and "increasing" for the pump branch (drive cos(pi (1 - s))).  The bath
    coupling (gamma0, alpha) is carried along so branch-level quantities such
    as the dissipation coefficient are self-contained.  There is no duration:
    the functions that evaluate a branch take tau and check it.
    """

    reservoir: str
    temperature: float
    delta: float
    zeta: float
    phase: str
    gamma0: float
    alpha: float
    beta: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.phase not in ("decreasing", "increasing"):
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.zeta <= 1.0 or self.delta <= 0.0:
            raise ConfigError(
                f"branch needs delta > 0 and zeta > 1 for positive frequencies, "
                f"got delta={self.delta}, zeta={self.zeta}"
            )
        object.__setattr__(self, "beta", 1.0 / self.temperature)


def _schedule(branch, s):
    """(s, delta, zeta, slope sign, u): s checked to lie in [0, 1], and the
    amplitude, displacement, slope sign and drive cos(pi u) of a branch, or of
    a tuple of branches as arrays with a row per branch against s."""
    s = np.asarray(s, dtype=float)
    if ((s < 0.0) | (s > 1.0)).any():
        raise ValueError("rescaled time s must lie in [0, 1]")
    if isinstance(branch, BranchProtocol):
        sign = _SLOPE_SIGN[branch.phase]
        return s, branch.delta, branch.zeta, sign, s if sign < 0.0 else 1.0 - s
    delta, zeta, sign = np.array([(b.delta, b.zeta, _SLOPE_SIGN[b.phase]) for b in branch]
                                 ).T.reshape((3, len(branch)) + (1,) * s.ndim)
    return s, delta, zeta, sign, np.where(sign < 0.0, s, 1.0 - s)


def frequency(branch, s):
    """Energy splitting omega at rescaled time s in [0, 1].

    Accepts scalars or arrays, and a tuple of branches (a row each); result is
    strictly positive for zeta > 1.
    """
    s, delta, zeta, _, u = _schedule(branch, s)
    w = delta * (np.cos(np.pi * u) + zeta)
    return w if w.ndim else float(w)


def frequency_derivative(branch, s):
    """Analytic d(omega)/ds (a row per branch of a tuple); exactly zero at both endpoints.

    Both phases have slope magnitude pi * delta * sin(pi * s), which is
    symmetric about s = 1/2; evaluating it at min(s, 1 - s) makes the sine
    argument exactly 0 at either end (sin(pi * 1.0) is 1.2e-16, not 0).
    """
    s, delta, _, sign, _ = _schedule(branch, s)
    d = sign * np.pi * delta * np.sin(np.pi * np.minimum(s, 1.0 - s))
    return d if d.ndim else float(d)
