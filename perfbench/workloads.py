"""Workloads of the qtricycle benchmark: seeded inputs, operations, output checks.

An operation ("op") is a fixed list of CLI subcommands run on one drawn
configuration.  The program only ever sees the generated ``key=value``
overrides; every check below recomputes its bound from those inputs and
the re-read report, without calling back into the program.

The physics constants used here (temperatures, zetas, quench relations)
are the benchmark's own copy of the model, written out from the paper's
definitions so the checks stay independent of the code they check.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Default operating point of the model, passed explicitly with every op so
# the checks never depend on the program's own defaults.
T_C, T_H, T_P = 0.2, 1.0, 0.5
ZETA_C, ZETA_H = 2.0, 2.0
FIXED = {"T_c": T_C, "T_h": T_H, "T_p": T_P, "zeta_c": ZETA_C, "zeta_h": ZETA_H}

# Ranges shared by every workload.
DELTA_C = (0.5, 0.8)
GAMMA0 = (1.0, 1.5)
ALPHA = (-0.5, 1.5)

LIGHT_TAU = (15.0, 60.0)
LIGHT_DELTA_MIN = (0.01, 0.05)
LIGHT_DELTA_MAX = (1.9, 2.0)
LIGHT_SAMPLES = 201
LIGHT_DELTA_POINTS = 400
LIGHT_SWEEP_POINTS = 60
CURVE_POINTS = 120
# Oracle branch durations, in relaxation times of the branch's fastest
# population relaxation rate gamma(omega) (2 n(omega) + 1).  One op
# propagates an antithetic pair m and ORACLE_PAIR_SUM - m, so every op
# integrates about 50 * ORACLE_PAIR_SUM RK4 steps while m spans the range.
ORACLE_RELAXATIONS = (30.0, 90.0)
ORACLE_PAIR_SUM = ORACLE_RELAXATIONS[0] + ORACLE_RELAXATIONS[1]

# Identities between numbers of one report hold to rounding; references
# recorded at an earlier commit hold to this looser tolerance, which admits
# reordered arithmetic and quadrature at the program's rtol=1e-9 but not a
# different root or a different curve.
IDENTITY_RTOL = 1e-12
REFERENCE_RTOL = 1e-6
# The oracle's gap to Q0 + Q1 is the first neglected order of the
# slow-driving expansion, Q2 / tau^2.  Measured |Q_oracle - Q_total| * tau^2
# stays below 2.6 on this workload's ranges; the relative error is bounded
# less tightly because Q_c can be small, so the bound is on the absolute gap.
ORACLE_GAP_TAU2 = 10.0
# Every this many ops, one recorded reference config is replayed.
REFERENCE_EVERY = 5

PSI_BOUND = T_C * (T_H - T_P) / (T_H * (T_P - T_C))


def branch_schedule(reservoir, delta_c):
    """(delta, zeta, T) of one branch from quench continuity.

    beta * omega is continuous across the three quenches, which fixes the
    hot and pump amplitudes and the pump displacement from the cold ones.
    """
    if reservoir == "c":
        return delta_c, ZETA_C, T_C
    if reservoir == "h":
        return T_H * (ZETA_C - 1.0) / (T_C * (1.0 + ZETA_H)) * delta_c, ZETA_H, T_H
    zeta_p = (1.0 + ZETA_C * ZETA_H) / (ZETA_C + ZETA_H)
    return T_P * (ZETA_C + ZETA_H) / (T_C * (1.0 + ZETA_H)) * delta_c, zeta_p, T_P


def relaxation_rate_max(reservoir, delta_c, gamma0, alpha):
    """Fastest population relaxation rate gamma0 w^alpha (2n+1) on the branch."""
    delta, zeta, T = branch_schedule(reservoir, delta_c)
    w = delta * (zeta + np.cos(np.pi * np.linspace(0.0, 1.0, 201)))
    return float(np.max(gamma0 * w ** alpha / np.tanh(w / (2.0 * T))))


class LatinDraws:
    """Uniform points in [0, 1)^dims, drawn in blocks of ``block``.

    Each block is a Latin hypercube sample: every dimension puts one point
    in each of its ``block`` equal strata.  A run of a few dozen ops then
    covers the ranges the same way on every seed, which keeps the run's
    median and tail steady while the individual inputs still change.
    """

    def __init__(self, rng, dims, block=12):
        self.rng, self.dims, self.block = rng, dims, block
        self._queue = []

    def next(self):
        if not self._queue:
            strata = np.array([self.rng.permutation(self.block) for _ in range(self.dims)]).T
            self._queue = list((strata + self.rng.random(strata.shape)) / self.block)
        return self._queue.pop()


def _scale(u, bounds):
    return float(bounds[0] + u * (bounds[1] - bounds[0]))


def _model(u):
    return {"delta_c": _scale(u[0], DELTA_C), "gamma0": _scale(u[1], GAMMA0),
            "alpha": _scale(u[2], ALPHA)}


# --- report parsing ---------------------------------------------------------

def parse_cell(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path):
    """CSV report as a list of {column: value} dicts."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return [dict(zip(header, map(parse_cell, row))) for row in reader]


def parse_summary(stdout_text):
    """The ``name = value`` lines that cli.run prints after the report."""
    summary = {}
    for line in stdout_text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            summary[key.strip()] = parse_cell(value.strip())
    return summary


def close(a, b, rtol, scale=0.0):
    """Relative comparison with NaN == NaN and an absolute floor rtol*scale."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    subcommands: tuple

    dims = 3

    def params(self, u):
        """Op inputs from one point ``u`` of the unit cube [0, 1)^dims."""
        raise NotImplementedError

    def overrides(self, params):
        """Config keys for one subcommand run; the program sees only these."""
        return {**FIXED, **params}

    def check(self, params, outputs):
        """Problems found in the op's outputs; empty when every check passes."""
        raise NotImplementedError

    def key_values(self, outputs):
        """Summary numbers compared with the references recorded at the seed."""
        raise NotImplementedError


class Curves(Workload):
    def params(self, u):
        return _model(u)

    def overrides(self, params):
        return {**super().overrides(params), "tau_c_points": CURVE_POINTS}

    def check(self, params, outputs):
        rows, summary = outputs["optimal-curve"]
        problems = []
        if len(rows) + summary.get("skipped_points", -1) != CURVE_POINTS:
            problems.append(f"{len(rows)} rows + {summary.get('skipped_points')} skipped "
                            f"!= {CURVE_POINTS} grid points")
        if not rows:
            return problems + ["no rows"]
        for r in rows:
            if not r["psi"] < PSI_BOUND:
                problems.append(f"psi={r['psi']!r} not below psi_r={PSI_BOUND!r}")
            if not r["R"] > 0.0:
                problems.append(f"R={r['R']!r} not > 0 at tau_c={r['tau_c']!r}")
            if not close(r["chi"], r["psi"] * r["R"], IDENTITY_RTOL):
                problems.append(f"chi={r['chi']!r} != psi*R at tau_c={r['tau_c']!r}")
            if not (r["tau_h"] > 0.0 and r["tau_p"] > 0.0):
                problems.append(f"non-positive duration at tau_c={r['tau_c']!r}")
        psis = [r["psi"] for r in rows]
        if any(b < a for a, b in zip(psis, psis[1:])):
            problems.append("rows not ascending in psi")
        for key, col in (("R_max", "R"), ("chi_max", "chi")):
            best = max(r[col] for r in rows)
            if not summary.get(key, -math.inf) >= best * (1.0 - IDENTITY_RTOL):
                problems.append(f"{key}={summary.get(key)!r} below row maximum {best!r}")
        return problems

    def key_values(self, outputs):
        _, summary = outputs["optimal-curve"]
        return {k: summary.get(k) for k in
                ("psi_at_R_max", "R_max", "psi_at_chi_max", "chi_max", "skipped_points")}


class Light(Workload):
    dims = 8

    def params(self, u):
        params = _model(u)
        for key, x in zip(("tau_c", "tau_h", "tau_p"), u[3:6]):
            params[key] = _scale(x, LIGHT_TAU)
        # A different amplitude grid per op keeps reversible-delta from
        # repeating the same evaluations across ops.
        params["delta_min"] = _scale(u[6], LIGHT_DELTA_MIN)
        params["delta_max"] = _scale(u[7], LIGHT_DELTA_MAX)
        return params

    def overrides(self, params):
        return {**super().overrides(params),
                "samples_per_branch": LIGHT_SAMPLES,
                "delta_points": LIGHT_DELTA_POINTS,
                "sweep_tau_c_points": LIGHT_SWEEP_POINTS,
                "sweep_tau_p_points": LIGHT_SWEEP_POINTS}

    def check(self, params, outputs):
        problems = []
        taus = {"c": params["tau_c"], "h": params["tau_h"], "p": params["tau_p"]}

        branch_rows, _ = outputs["branch"]
        if [r["reservoir"] for r in branch_rows] != ["c", "h", "p"]:
            problems.append("branch: rows are not c, h, p")
            return problems
        heats = {r["reservoir"]: r["Q"] for r in branch_rows}
        for r in branch_rows:
            if r["tau"] != taus[r["reservoir"]]:
                problems.append(f"branch: tau {r['tau']!r} is not the requested one")
            if not close(r["Q"], r["Q0"] + r["Q1"], IDENTITY_RTOL):
                problems.append(f"branch {r['reservoir']}: Q != Q0 + Q1")
            if not r["Sigma"] < 0.0:
                problems.append(f"branch {r['reservoir']}: Sigma={r['Sigma']!r} not < 0")

        cycle_rows, cycle_summary = outputs["cycle"]
        if len(cycle_rows) != 1:
            problems.append(f"cycle: {len(cycle_rows)} rows, expected 1")
        else:
            row = cycle_rows[0]
            q = (row["Q_c"], row["Q_h"], row["Q_p"])
            scale = max(map(abs, q))
            if not close(row["work_residual"], -(q[0] + q[1] + q[2]), IDENTITY_RTOL, scale):
                problems.append("cycle: work_residual != -(Q_c + Q_h + Q_p)")
            if not row["entropy_production"] >= 0.0:
                problems.append(f"cycle: entropy_production={row['entropy_production']!r} < 0")
            for res, value in zip("chp", q):
                if not close(value, heats[res], IDENTITY_RTOL):
                    problems.append(f"cycle: Q_{res} differs from branch Q_{res}")
            if not close(row["psi_r"], PSI_BOUND, IDENTITY_RTOL):
                problems.append("cycle: psi_r differs from the reversible bound")
            if not close(cycle_summary.get("R", math.nan), row["R"], 0.0):
                problems.append("cycle: summary R differs from the report row")

        ts_rows, _ = outputs["ts-diagram"]
        expected = [res for res in "chp" for _ in range(LIGHT_SAMPLES)]
        if [r["reservoir"] for r in ts_rows] != expected:
            problems.append(f"ts-diagram: {len(ts_rows)} rows, expected "
                            f"3 x {LIGHT_SAMPLES} in c, h, p order")
        elif not all(0.0 <= r["S"] <= math.log(2.0) + 1e-12 for r in ts_rows):
            problems.append("ts-diagram: entropy outside [0, ln 2]")

        sweep_rows, sweep_summary = outputs["sweep-times"]
        if len(sweep_rows) != LIGHT_SWEEP_POINTS ** 2:
            problems.append(f"sweep-times: {len(sweep_rows)} rows, "
                            f"expected {LIGHT_SWEEP_POINTS ** 2}")
        present = [r["R"] for r in sweep_rows if not math.isnan(r["R"])]
        if present and not close(sweep_summary.get("R_max_on_grid", math.nan),
                                 max(present), 0.0):
            problems.append("sweep-times: R_max_on_grid is not the grid maximum")

        delta_rows, delta_summary = outputs["reversible-delta"]
        root = delta_summary.get("delta_c_r", math.nan)
        if len(delta_rows) != LIGHT_DELTA_POINTS:
            problems.append(f"reversible-delta: {len(delta_rows)} rows, "
                            f"expected {LIGHT_DELTA_POINTS}")
        brackets = [(a["delta_c"], b["delta_c"]) for a, b in zip(delta_rows, delta_rows[1:])
                    if a["q0_sum"] * b["q0_sum"] < 0.0]
        if not brackets:
            problems.append("reversible-delta: q0_sum never changes sign")
        elif not brackets[0][0] <= root <= brackets[0][1]:
            problems.append(f"reversible-delta: delta_c_r={root!r} outside the sign "
                            f"change [{brackets[0][0]!r}, {brackets[0][1]!r}]")
        return problems

    def key_values(self, outputs):
        values = {f"cycle.{k}": v for k, v in outputs["cycle"][1].items()}
        values.update({f"branch.Q_{r['reservoir']}": r["Q"] for r in outputs["branch"][0]})
        ts_rows = outputs["ts-diagram"][0]
        if ts_rows:
            values["ts-diagram.S_last"] = ts_rows[-1]["S"]
        values["sweep-times.R_max_on_grid"] = outputs["sweep-times"][1].get("R_max_on_grid")
        values["reversible-delta.delta_c_r"] = outputs["reversible-delta"][1].get("delta_c_r")
        return values


class Oracle(Workload):
    dims = 5

    def params(self, u):
        params = _model(u)
        branch = "chp"[int(3 * u[3])]
        rate = relaxation_rate_max(branch, params["delta_c"], params["gamma0"], params["alpha"])
        m = _scale(u[4], ORACLE_RELAXATIONS)
        params["oracle_branch"] = branch
        params["oracle_taus"] = [m / rate, (ORACLE_PAIR_SUM - m) / rate]
        return params

    def check(self, params, outputs):
        rows, summary = outputs["oracle-check"]
        taus = params["oracle_taus"]
        if len(rows) != len(taus):
            return [f"{len(rows)} rows, expected {len(taus)}"]
        problems = []
        for r, tau in zip(rows, taus):
            if r["reservoir"] != params["oracle_branch"] or r["tau"] != tau:
                problems.append(f"row {r['tau']!r} is not the requested branch and tau")
            if not r["steps"] >= 1000:
                problems.append(f"steps={r['steps']!r} below the oracle's floor")
            if not close(r["Q_total"], r["Q0"] + r["Q1"], IDENTITY_RTOL):
                problems.append(f"Q_total != Q0 + Q1 at tau={tau!r}")
            gap = abs(r["Q_oracle"] - r["Q_total"])
            if not close(r["abs_err"], gap, IDENTITY_RTOL, abs(r["Q_oracle"])):
                problems.append(f"abs_err != |Q_oracle - Q_total| at tau={tau!r}")
            if not gap <= ORACLE_GAP_TAU2 / tau ** 2:
                problems.append(f"|Q_oracle - Q_total|={gap!r} above {ORACLE_GAP_TAU2}/tau^2 "
                                f"at tau={tau!r}")
            if not close(r["rel_err"], gap / abs(r["Q_oracle"]), IDENTITY_RTOL):
                problems.append(f"rel_err != abs_err / |Q_oracle| at tau={tau!r}")
        if not close(summary.get("max_rel_err", math.nan), max(r["rel_err"] for r in rows), 0.0):
            problems.append("summary max_rel_err is not the largest row rel_err")
        return problems

    def key_values(self, outputs):
        return {f"{k}.{i}": r[k] for i, r in enumerate(outputs["oracle-check"][0])
                for k in ("steps", "Q_oracle", "Q0", "Q1", "Q_total")}


# Why each workload exists and which layer it loads: see README.md.
WORKLOADS = {
    w.name: w for w in (
        Curves("curves", ("optimal-curve",)),
        Light("light", ("branch", "cycle", "ts-diagram", "sweep-times", "reversible-delta")),
        Oracle("oracle", ("oracle-check",)),
    )
}


def op_stream(workload, seed, references=()):
    """Endless op inputs for one seed: (params, reference values or None).

    Every ``REFERENCE_EVERY``-th op, while unused ones remain, replays one of
    the recorded reference configs (starting at an offset chosen by the
    seed), so no config repeats within a run.
    """
    draws = LatinDraws(np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)]),
                       workload.dims)
    refs = list(references)
    start = seed % len(refs) if refs else 0
    for index in itertools.count():
        used, slot = divmod(index, REFERENCE_EVERY)
        if slot == 0 and used < len(refs):
            ref = refs[(start + used) % len(refs)]
            yield dict(ref["params"]), ref["values"]
        else:
            yield workload.params(draws.next()), None


def compare_reference(expected, actual):
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if got is None or not close(got, want, REFERENCE_RTOL):
            problems.append(f"reference {key}: got {got!r}, recorded {want!r}")
    return problems


def format_override(key, value):
    if isinstance(value, (list, tuple)):
        return f"{key}=" + ",".join(repr(float(v)) for v in value)
    return f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
