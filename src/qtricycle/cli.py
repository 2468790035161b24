"""Command-line front end: config ingestion, sweeps, CSV/JSON emission.

Configuration is flat ``key = value`` text (one pair per line, ``#``
comments); every key has a default, so the empty config runs each
subcommand at the standard operating point.  Each subcommand writes one
plot-ready report file (CSV rows, or a JSON object whose ``meta`` block
echoes the config and the summary) and prints that summary's headline
numbers as ``name = value`` lines on stdout.  A report is its columns:
float64 arrays from array code, or the library's records (``SweepRecord``
and the like) transposed, whose field names are the column names.
``psi_points`` COPs from ``psi_min`` to ``psi_max`` make the psi grid of
``time-allocation`` (a bound left unset is the peak COP of one of its two
alphas, and a lone ``psi_min`` must lie below the larger peak, a lone
``psi_max`` above the smaller)
and of ``envelope``, which takes both bounds or neither (then its 80
COPs span 1% to 99% of the attainable range, the same for every alpha).

Grids are checked at parse time by the rules of the library functions they
feed: ``tau_c_points`` and ``alpha_points`` are at least
``optimize.MIN_GRID_POINTS``, ``alpha_min`` < ``alpha_max`` both lie within
``optimize.DEFAULT_ALPHA_WINDOW`` (``alpha_chi`` and ``alpha_r`` are not grids),
``T_c``, durations, their bounds, ``delta_min`` and the psi bounds are at
least the smallest normal float, ``delta_min`` < ``delta_max``, ``psi_min`` <
``psi_max`` when both are set, and the directory of ``out`` exists.
``alpha-sweep``, ``envelope`` and ``time-allocation`` build no curve, so they
ignore the ``tau_c_*`` grid keys.

Exit codes: 0 success, 2 configuration problem (including durations too
short for the slow-driving expansion, reported as ``PositivityError``, too
long for the oracle's step limit, or giving an infinite cell in ``branch``
or ``cycle``, a temperature too small for 1/T^2 and a Sigma integrand that
is not finite), 3 solver non-convergence (a ``*.diagnostic.txt`` file
enumerating the failed grid points, each with the reason it failed where one
is known, is written alongside the report path in that case).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, cycle, optimize, oracle, protocol, thermo
from .errors import ConfigError, ConvergenceError, PositivityError
from .protocol import DEFAULT_CONFIG_VALUES, TricycleConfig

__all__ = ["RunConfig", "parse_config", "run", "emit_report", "main"]

# key -> (kind, default); kind in {"float", "int", "str", "float?", "str?", "floats"}
_KEYS = {
    **{key: ("float", default) for key, default in DEFAULT_CONFIG_VALUES.items()},
    "tau_c": ("float", 9.0),
    "tau_p": ("float", 11.0),
    "tau_h": ("float?", None),          # derived from energy balance when unset
    "tau_c_min": ("float", optimize.DEFAULT_TAU_C_RANGE[0]),
    "tau_c_max": ("float", optimize.DEFAULT_TAU_C_RANGE[1]),
    "tau_c_points": ("int", optimize.DEFAULT_TAU_C_RANGE[2]),
    "sweep_tau_c_min": ("float", 1.0),
    "sweep_tau_c_max": ("float", 60.0),
    "sweep_tau_c_points": ("int", 60),
    "sweep_tau_p_min": ("float", 1.0),
    "sweep_tau_p_max": ("float", 60.0),
    "sweep_tau_p_points": ("int", 60),
    "alpha_min": ("float", optimize.DEFAULT_ALPHA_WINDOW[0]),
    "alpha_max": ("float", optimize.DEFAULT_ALPHA_WINDOW[1]),
    "alpha_points": ("int", optimize.DEFAULT_ALPHA_POINTS),
    "envelope_alpha_points": ("int", optimize.DEFAULT_ENVELOPE_ALPHA_POINTS),
    "psi_points": ("int", 40),
    "psi_min": ("float?", None),
    "psi_max": ("float?", None),
    "alpha_chi": ("float?", None),      # skip the alpha sweep when both given
    "alpha_r": ("float?", None),
    "delta_min": ("float", cycle.DEFAULT_DELTA_SCAN[0]),
    "delta_max": ("float", cycle.DEFAULT_DELTA_SCAN[1]),
    "delta_points": ("int", cycle.DEFAULT_DELTA_SCAN[2]),
    "samples_per_branch": ("int", thermo.DEFAULT_SAMPLES_PER_BRANCH),
    "oracle_branch": ("str", "c"),
    "oracle_taus": ("floats", (100.0, 200.0, 400.0)),
    "out": ("str?", None),
    "format": ("str", "csv"),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def tricycle(self):
        return TricycleConfig(**{key: self.values[key] for key in DEFAULT_CONFIG_VALUES})


def _parse_value(key, raw):
    kind = _KEYS[key][0]
    raw = raw.strip()
    try:
        if kind == "float":
            value = float(raw)
        elif kind == "int":
            return int(raw)
        elif kind == "float?":
            value = None if raw == "" else float(raw)
        elif kind == "floats":
            value = tuple(float(part) for part in raw.split(",") if part.strip())
        else:
            return raw  # "str", "str?"
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} as {kind}") from None
    numbers = value if isinstance(value, tuple) else (value,)
    if not numbers:
        raise ConfigError(f"key {key!r} needs at least one number, got {raw!r}")
    if any(x is not None and not math.isfinite(x) for x in numbers):
        raise ConfigError(f"value for key {key!r} must be finite, got {raw!r}")
    return value


def parse_config(text, overrides=()):
    """Parse flat key=value text into a :class:`RunConfig`.

    ``overrides`` are extra ``key=value`` strings (from ``--set``) applied
    after the file.  Unknown keys and invariant violations are errors.
    """
    values = {key: default for key, (_, default) in _KEYS.items()}
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        pairs.append((key.strip(), raw))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw))

    for key, raw in pairs:
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[key] = _parse_value(key, raw)

    rc = RunConfig(values=values)
    rc.tricycle()  # surface invariant violations at parse time
    if values["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {values['format']!r}")
    for key in ("T_c", "tau_c", "tau_p", "tau_h", "tau_c_min", "tau_c_max", "sweep_tau_c_min",
                "sweep_tau_c_max", "sweep_tau_p_min", "sweep_tau_p_max", "oracle_taus",
                "delta_min", "psi_min", "psi_max"):
        if values[key] is None:  # tau_h, psi_min or psi_max unset
            continue
        least = np.min(values[key])
        if least <= 0.0:
            raise ConfigError(f"{key} must be > 0")
        if least < sys.float_info.min:  # a subnormal's reciprocal overflows
            raise ConfigError(f"{key} must be at least {sys.float_info.min!r}, "
                              "the smallest normal float")
    for lo, hi in (("delta_min", "delta_max"), ("psi_min", "psi_max"),
                   ("alpha_min", "alpha_max")):
        if None not in (values[lo], values[hi]) and values[hi] <= values[lo]:
            raise ConfigError(f"{hi} must be > {lo}")
    for key in ("sweep_tau_c_points", "sweep_tau_p_points", "envelope_alpha_points",
                "psi_points", "delta_points", "samples_per_branch"):
        if values[key] < 2:
            raise ConfigError(f"{key} must be >= 2")
    for key in ("tau_c_points", "alpha_points"):
        if values[key] < optimize.MIN_GRID_POINTS:
            raise ConfigError(f"{key} must be >= {optimize.MIN_GRID_POINTS}")
    lo, hi = optimize.DEFAULT_ALPHA_WINDOW
    for key in ("alpha_min", "alpha_max"):
        if not lo <= values[key] <= hi:
            raise ConfigError(f"{key} must lie within [{lo}, {hi}]")
    out = values["out"]
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"out: directory of {out!r} does not exist")
    if values["oracle_branch"] not in ("c", "h", "p"):
        raise ConfigError("oracle_branch must be one of c, h, p")
    return rc


# Report cells are str, int, float or bool; meta adds None, tuples and dicts.
def _fmt_cell(value):
    if type(value) is float:
        return f"{value:.17e}"
    if type(value) is bool:
        return "true" if value else "false"
    return str(value)


def _json_safe(value):
    if type(value) is float:
        if math.isinf(value):  # CSV's spelling; NaN stays null
            return "inf" if value > 0.0 else "-inf"
        return None if math.isnan(value) else value
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


# A report with fewer float cells is formatted a cell at a time: a kernel call
# costs some 100 numpy calls, which the per-cell path takes about this many
# float cells to spend (measured on reports of 2 to 9 columns).
_KERNEL_MIN_FLOATS = 256


def emit_report(columns, cells, meta, fmt):
    """Render a report, one sequence of cells per column (a float64 array or
    Python values), as CSV rows or as one JSON object with ``meta``,
    ``columns`` and ``rows`` (byte-stable); CSV leaves ``meta`` out.

    A CSV cell that is a float prints as ``%.17e`` (``nan``, ``inf``, ``-inf``
    where not finite, NaN without its sign), a bool as ``true``/``false``,
    anything else as ``str``.  A report with fewer than ``_KERNEL_MIN_FLOATS``
    cells in columns of floats (arrays, or lists of floats only) takes a
    ``_fmt_cell`` call per cell, a larger one ``_csv_kernel.csv_bytes``.  Its
    float cells take exact digits from an array kernel, or ``"%.17e"`` itself
    where the kernel cannot round with certainty (a possible tie, log10 off by
    one).
    """
    if fmt == "csv":
        floats = [isinstance(c, np.ndarray) or set(map(type, c)) == {float} for c in cells]
        if len(cells[0]) * sum(floats) >= _KERNEL_MIN_FLOATS:
            from ._csv_kernel import csv_bytes  # so compiled only once a report needs it
            texts = {j: [_fmt_cell(v).encode("utf-8", "surrogatepass") for v in column]
                     for j, column in enumerate(cells) if not floats[j]}
            return str(csv_bytes(columns, cells, texts), "utf-8", "surrogatepass")
    # array cells as Python floats, as _fmt_cell and _json_safe test type(v) is float
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cells))
    if fmt == "csv":
        lines = [",".join(columns), *(",".join(map(_fmt_cell, row)) for row in rows)]
        return "\n".join(lines) + "\n"
    doc = {
        "meta": _json_safe(meta),
        "columns": list(columns),
        "rows": [[_json_safe(v) for v in row] for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_atomic(path, text):
    """Replace ``path`` by ``text`` atomically, in the mode ``open`` gives under the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:  # created with mode 0666, which the kernel masks; a taken name is drawn again
        tmp = os.path.join(directory, f".qtricycle-{os.urandom(8).hex()}.tmp")
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolved_taus(rc, config):
    """Branch coefficients and (tau_c, tau_h, tau_p), with tau_h from the
    energy balance when unset."""
    coeffs = cycle.cycle_coefficients(config)
    tau_h = rc.tau_h
    if tau_h is None:
        tau_h = optimize.balanced_tau_h(coeffs, rc.tau_c, rc.tau_p)
    return coeffs, (rc.tau_c, tau_h, rc.tau_p)


def _reject_infinite(taus, cells):
    """ConfigError naming the durations if a cell is +-inf; NaN passes."""
    if any(np.isinf(column).any() if isinstance(column, np.ndarray)
           else any(type(v) is float and math.isinf(v) for v in column) for column in cells):
        raise ConfigError("durations tau_c={!r}, tau_h={!r}, tau_p={!r} give an "
                          "infinite heat or cycle metric".format(*taus))


def _run_branch(rc, config):
    coeffs, taus = _resolved_taus(rc, config)
    m = cycle.evaluate_cycle(coeffs, *taus)
    cells = list(zip(m.cold, m.hot, m.pump))
    _reject_infinite(taus, cells)
    return thermo.BranchThermo._fields, cells, {"tau_h_used": taus[1]}


def _run_cycle(rc, config):
    coeffs, (tau_c, tau_h, tau_p) = _resolved_taus(rc, config)
    m = cycle.evaluate_cycle(coeffs, tau_c, tau_h, tau_p)
    psi_r = cycle.reversible_cop(config.T_c, config.T_h, config.T_p)
    columns = ["tau_c", "tau_h", "tau_p", "Q_c", "Q_h", "Q_p", "psi", "R",
               "chi", "work_residual", "entropy_production", "psi_r", "valid"]
    cells = [(v,) for v in (tau_c, tau_h, tau_p, m.cold.Q, m.hot.Q, m.pump.Q, m.psi, m.R,
                            m.chi, m.work_residual, m.entropy_production, psi_r, m.valid)]
    _reject_infinite((tau_c, tau_h, tau_p), cells)
    summary = {"psi": m.psi, "R": m.R, "chi": m.chi,
               "work_residual": m.work_residual}
    return columns, cells, summary


def _run_ts_diagram(rc, config):
    taus = (rc.tau_c, rc.tau_h, rc.tau_p)
    if rc.tau_h is None:  # the state needs no heats: coefficients only to balance tau_h
        _, taus = _resolved_taus(rc, config)
    trajectory = thermo.ts_trajectory(config, taus, rc.samples_per_branch)
    return thermo.Trajectory._fields, trajectory, {"tau_h_used": taus[1]}


def _run_sweep_times(rc, config):
    tc = np.linspace(rc.sweep_tau_c_min, rc.sweep_tau_c_max, rc.sweep_tau_c_points)
    tp = np.linspace(rc.sweep_tau_p_min, rc.sweep_tau_p_max, rc.sweep_tau_p_points)
    sweep = optimize.free_time_sweep(cycle.cycle_coefficients(config), tc, tp)
    columns = ["tau_c", "tau_p", "tau_h", "R"]
    # a row per (tau_c, tau_p), tau_p fastest; NaN cells render as nan/null
    cells = [np.repeat(tc, tp.size), np.tile(tp, tc.size), sweep.tau_h.ravel(), sweep.R.ravel()]
    present = sweep.R[~np.isnan(sweep.R)]
    summary = {"R_max_on_grid": float(present.max()) if present.size else float("nan")}
    return columns, cells, summary


def _run_optimal_curve(rc, config):
    grid = np.geomspace(rc.tau_c_min, rc.tau_c_max, rc.tau_c_points)
    curve = optimize.optimal_curve(config, tau_c_grid=grid)
    ext = optimize.curve_maxima(curve.coeffs, config.alpha)
    summary = {"psi_at_R_max": ext.psi_at_R_max, "R_max": ext.R_max,
               "psi_at_chi_max": ext.psi_at_chi_max, "chi_max": ext.chi_max,
               "skipped_points": len(curve.skipped)}
    return optimize.SweepRecord._fields, list(zip(*curve.records)), summary


def _run_alpha_sweep(rc, config):
    grid = np.linspace(rc.alpha_min, rc.alpha_max, rc.alpha_points)
    result = optimize.alpha_sweep(config, grid)
    summary = {"alpha_chi": result.alpha_chi, "alpha_r": result.alpha_R,
               "chi_max": result.chi_max, "R_max": result.R_max,
               "skipped_points": len(result.skipped)}
    return optimize.AlphaRecord._fields, list(zip(*result.rows)), summary


def _psi_grid(rc, lo, hi):
    lo = rc.psi_min if rc.psi_min is not None else lo
    hi = rc.psi_max if rc.psi_max is not None else hi
    return np.linspace(lo, hi, rc.psi_points)


def _run_envelope(rc, config):
    bounds = (rc.psi_min, rc.psi_max)
    if bounds.count(None) == 1:
        raise ConfigError("envelope needs both psi_min and psi_max, or neither")
    psi_grid = None if None in bounds else _psi_grid(rc, *bounds)
    alphas = np.linspace(rc.alpha_min, rc.alpha_max, rc.envelope_alpha_points)
    result = optimize.envelope_curve(config, psi_grid, alphas)
    columns = ("curve", *optimize.SweepRecord._fields)
    rows = [(label, *r) for label in ("R", "chi") for r in result.records]
    summary = {"psi_R": result.psi_R, "psi_chi": result.psi_chi,
               "skipped_points": len(result.skipped)}
    return columns, list(zip(*rows)), summary


def _run_time_allocation(rc, config):
    alpha_r, alpha_chi = rc.alpha_r, rc.alpha_chi
    if alpha_r is None or alpha_chi is None:  # an alpha left unset takes the sweep's
        sweep = optimize.alpha_sweep(
            config, np.linspace(rc.alpha_min, rc.alpha_max, rc.alpha_points))
    if alpha_r is None:
        coeffs_R, at_R = sweep.at_R
        alpha_r, psi_R = at_R.alpha, at_R.psi_at_R_max
    else:
        coeffs_R = cycle.cycle_coefficients(replace(config, alpha=alpha_r))
        psi_R = optimize.max_cooling_rate(coeffs_R, alpha_r).psi
    if alpha_chi is None:
        coeffs_chi, at_chi = sweep.at_chi
        alpha_chi, psi_chi = at_chi.alpha, at_chi.psi_at_chi_max
    else:
        coeffs_chi = cycle.cycle_coefficients(replace(config, alpha=alpha_chi))
        psi_chi = optimize.max_figure_of_merit(coeffs_chi, alpha_chi).psi
    lo, hi = sorted((psi_R, psi_chi))
    # a lone bound's other end is a peak COP (two set bounds are ordered at parse time)
    if rc.psi_max is None and rc.psi_min is not None and not rc.psi_min < hi:
        raise ConfigError(f"psi_min must be < {hi!r}, the larger peak COP at the grid's "
                          "other end")
    if rc.psi_min is None and rc.psi_max is not None and not rc.psi_max > lo:
        raise ConfigError(f"psi_max must be > {lo!r}, the smaller peak COP at the grid's "
                          "other end")
    psi_grid = _psi_grid(rc, lo, hi)
    columns = ("alpha_label", "alpha", *optimize.ProfilePoint._fields)
    rows = [(label, alpha, *p)
            for label, alpha, coeffs in (("alpha_chi", alpha_chi, coeffs_chi),
                                         ("alpha_R", alpha_r, coeffs_R))
            for p in optimize.time_allocation_profile(coeffs, alpha, psi_grid)]
    summary = {"alpha_chi": alpha_chi, "alpha_r": alpha_r,
               "psi_R": psi_R, "psi_chi": psi_chi}
    return columns, list(zip(*rows)), summary


def _run_reversible_delta(rc, config):
    grid = np.linspace(rc.delta_min, rc.delta_max, rc.delta_points)
    scan = cycle.zeroth_heat_sum_curve(config, grid)
    return ["delta_c", "q0_sum"], scan, {"delta_c_r": cycle.reversible_amplitude(config, scan)}


def _run_oracle_check(rc, config):
    columns = ["reservoir", "tau", "steps", "Q_oracle", "Q0", "Q1",
               "Q_total", "abs_err", "rel_err"]
    rows = []
    worst = 0.0
    branch = config.branch(rc.oracle_branch)
    heat = thermo.branch_heat(branch, rc.oracle_taus[0])  # one Sigma quadrature for every tau
    for tau in rc.oracle_taus:
        bt = thermo.BranchThermo.from_coefficients(branch.reservoir, branch.temperature,
                                                   heat.dS_eq, heat.Sigma, tau)
        traj = oracle.propagate(branch, tau)
        q = oracle.heat_via_trajectory(traj)
        abs_err = abs(q - bt.Q)
        rel_err = abs_err / abs(q)
        worst = max(worst, rel_err)
        rows.append((rc.oracle_branch, tau, traj.steps,
                     q, bt.Q0, bt.Q1, bt.Q, abs_err, rel_err))
    return columns, list(zip(*rows)), {"max_rel_err": worst}


_RUNNERS = {
    "branch": _run_branch,
    "cycle": _run_cycle,
    "ts-diagram": _run_ts_diagram,
    "sweep-times": _run_sweep_times,
    "optimal-curve": _run_optimal_curve,
    "alpha-sweep": _run_alpha_sweep,
    "envelope": _run_envelope,
    "time-allocation": _run_time_allocation,
    "reversible-delta": _run_reversible_delta,
    "oracle-check": _run_oracle_check,
}


def run(subcommand, rc, stdout=None):
    """Execute one subcommand; write the report; print summary lines.

    Returns the exit code.  On solver non-convergence the diagnostic file is
    written next to the report path and 3 is returned.
    """
    stdout = stdout if stdout is not None else sys.stdout
    out_path = rc.out or f"{subcommand.replace('-', '_')}.{rc.format}"
    config = rc.tricycle()
    try:
        columns, cells, summary = _RUNNERS[subcommand](rc, config)
    except ConvergenceError as exc:
        diagnostic = out_path + ".diagnostic.txt"
        lines = [f"subcommand: {subcommand}", f"error: {exc}"]
        if exc.failed_points:
            lines.append("failed grid points:")
            lines.extend(f"  {point}: {reason}" for point, reason in exc.failed_points)
        _write_atomic(diagnostic, "\n".join(lines) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        print(f"diagnostic written to {diagnostic}", file=sys.stderr)
        return 3
    meta = {
        "tool": "qtricycle",
        "version": __version__,
        "subcommand": subcommand,
        "config": dict(sorted(rc.values.items())),
        "summary": summary,
    }
    _write_atomic(out_path, emit_report(columns, cells, meta, rc.format))
    print(f"wrote {out_path} ({len(cells[0])} rows)", file=stdout)
    for key, value in summary.items():
        print(f"{key} = {_fmt_cell(value)}", file=stdout)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qtricycle",
        description="Finite-time quantum tricycle performance sweeps.",
    )
    parser.add_argument("subcommand", choices=tuple(_RUNNERS))
    parser.add_argument("--config", default=None, help="path to key=value config file")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config is not None:
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
        given = (("out", args.out), ("format", args.format))
        rc = parse_config(text, overrides=args.overrides + [
            f"{key}={value}" for key, value in given if value is not None])
        return run(args.subcommand, rc)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:  # durations too short for the expansion
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
