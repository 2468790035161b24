import csv
import dataclasses
import io
import json
import math
import os
import stat
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qtricycle import TricycleConfig, _csv_kernel, cli, cycle, optimize, oracle, thermo
from qtricycle.cli import (
    RunConfig,
    emit_report,
    main,
    parse_config,
    run,
)
from qtricycle.errors import ConfigError
from oracles import csv_report_reference, report_columns, report_rows


class TestParseConfig:
    def test_empty_gives_defaults(self):
        rc = parse_config("")
        assert rc.T_c == 0.2 and rc.T_h == 1.0 and rc.T_p == 0.5
        assert rc.delta_c == 0.5333 and rc.alpha == 0.0 and rc.gamma0 == 1.0
        assert rc.zeta_c == 2.0 and rc.zeta_h == 2.0
        assert rc.tau_c == 9.0 and rc.tau_p == 11.0 and rc.tau_h is None
        assert rc.format == "csv"

    def test_comments_and_overrides(self):
        text = """
        # reversible operating point
        delta_c = 0.3492   # amplitude
        tau_c   = 20
        """
        rc = parse_config(text)
        assert rc.delta_c == 0.3492
        assert rc.tau_c == 20.0

    def test_set_overrides_apply_last(self):
        rc = parse_config("delta_c = 0.4", overrides=["delta_c=0.6", "alpha=0.3"])
        assert rc.delta_c == 0.6
        assert rc.alpha == 0.3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("delta = 0.5")

    def test_invariant_violation_names_the_rule(self):
        with pytest.raises(ConfigError, match="zeta_c"):
            parse_config("zeta_c = 0.5")
        with pytest.raises(ConfigError, match="temperatures"):
            parse_config("T_p = 2.0")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("tau_c = fast")
        with pytest.raises(ConfigError):
            parse_config("format = yaml")
        with pytest.raises(ConfigError):
            parse_config("no_equals_sign")
        with pytest.raises(ConfigError):
            parse_config("oracle_branch = q")
        with pytest.raises(ConfigError):
            parse_config("tau_c = -3")
        for text in ("alpha = nan", "delta_c = inf", "tau_c = inf",
                     "oracle_taus = 100,nan"):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(text)
        for text in ("oracle_taus =", "oracle_taus = ,"):
            with pytest.raises(ConfigError, match="at least one number"):
                parse_config(text)

    def test_grid_rules_read_the_library_constants(self):
        least = optimize.MIN_GRID_POINTS
        lo, hi = optimize.DEFAULT_ALPHA_WINDOW
        rc = parse_config("", [f"tau_c_points={least}", f"alpha_points={least}",
                               f"alpha_min={lo}", f"alpha_max={hi}"])
        assert (rc.tau_c_points, rc.alpha_points, rc.alpha_min, rc.alpha_max) == \
            (least, least, lo, hi)
        for key in ("tau_c_points", "alpha_points"):
            with pytest.raises(ConfigError, match=f"^{key} must be >= {least}$"):
                parse_config("", [f"{key}={least - 1}"])
        for key, value in (("alpha_min", lo - 1e-9), ("alpha_max", hi + 1e-9)):
            with pytest.raises(ConfigError, match=f"^{key} must lie within"):
                parse_config("", [f"{key}={value!r}"])

    def test_given_alphas_are_not_grids(self):
        # alpha_chi and alpha_r, like alpha itself, may lie outside the window
        rc = parse_config("", ["alpha_chi=2.5", "alpha_r=-3", "alpha=1.8"])
        assert (rc.alpha_chi, rc.alpha_r, rc.alpha) == (2.5, -3.0, 1.8)

    def test_out_directory_must_exist(self, tmp_path):
        assert parse_config("", [f"out={tmp_path / 'x.csv'}"]).out == str(tmp_path / "x.csv")
        with pytest.raises(ConfigError, match="^out: directory .* does not exist$"):
            parse_config("", [f"out={tmp_path / 'missing' / 'x.csv'}"])


class TestEmitReport:
    @pytest.fixture
    def payload(self):
        """(columns, cells, meta) of a two-row report."""
        return (["name", "x"], [["a", "b"], [0.1, float("nan")]],
                {"tool": "qtricycle", "version": "test", "config": {"T_c": 0.2},
                 "summary": {"best": 0.1}})

    def test_csv_shape_and_precision(self, payload):
        text = emit_report(*payload, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "name,x"
        assert lines[1].split(",")[1] == f"{0.1:.17e}"
        assert lines[2].split(",")[1] == "nan"

    def test_byte_stable(self, payload):
        assert emit_report(*payload, "csv") == emit_report(*payload, "csv")
        assert emit_report(*payload, "json") == emit_report(*payload, "json")

    def test_json_round_trips_csv_values(self, payload):
        doc = json.loads(emit_report(*payload, "json"))
        csv_lines = emit_report(*payload, "csv").strip().split("\n")[1:]
        for row, line in zip(doc["rows"], csv_lines):
            parsed = line.split(",")[1]
            if row[1] is None:
                assert parsed == "nan"
            else:
                assert abs(float(parsed) - row[1]) <= 1e-15 * abs(row[1])

    def test_json_meta_echoes_config(self, payload):
        doc = json.loads(emit_report(*payload, "json"))
        assert doc["meta"]["config"]["T_c"] == 0.2
        assert doc["meta"]["summary"]["best"] == 0.1

    def test_csv_matches_the_per_cell_reference_on_edge_cells(self):
        # repeated floats (with NaN and inf among them), 0.0 and -0.0 in one
        # column, subnormals, bool, int and str columns, numpy scalars and a
        # column of mixed types; the property test in test_properties.py
        # draws such tables at random
        nan, inf = float("nan"), float("inf")
        columns = ["repeats", "nan_repeats", "zeros", "neg_zero", "specials",
                   "inf_repeats", "flag", "count", "label", "numpy", "mixed"]
        rows = [(0.1, nan, 0.0, -0.0, inf, inf, True, 3, "c", np.float64(0.25), 1.0),
                (0.1, 1.5, -0.0, -0.0, -inf, -inf, False, -1, "h", np.float64(-0.0), 2),
                (0.2, 1.5, 0.0, 2.0, 5e-324, inf, True, 0, "p", np.float64(nan), "x"),
                (0.1, nan, -0.0, 2.0, -1e-310, -inf, False, 10 ** 20, "c,h", 0.5, True)]
        for table in (rows, rows[:1], []):  # the last a header only
            assert emit_report(columns, report_columns(columns, table), {}, "csv") == \
                csv_report_reference(columns, table)
        lines = emit_report(columns, report_columns(columns, rows), {}, "csv").splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == [
            f"{z:.17e}" for z in (0.0, -0.0, 0.0, -0.0)]

    def test_float_cells_are_the_exact_percent_e_digits(self):
        # random bit patterns; every power of ten and both its neighbours,
        # where log10 can be off by one; 2^k and 3*2^k over the exponent
        # range; exact ties m/2^j with m*5^j of 19 digits, which "%.17e"
        # rounds to even; and the special values
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64)
        tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
        values = [*bits[np.isfinite(bits)].tolist(), *tens.tolist(),
                  *np.nextafter(tens, 0.0).tolist(), *np.nextafter(tens, math.inf).tolist(),
                  *(math.ldexp(m, k) for m in (1, 3) for k in range(-1074, 1024 - m // 2)),
                  (2 ** 53 - 1) / 8, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  5e-324, -1e-310, sys.float_info.max]
        for j in range(1, 28):  # odd m below 2^53, so m/2^j is a float
            lo, hi = -(-10 ** 18 // 5 ** j), min((10 ** 19 - 1) // 5 ** j, 2 ** 53 - 1)
            if lo <= hi:
                odd = {lo | 1, *(rng.integers(lo, hi + 1, 100) | 1).tolist()}
                values += [m / 2 ** j for m in odd if m <= hi]
        values += [-v for v in values[::7]]
        for start in range(0, len(values), 25_000):  # one-column reports past the crossover
            chunk = values[start:start + 25_000]
            assert len(chunk) >= cli._KERNEL_MIN_FLOATS
            expected = "x\n" + "".join(["%.17e\n" % v for v in chunk])
            assert emit_report(["x"], [chunk], {}, "csv") == expected

    @pytest.mark.parametrize("ulps", [-1, 1])
    def test_float_cells_stay_exact_where_log10_is_an_ulp_off(self, monkeypatch, ulps):
        # a log10 an ulp low puts the exponent one below at the powers of ten
        # (y reaches 10^18), an ulp high one above just under them (y falls
        # below 10^17); either way those cells take "%.17e"
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), ulps * math.inf))
        tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
        values = [*tens.tolist(), *np.nextafter(tens, 0.0).tolist(),
                  *np.nextafter(tens, math.inf).tolist()]
        expected = "x\n" + "".join(["%.17e\n" % v for v in values])
        assert emit_report(["x"], [values], {}, "csv") == expected

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_both_paths_match_the_reference_at_the_crossover(self, monkeypatch, extra):
        # one column of floats beside str cells with NUL and non-ASCII text,
        # bools, ints, numpy scalars and mixed columns: one float cell short of
        # the crossover takes the per-cell path, at the crossover the kernel;
        # the float column as a float64 array gives the bytes of its list
        kernel, calls = _csv_kernel.csv_bytes, []
        monkeypatch.setattr(_csv_kernel, "csv_bytes",
                            lambda *args: calls.append(args) or kernel(*args))
        pool = [0.1, -0.0, math.nan, -math.inf, 1e-300, 123.456, -1e300, 5e-324]
        others = ["a\x00b", "é☃,", "", True, 10 ** 20, -3, np.float64(0.25),
                  np.float64(math.nan)]
        rows = [(pool[i % 8], others[i % 8], str(i), i % 3 == 0, i, np.float64(i / 7),
                 (pool + others)[i % 16]) for i in range(cli._KERNEL_MIN_FLOATS + extra)]
        columns = ["float", "other", "label", "flag", "count", "numpy", "mixed"]
        cells = report_columns(columns, rows)
        expected = csv_report_reference(columns, rows)
        assert emit_report(columns, cells, {}, "csv") == expected
        assert emit_report(columns, [np.array(cells[0]), *cells[1:]], {}, "csv") == expected
        assert len(calls) == 2 * (extra == 0)

    def test_a_sweep_report_stays_within_its_memory_bound(self):
        # a 60 x 60 sweep-times report with NaN and negative R cells, in the
        # float64 columns that sweep-times passes: the buffer, its keep mask
        # and the text set the peak, about 1.3 MB
        rng = np.random.default_rng(7)
        taus = np.linspace(1.0, 60.0, 60)
        R = rng.uniform(-1e-3, 2e-3, 3600)
        R[rng.random(3600) < 0.2] = math.nan
        cells = [np.repeat(taus, 60), np.tile(taus, 60), rng.uniform(1.0, 80.0, 3600), R]
        columns = ["tau_c", "tau_p", "tau_h", "R"]
        emit_report(columns, cells, {}, "csv")  # the digit table, built once
        tracemalloc.start()
        try:
            text = emit_report(columns, cells, {}, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == csv_report_reference(columns, report_rows(cells))
        assert peak < 2.0e6

    def test_a_whole_sweep_run_stays_within_its_memory_bound(self, tmp_path):
        # cli.run("sweep-times") at the default config: the sweep, its report
        # and the write; 1.626 MB when its cells went through a tuple per row
        rc = parse_config("", [f"out={tmp_path / 'sweep.csv'}"])
        assert run("sweep-times", rc, stdout=io.StringIO()) == 0  # the digit table, built once
        tracemalloc.start()
        try:
            assert run("sweep-times", rc, stdout=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.45e6


def run_cli(tmp_path, subcommand, *overrides, fmt="csv"):
    out = tmp_path / f"{subcommand}.{fmt}"
    args = [subcommand, "--out", str(out), "--format", fmt]
    for item in overrides:
        args += ["--set", item]
    code = main(args)
    return code, out


class TestSubcommands:
    def test_branch_rows(self, tmp_path):
        code, out = run_cli(tmp_path, "branch")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "reservoir,tau,dS_eq,Sigma,Q0,Q1,Q"
        assert len(lines) == 4
        reservoirs = [line.split(",")[0] for line in lines[1:]]
        assert reservoirs == ["c", "h", "p"]
        for line in lines[1:]:
            sigma = float(line.split(",")[3])
            assert sigma <= 0.0

    def test_cycle_balanced_by_default(self, tmp_path):
        code, out = run_cli(tmp_path, "cycle", fmt="json")
        assert code == 0
        doc = json.loads(out.read_text())
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert abs(row["work_residual"]) < 1e-8
        assert row["valid"] is True
        assert row["psi"] == pytest.approx(row["Q_c"] / row["Q_h"], rel=1e-12)

    def test_reversible_delta_summary(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "reversible-delta")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        summary = [l for l in lines if l.startswith("delta_c_r = ")]
        assert summary, lines
        value = float(summary[-1].split("=")[1])
        assert value == pytest.approx(0.3492, abs=1e-3)

    def test_ts_diagram_closed_loop(self, tmp_path):
        code, out = run_cli(tmp_path, "ts-diagram", "samples_per_branch=41")
        assert code == 0
        lines = out.read_text().strip().split("\n")[1:]
        entropy = [float(l.split(",")[4]) for l in lines]
        assert abs(entropy[-1] - entropy[0]) < 1e-10

    def test_sweep_times_has_interior_peak(self, tmp_path):
        code, out = run_cli(tmp_path, "sweep-times",
                            "sweep_tau_c_points=30", "sweep_tau_p_points=30")
        assert code == 0
        lines = out.read_text().strip().split("\n")[1:]
        grid = {}
        for line in lines:
            tc, tp, _, R = line.split(",")
            grid[(float(tc), float(tp))] = float(R)
        tcs = sorted({k[0] for k in grid})
        tps = sorted({k[1] for k in grid})
        best = max((v, k) for k, v in grid.items() if not math.isnan(v))
        _, (tc_best, tp_best) = best
        assert tcs[0] < tc_best < tcs[-1]
        assert tps[0] < tp_best < tps[-1]

    def test_optimal_curve_summary(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "optimal-curve")
        assert code == 0
        text = capsys.readouterr().out
        values = {}
        for line in text.strip().split("\n"):
            if " = " in line:
                key, raw = line.split(" = ")
                values[key] = float(raw)
        assert values["psi_at_R_max"] < values["psi_at_chi_max"]
        assert values["R_max"] > 0 and values["chi_max"] > 0

    def test_time_allocation_with_given_alphas(self, tmp_path):
        code, out = run_cli(tmp_path, "time-allocation",
                            "alpha_chi=0.6278", "alpha_r=0.9799", "psi_points=5")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("alpha_label,alpha,psi,tau_total")
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"alpha_chi", "alpha_R"}

    def test_time_allocation_builds_no_curve(self, tmp_path, monkeypatch):
        # the profiles and the sweep that chooses unset alphas read the
        # coefficients; the tau_c grid keys are ignored
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        for given in (("alpha_chi=0.6278", "alpha_r=0.9799"), (), ("alpha_chi=0.6278",),
                      ("alpha_r=0.9799",)):
            code, out = run_cli(tmp_path, "time-allocation", "psi_points=5", *given)
            assert code == 0 and len(out.read_text().splitlines()) == 11
        assert built == []

    def test_time_allocation_rows_hit_their_target_cops(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "time-allocation",
                            "alpha_chi=0.6278", "alpha_r=0.9799", "psi_points=7")
        assert code == 0
        summary = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[1:])
        targets = np.linspace(float(summary["psi_R"]), float(summary["psi_chi"]), 7)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for label in ("alpha_chi", "alpha_R"):
            psis = [float(row[2]) for row in rows if row[0] == label]
            assert psis == pytest.approx(targets.tolist(), rel=1e-9)

    def test_envelope_rows_hit_their_targets_and_serve_both_curves(self, tmp_path,
                                                                  monkeypatch):
        built = []
        monkeypatch.setattr(optimize, "optimal_curve", lambda *args: built.append(args))
        code, out = run_cli(tmp_path, "envelope", "envelope_alpha_points=5",
                            "psi_min=0.06", "psi_max=0.16", "psi_points=9")
        assert code == 0 and built == []
        lines = out.read_text().splitlines()
        assert lines[0] == "curve,alpha,psi,R,chi,tau_c,tau_h,tau_p"
        rows = {"R": [], "chi": []}
        for line in lines[1:]:
            label, rest = line.split(",", 1)
            rows[label].append(rest)
        assert rows["R"] == rows["chi"] and len(rows["R"]) == 9
        psis = [float(row.split(",")[1]) for row in rows["R"]]
        assert psis == pytest.approx(np.linspace(0.06, 0.16, 9).tolist(), rel=1e-9)

    @pytest.mark.parametrize("subcommand, settings, key", [
        ("envelope", ("psi_min=0.3", "psi_max=0.2"), "psi_max"),
        ("envelope", ("psi_min=-0.1", "psi_max=0.1"), "psi_min"),
        ("time-allocation", ("psi_min=0.2", "psi_max=0.1"), "psi_max"),
    ])
    def test_psi_bounds_checked_at_parse_time(self, tmp_path, capsys, monkeypatch,
                                              subcommand, settings, key):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, subcommand, lambda *args: calls.append(args))
        code, out = run_cli(tmp_path, subcommand, *settings)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be > ")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("bound, key", [("psi_min=0.15", "psi_min"),
                                            ("psi_max=0.1", "psi_max")])
    def test_time_allocation_rejects_a_bound_beyond_the_other_end(self, tmp_path, capsys,
                                                                   bound, key):
        # the unset end is a peak COP (0.1139 and 0.1275 at these alphas), so a
        # lone bound past it would make a descending psi grid
        code, out = run_cli(tmp_path, "time-allocation", bound, "alpha_chi=0.6278",
                            "alpha_r=0.9799", "psi_points=4")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
        assert not out.exists()
        code, out = run_cli(tmp_path, "time-allocation", "psi_min=0.12", "alpha_chi=0.6278",
                            "alpha_r=0.9799", "psi_points=4")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        psis = [float(row[2]) for row in rows if row[0] == "alpha_R"]
        assert code == 0 and psis == sorted(psis) and psis[0] == pytest.approx(0.12, rel=1e-9)

    @pytest.mark.parametrize("lo, hi", [(0.05, 0.1), (0.15, 0.18)])
    def test_time_allocation_takes_two_bounds_past_the_peaks(self, tmp_path, lo, hi):
        # both bounds set: the peaks are not the grid's ends, so a grid below
        # both peaks, or above both and below the attainable limit, is valid
        code, out = run_cli(tmp_path, "time-allocation", f"psi_min={lo}", f"psi_max={hi}",
                            "alpha_chi=0.6278", "alpha_r=0.9799", "psi_points=4")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for label in ("alpha_chi", "alpha_R"):
            psis = [float(row[2]) for row in rows if row[0] == label]
            assert psis == pytest.approx(np.linspace(lo, hi, 4).tolist(), rel=1e-9)

    def test_time_allocation_reuses_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the profiles take the sweep's refined coefficients and peak COPs: no
        # alpha's coefficients are computed twice, as in alpha-sweep itself;
        # a call over an array of alphas counts each of them
        calls = {}
        original = cycle.cycle_coefficients

        def counting(config):
            for alpha in np.atleast_1d(config.alpha).tolist():
                calls[alpha] = calls.get(alpha, 0) + 1
            return original(config)

        monkeypatch.setattr(cycle, "cycle_coefficients", counting)
        code, _ = run_cli(tmp_path, "alpha-sweep")
        swept, calls = calls, {}
        assert code == 0 and set(swept.values()) == {1}
        code, _ = run_cli(tmp_path, "time-allocation")
        assert code == 0 and calls == swept
        summary = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        config = TricycleConfig()
        for alpha, peak, psi in (("alpha_r", optimize.max_cooling_rate, "psi_R"),
                                 ("alpha_chi", optimize.max_figure_of_merit, "psi_chi")):
            a = float(summary[alpha])
            coeffs = original(dataclasses.replace(config, alpha=a))
            assert float(summary[psi]) == peak(coeffs, a).psi

    @pytest.mark.parametrize("bound", ["psi_min=0.05", "psi_max=0.1"])
    def test_envelope_rejects_a_lone_psi_bound(self, tmp_path, capsys, bound):
        code, out = run_cli(tmp_path, "envelope", bound)
        assert code == 2
        err = capsys.readouterr().err
        assert "psi_min" in err and "psi_max" in err
        assert not out.exists()

    def test_oracle_check_integrates_sigma_once(self, tmp_path, monkeypatch):
        # Sigma does not depend on tau: one quadrature serves every row, and
        # each row's heats are branch_heat's at its tau, bit for bit
        calls, original = [], thermo.sigma_coefficient
        monkeypatch.setattr(thermo, "sigma_coefficient",
                            lambda branch: calls.append(branch) or original(branch))
        code, out = run_cli(tmp_path, "oracle-check", "oracle_taus=25,50,100")
        assert code == 0 and len(calls) == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        branch = TricycleConfig().branch("c")
        for row, tau in zip(rows, (25.0, 50.0, 100.0), strict=True):
            heat = thermo.branch_heat(branch, tau)
            assert [float(cell) for cell in row[4:7]] == [heat.Q0, heat.Q1, heat.Q]

    @pytest.mark.parametrize("settings, computed", [(("tau_h=12",), 0), ((), 1)])
    def test_ts_diagram_computes_coefficients_only_to_balance(self, tmp_path, monkeypatch,
                                                               settings, computed):
        calls, original = [], cycle.cycle_coefficients
        monkeypatch.setattr(cycle, "cycle_coefficients",
                            lambda config: calls.append(config) or original(config))
        code, _ = run_cli(tmp_path, "ts-diagram", "samples_per_branch=11", *settings)
        assert code == 0 and len(calls) == computed

    def test_oracle_check_small(self, tmp_path):
        code, out = run_cli(tmp_path, "oracle-check", "oracle_taus=100")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["rel_err"]) < 0.01


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path):
        code = main(["cycle", "--set", "bogus=1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_invariant_violation_exits_2(self, tmp_path):
        code = main(["cycle", "--set", "zeta_c=0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unreadable_config_exits_2(self, tmp_path):
        code = main(["cycle", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    def test_infeasible_amplitude_exits_2(self, tmp_path):
        # no balanced tau_h exists below the reversible amplitude
        code = main(["cycle", "--set", "delta_c=0.3", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_too_short_duration_exits_2(self, tmp_path, capsys):
        # the first-order state leaves [0, 1] on the cold branch at tau_c = 9
        out = tmp_path / "ts.csv"
        code = main(["ts-diagram", "--set", "delta_c=0.55", "--set", "alpha=1.3",
                     "--out", str(out)])
        assert code == 2
        assert "outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exits_3_with_diagnostic(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["optimal-curve", "--set", "delta_c=0.3", "--out", str(out)])
        assert code == 3
        diagnostic = tmp_path / "curve.csv.diagnostic.txt"
        assert diagnostic.exists()
        assert "tau_c" in diagnostic.read_text() or "infeasible" in diagnostic.read_text()

    def test_overflowing_grid_points_are_skipped(self, tmp_path):
        # tau_c ** 2 would overflow a float far up the grid; the curve solves
        # in the rates a_v/tau_v, which do not, and skips only tau_c = 0.3
        code = main(["optimal-curve", "--set", "tau_c_max=1e200",
                     "--out", str(tmp_path / "curve.csv")])
        assert code == 0

    def test_overflow_on_every_point_exits_3(self, tmp_path):
        # a_c/tau_c is near the float range here, so K = sum_v T_v dS_v -
        # a_c/tau_c <= 0 and the balance has no positive tau_h at any point
        out = tmp_path / "curve.csv"
        code = main(["optimal-curve", "--set", "tau_c_min=1e-300",
                     "--set", "tau_c_max=1e-200", "--out", str(out)])
        assert code == 3
        text = (tmp_path / "curve.csv.diagnostic.txt").read_text()
        assert "energy balance infeasible for every tau_p at tau_c=1e-300 (tau_c must" in text

    def test_far_grid_solves_every_point_below_the_overflow(self, tmp_path, capsys):
        # geomspace(0.3, 1e200, 120), all below the float range: the first point
        # is below the K > 0 bound; the other 119, the 28 above sqrt(float max)
        # among them, are records, with no RuntimeWarning
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["optimal-curve", "--set", "tau_c_max=1e200", "--out", str(out)])
        assert code == 0 and "(119 rows)" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 120

    def test_scan_without_root_lists_points_with_reasons(self, tmp_path):
        out = tmp_path / "delta.csv"
        code = main(["reversible-delta", "--set", "delta_min=1.0", "--set", "delta_max=2.0",
                     "--out", str(out)])
        assert code == 3
        lines = (tmp_path / "delta.csv.diagnostic.txt").read_text().splitlines()
        points = lines[lines.index("failed grid points:") + 1:]
        assert len(points) == 10  # every 40th of the 400 scan points
        assert points[0] == "  1.0: sum_v Q_v^0 = 1.868e-01, no sign change"
        for line in points:
            point, reason = line.split(": ", 1)
            assert float(point) >= 1.0
            assert reason.startswith("sum_v Q_v^0 = ") and reason.endswith(", no sign change")

    @pytest.mark.parametrize("tau_c_min, tau_c_max", [("1.4e153", "8.9e153"),
                                                      ("1e85", "1e154")])
    def test_far_grid_skips_points_without_warnings(self, tmp_path, capsys, tau_c_min,
                                                    tau_c_max):
        # tau_c^2 nears the float range here; the rates a_v/tau_v that the
        # curve solves in do not, so every point is a record, with no
        # RuntimeWarning
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["optimal-curve", "--set", f"tau_c_min={tau_c_min}",
                         "--set", f"tau_c_max={tau_c_max}", "--out", str(out)])
        assert code == 0 and "skipped_points = 0" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 121

    @pytest.mark.parametrize("setting", ["tau_c_min=-1", "tau_c_min=0", "tau_c_max=-3000"])
    def test_nonpositive_tau_c_bound_exits_2(self, tmp_path, capsys, setting):
        # rejected at parse time: no numpy warning, no report
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["optimal-curve", "--set", setting, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {setting.split('=')[0]} must be > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, setting", [
        ("alpha-sweep", "alpha_points=50"),
        ("time-allocation", "alpha_points=99"),
        ("optimal-curve", "tau_c_points=50"),
        ("envelope", "alpha_min=-2"),
        ("envelope", "alpha_max=1.6"),
        ("alpha-sweep", "alpha_min=-0.6"),
        ("reversible-delta", "delta_min=0"),
        ("reversible-delta", "delta_min=-0.1"),
        ("reversible-delta", "delta_max=0.01"),
        ("reversible-delta", "delta_max=0.005"),
        ("sweep-times", "sweep_tau_c_min=0"),
        ("sweep-times", "sweep_tau_c_max=-60"),
        ("sweep-times", "sweep_tau_p_min=-1"),
        ("sweep-times", "sweep_tau_p_max=0"),
    ])
    def test_grid_rules_exit_2_at_parse_time(self, tmp_path, capsys, monkeypatch,
                                             subcommand, setting):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, subcommand, lambda *args: calls.append(args))
        out = tmp_path / "report.csv"
        code = main([subcommand, "--set", setting, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {setting.split('=')[0]} ")
        assert calls == [] and not out.exists()

    def test_missing_out_directory_exits_2_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, "cycle", lambda *args: calls.append(args))
        out = tmp_path / "no" / "such" / "x.csv"
        code = main(["cycle", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: directory ") and "Traceback" not in err
        assert calls == [] and not (tmp_path / "no").exists()

    def test_out_and_format_flags_are_config_keys(self, tmp_path):
        # the flags reach the report's echoed config, and win over --set
        out = tmp_path / "cycle.json"
        code = main(["cycle", "--set", "format=csv", "--set", f"out={tmp_path / 'x.csv'}",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        config = json.loads(out.read_text())["meta"]["config"]
        assert (config["out"], config["format"]) == (str(out), "json")
        assert not (tmp_path / "x.csv").exists()

    def test_nonpositive_oracle_tau_exits_2_before_integrating(self, tmp_path, capsys,
                                                                monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "propagate", lambda *args: calls.append(args))
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--set", "oracle_taus=100,-5", "--out", str(out)])
        assert code == 2
        assert "oracle_taus" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_underflowing_oracle_step_exits_2(self, tmp_path, capsys):
        # a positive tau whose RK4 step tau / steps underflows to 0.0: the
        # parse-time duration floor rejects it before propagate's own check
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--set", "oracle_taus=5e-324", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle_taus must be at least ")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, key, settings", [
        ("cycle", "tau_c", "tau_c=1e-320 tau_h=5"),
        ("cycle", "tau_h", "tau_h=1e-320"),
        ("branch", "tau_p", "tau_p=4e-310"),
        ("branch", "T_c", "T_c=1e-320"),
        ("oracle-check", "oracle_taus", "oracle_taus=100,1e-320"),
        ("ts-diagram", "tau_c", "tau_c=1e-320"),
        ("optimal-curve", "tau_c_min", "tau_c_min=1e-320"),
        ("optimal-curve", "tau_c_max", "tau_c_max=1e-320"),
        ("sweep-times", "sweep_tau_c_min", "sweep_tau_c_min=1e-320"),
        ("sweep-times", "sweep_tau_c_max", "sweep_tau_c_max=1e-320"),
        ("sweep-times", "sweep_tau_p_min", "sweep_tau_p_min=1e-320"),
        ("sweep-times", "sweep_tau_p_max", "sweep_tau_p_max=1e-320"),
    ])
    def test_subnormal_duration_exits_2_at_parse_time(self, tmp_path, capsys,
                                                      subcommand, key, settings):
        # the reciprocal of a subnormal duration overflows into +-inf heats, an
        # infinite residual or a numpy warning
        out = tmp_path / "report.csv"
        args = [subcommand, "--out", str(out)]
        for setting in settings.split():
            args += ["--set", setting]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {key} must be at least {sys.float_info.min!r}, "
            "the smallest normal float\n")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["branch", "cycle", "optimal-curve"])
    def test_temperature_too_small_for_beta_squared_exits_2(self, tmp_path, capsys,
                                                           subcommand):
        # a normal T_c whose 1/T_c^2 overflows: a config error naming the
        # branch's temperature, not an OverflowError traceback
        out = tmp_path / "report.csv"
        code = main([subcommand, "--set", "T_c=1e-300", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: temperature 1e-300 of branch 'c' is too small: "
            "1/T^2 overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["gamma0=1e-320", "delta_c=1e200"])
    def test_non_finite_sigma_integrand_exits_2_at_once(self, tmp_path, capsys, monkeypatch,
                                                        setting):
        # the integrand overflows to inf or NaN: the first panel level stops
        # the quadrature, with no diagnostic file and no RuntimeWarning
        levels = []
        original = thermo.gauss_legendre_adaptive

        def counting(f):
            return original(lambda s: levels.append(s.size) or f(s))

        monkeypatch.setattr(thermo, "gauss_legendre_adaptive", counting)
        out = tmp_path / "branch.csv"
        code = main(["branch", "--set", setting, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: quadrature estimate not finite at "
            f"{thermo.QUADRATURE_START_PANELS} panels\n")
        assert levels == [8 * thermo.QUADRATURE_START_PANELS]
        assert not out.exists() and not (tmp_path / "branch.csv.diagnostic.txt").exists()

    @pytest.mark.parametrize("subcommand, bounds", [
        ("alpha-sweep", ("alpha_min=1", "alpha_max=1")),
        ("alpha-sweep", ("alpha_min=1.5", "alpha_max=-0.5")),
        ("envelope", ("alpha_min=0.5", "alpha_max=0.2")),
        ("time-allocation", ("alpha_max=-0.5",)),
    ])
    def test_alpha_bounds_are_ordered_at_parse_time(self, tmp_path, capsys, monkeypatch,
                                                    subcommand, bounds):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, subcommand, lambda *args: calls.append(args))
        out = tmp_path / "report.csv"
        args = [subcommand, "--out", str(out)]
        for setting in bounds:
            args += ["--set", setting]
        assert main(args) == 2
        assert capsys.readouterr().err == "config error: alpha_max must be > alpha_min\n"
        assert calls == [] and not out.exists()

    def test_smallest_normal_duration_parses(self):
        for key in ("tau_c", "tau_p", "tau_h", "tau_c_min", "sweep_tau_c_min",
                    "sweep_tau_p_min", "oracle_taus"):
            parse_config("", [f"{key}={sys.float_info.min!r}"])

    @pytest.mark.parametrize("subcommand, settings", [
        ("cycle", "tau_c=2.3e-308 tau_h=5 gamma0=1e-3"),   # Q_c = T (dS + Sigma / tau) overflows
        ("branch", "tau_c=2.3e-308 tau_h=5 gamma0=1e-3"),  # Q1 = T Sigma / tau overflows
    ])
    def test_infinite_heat_or_metric_exits_2(self, tmp_path, capsys, subcommand, settings):
        out = tmp_path / "report.csv"
        args = [subcommand, "--out", str(out)]
        for setting in settings.split():
            args += ["--set", setting]
        assert main(args) == 2
        tau_c = settings.split()[0].split("=")[1]
        assert capsys.readouterr().err == (
            f"config error: durations tau_c={float(tau_c)!r}, tau_h=5.0, tau_p=11.0 "
            "give an infinite heat or cycle metric\n")
        assert not out.exists()

    def test_invalid_cycle_keeps_its_nan_metrics(self, tmp_path):
        # Q_h < 0: psi and chi are NaN, not infinite, and the report is written
        code, out = run_cli(tmp_path, "cycle", "tau_h=0.3")
        assert code == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (row["psi"], row["chi"], row["valid"]) == ("nan", "nan", "false")

    @pytest.mark.parametrize("tau_c", ["0.5", "1e-150", "1e-300"])
    def test_cycle_that_heats_the_cold_bath_is_invalid(self, tmp_path, tau_c):
        # Q_c < 0 < Q_h: the cycle does not refrigerate, so psi and chi are NaN
        # rather than a negative COP and a positive chi = psi * R
        code, out = run_cli(tmp_path, "cycle", f"tau_c={tau_c}", "tau_h=5")
        assert code == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["Q_c"]) < 0.0 < float(row["Q_h"])
        assert float(row["R"]) < 0.0
        assert (row["psi"], row["chi"], row["valid"]) == ("nan", "nan", "false")

    def test_oracle_step_limit_exits_2_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        tracemalloc.start()
        try:
            code = main(["oracle-check", "--set", "oracle_taus=1e9", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: 5.747e+10 steps for "
                                                  "tau=1000000000.0 on branch 'c' exceed ")
        assert not out.exists() and peak < 2 ** 22

    def test_overflowing_oracle_step_count_exits_2(self, tmp_path, capsys):
        # 50 tau rate overflows to inf: a count, not an OverflowError traceback
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--set", "oracle_taus=1e308", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: inf steps for "
                                                  "tau=1e+308 on branch 'c' exceed ")
        assert not out.exists()

    @pytest.mark.parametrize("gamma0", ["1e-300", "1e300"])
    def test_extreme_gamma0_exits_with_a_code(self, tmp_path, capsys, gamma0):
        # at either end of the float range every subcommand ends in a report,
        # a config error or a solver diagnostic: no traceback, no numpy message
        for subcommand in cli._RUNNERS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([subcommand, "--set", f"gamma0={gamma0}",
                             "--out", str(tmp_path / f"{subcommand}.csv")])
            assert code in (0, 2, 3), subcommand
            assert "Array must not contain" not in capsys.readouterr().err, subcommand

    def test_optimal_curve_peaks_only_rescale_with_gamma0(self, tmp_path, capsys):
        # gamma0 is a rate: with the tau_c grid scaled by 1/gamma0, the peak
        # COPs stay and R_max and chi_max scale with gamma0
        def summary(gamma0):
            code = main(["optimal-curve", "--set", f"gamma0={gamma0!r}",
                         "--set", f"tau_c_min={0.3 / gamma0!r}",
                         "--set", f"tau_c_max={3000.0 / gamma0!r}",
                         "--out", str(tmp_path / "curve.csv")])
            assert code == 0, gamma0
            return {key: float(value) for key, value in (
                line.split(" = ") for line in capsys.readouterr().out.splitlines()
                if " = " in line)}

        base = summary(1.0)
        for gamma0 in (1e-150, 1e-100, 1e100, 1e150):
            scaled = summary(gamma0)
            for key in ("psi_at_R_max", "psi_at_chi_max"):
                assert scaled[key] == pytest.approx(base[key], rel=1e-13)
            for key in ("R_max", "chi_max"):
                assert scaled[key] == pytest.approx(gamma0 * base[key], rel=1e-13)

    @pytest.mark.parametrize("gamma0", [1e-300, 1e-200, 1e200, 1e300])
    def test_curve_envelope_and_profile_only_rescale_with_extreme_gamma0(self, tmp_path,
                                                                          gamma0):
        # the curve and the fixed-COP points solve in the rates a_v/tau_v, so
        # with the tau_c grid scaled by 1/gamma0 each report keeps its COPs
        # and its durations scale with 1/gamma0
        runs = {"optimal-curve": lambda g: [f"tau_c_min={0.3 / g!r}", f"tau_c_max={3000.0 / g!r}"],
                "envelope": lambda g: ["envelope_alpha_points=7"],
                "time-allocation": lambda g: ["alpha_r=0.2", "alpha_chi=0.4"]}

        def report(subcommand, gamma0):
            out = tmp_path / f"{subcommand}.csv"
            argv = [subcommand, "--set", f"gamma0={gamma0!r}", "--out", str(out)]
            for setting in runs[subcommand](gamma0):
                argv += ["--set", setting]
            assert main(argv) == 0, (subcommand, gamma0)
            with open(out, newline="") as handle:
                return list(csv.DictReader(handle))

        for subcommand in runs:
            base, scaled = report(subcommand, 1.0), report(subcommand, gamma0)
            assert len(scaled) == len(base) > 0
            for key, f in (("psi", 1.0), ("tau_c", gamma0), ("tau_h", gamma0), ("tau_p", gamma0)):
                assert [float(row[key]) * f for row in scaled] == pytest.approx(
                    [float(row[key]) for row in base], rel=1e-9), (subcommand, key)

    @pytest.mark.parametrize("gamma0", [1e-300, 1e-200, 1e200, 1e300])
    def test_alpha_sweep_peaks_only_rescale_with_extreme_gamma0(self, tmp_path, capsys,
                                                                 gamma0):
        # the stationarity residual is taken in duration ratios, so the peak
        # records pass its check at any time scale
        def summary(gamma0):
            code = main(["alpha-sweep", "--set", f"gamma0={gamma0!r}",
                         "--out", str(tmp_path / "alphas.csv")])
            assert code == 0, gamma0
            return {key: float(value) for key, value in (
                line.split(" = ") for line in capsys.readouterr().out.splitlines()
                if " = " in line)}

        base, scaled = summary(1.0), summary(gamma0)
        assert [scaled["alpha_r"], scaled["alpha_chi"], scaled["skipped_points"]] == \
            [base["alpha_r"], base["alpha_chi"], 0.0]
        for key in ("R_max", "chi_max"):
            assert scaled[key] / gamma0 == pytest.approx(base[key], rel=1e-15)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_reports_take_the_mode_of_a_plain_open(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            code, out = run_cli(tmp_path, "branch")
            failed = main(["optimal-curve", "--set", "delta_c=0.3",
                           "--out", str(tmp_path / "curve.csv")])
        finally:
            os.umask(old)
        diagnostic = tmp_path / "curve.csv.diagnostic.txt"
        assert (code, failed) == (0, 3)
        assert [stat.S_IMODE(path.stat().st_mode) for path in (out, diagnostic)] == [mode] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "branch.csv", "curve.csv.diagnostic.txt"]  # no temporary file left

    def test_reports_leave_the_umask_alone(self, tmp_path, monkeypatch):
        # the temporary report is created with mode 0666 for the kernel to
        # mask: the umask, which every thread of the process shares, is never
        # set, not even to read it
        def umask(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", umask)
        code, out = run_cli(tmp_path, "branch")
        assert code == 0 and out.exists()

    def test_a_failed_write_leaves_the_old_report_and_no_temporary_file(self, tmp_path):
        out = tmp_path / "branch.csv"
        out.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no encoding
            cli._write_atomic(str(out), "new\ud800\n")
        assert [p.name for p in tmp_path.iterdir()] == ["branch.csv"]
        assert out.read_text() == "old\n"

    def test_a_taken_temporary_name_is_drawn_again(self, tmp_path, monkeypatch):
        draws = iter([bytes(8), bytes(8), b"\x01" * 8])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        taken = tmp_path / f".qtricycle-{bytes(8).hex()}.tmp"
        taken.write_text("another writer's\n")
        cli._write_atomic(str(tmp_path / "branch.csv"), "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "branch.csv"]
        assert taken.read_text() == "another writer's\n"
        assert (tmp_path / "branch.csv").read_text() == "new\n"

    def test_reports_are_deterministic(self, tmp_path):
        _, first = run_cli(tmp_path, "branch")
        text_a = first.read_text()
        os.unlink(first)
        _, second = run_cli(tmp_path, "branch")
        assert second.read_text() == text_a


# One cheap run of every subcommand: given alphas skip time-allocation's sweep,
# so alpha-sweep's minimum grid dominates the cost.
CHEAP_SETTINGS = ["alpha_chi=0.6278", "alpha_r=0.9799", "envelope_alpha_points=5",
                  "oracle_taus=100", "sweep_tau_c_points=6", "sweep_tau_p_points=6",
                  "delta_points=20", "psi_points=5", "samples_per_branch=11",
                  "tau_c_points=100", "alpha_points=100"]


# The float columns that reach emit_report as float64 arrays, by subcommand.
ARRAY_COLUMNS = {"sweep-times": ["tau_c", "tau_p", "tau_h", "R"],
                 "ts-diagram": ["s", "omega", "T_eff", "S"],
                 "reversible-delta": ["delta_c", "q0_sum"]}


def cells_agree(text, value):
    """A CSV cell and the JSON value of the same cell say the same thing (JSON
    spells an infinite cell as CSV does, as a string)."""
    if value is None:
        return text == "nan"
    if isinstance(value, bool):  # before int: bool subclasses int
        return text == str(value).lower()
    if isinstance(value, (str, int)):
        return text == str(value)
    return float(text) == value


def assert_csv_and_json_agree(columns, rows, text, doc):
    """Assert that CSV ``text`` and JSON ``doc`` render the same report;
    returns the types of the JSON cells."""
    csv_lines = text.splitlines()
    assert csv_lines[0].split(",") == doc["columns"] == list(columns)
    assert len(csv_lines) - 1 == len(doc["rows"]) == len(rows) > 0
    seen = set()
    for line, row in zip(csv_lines[1:], doc["rows"]):
        cells = line.split(",")
        assert len(cells) == len(row)
        for text, value in zip(cells, row):
            assert cells_agree(text, value), (text, value)
            seen.add(type(value))
    return seen


class TestReportsThroughBothEmitters:
    def test_csv_and_json_agree_on_every_report(self, tmp_path, monkeypatch):
        seen = set()
        runners = dict(cli._RUNNERS)
        for k, subcommand in enumerate(runners):
            produced = []

            def capture(rc, config, runner=runners[subcommand], produced=produced):
                produced.append(runner(rc, config))
                return produced[-1]

            monkeypatch.setitem(cli._RUNNERS, subcommand, capture)
            out = tmp_path / f"{k}-{subcommand}.json"
            stdout = io.StringIO()
            rc = parse_config("", CHEAP_SETTINGS + [f"out={out}", "format=json"])
            assert run(subcommand, rc, stdout=stdout) == 0
            [(columns, cells, summary)] = produced  # one computation per subcommand
            # a column per name, all of one length; array code's float columns
            # arrive as float64 arrays, every other column holds Python scalars
            # only: no None or numpy cells
            assert len(cells) == len(columns), subcommand
            assert len({len(column) for column in cells}) == 1, subcommand
            arrays = [name for name, column in zip(columns, cells)
                      if isinstance(column, np.ndarray)]
            assert arrays == ARRAY_COLUMNS.get(subcommand, []), subcommand
            for column in cells:
                if isinstance(column, np.ndarray):
                    assert column.dtype == np.float64 and column.ndim == 1, subcommand
                else:
                    assert {type(v) for v in column} <= {str, int, float, bool}, subcommand
            assert {type(v) for v in summary.values()} <= {int, float}, subcommand
            rows = report_rows(cells)
            for value in rc.values.values():
                parts = value if type(value) is tuple else (value,)
                assert {type(v) for v in parts} <= {str, int, float, type(None)}

            doc = json.loads(out.read_text())
            text = emit_report(columns, cells, doc["meta"], "csv")
            assert text == csv_report_reference(columns, rows), subcommand
            seen |= assert_csv_and_json_agree(columns, rows, text, doc)

            printed = stdout.getvalue().splitlines()
            assert printed[0] == f"wrote {out} ({len(rows)} rows)"
            lines = dict(line.split(" = ", 1) for line in printed[1:])
            assert list(lines) == list(summary)
            assert set(lines) == set(doc["meta"]["summary"])
            for key, text in lines.items():
                assert cells_agree(text, doc["meta"]["summary"][key]), (subcommand, key)
        assert seen == {str, float, int, bool, type(None)}

    def test_infinite_cells_agree(self):
        # JSON spells an infinite cell as CSV does, and a NaN cell as null
        columns = ["a", "b", "c", "d"]
        rows = [(1.5, math.inf, -math.inf, math.nan)]
        for cells in (report_columns(columns, rows), [np.array(c) for c in zip(*rows)]):
            doc = json.loads(emit_report(columns, cells, {"x": math.inf}, "json"))
            text = emit_report(columns, cells, {}, "csv")
            assert assert_csv_and_json_agree(columns, rows, text, doc) == \
                {float, str, type(None)}
            assert doc["rows"] == [[1.5, "inf", "-inf", None]]
            assert doc["meta"] == {"x": "inf"}
