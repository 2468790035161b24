import json
import math
import os
import warnings

import numpy as np
import pytest

from qtricycle import optimize
from qtricycle.cli import (
    ReportPayload,
    RunConfig,
    emit_report,
    main,
    parse_config,
    run,
)
from qtricycle.errors import ConfigError


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


class TestEmitReport:
    @pytest.fixture
    def payload(self):
        return ReportPayload(
            columns=["name", "x"],
            rows=[("a", 0.1), ("b", float("nan"))],
            meta={"tool": "qtricycle", "version": "test", "config": {"T_c": 0.2}},
            summary={"best": 0.1},
        )

    def test_csv_shape_and_precision(self, payload):
        text = emit_report(payload, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "name,x"
        assert lines[1].split(",")[1] == f"{0.1:.17e}"
        assert lines[2].split(",")[1] == "nan"

    def test_byte_stable(self, payload):
        assert emit_report(payload, "csv") == emit_report(payload, "csv")
        assert emit_report(payload, "json") == emit_report(payload, "json")

    def test_json_round_trips_csv_values(self, payload):
        doc = json.loads(emit_report(payload, "json"))
        csv_lines = emit_report(payload, "csv").strip().split("\n")[1:]
        for row, line in zip(doc["rows"], csv_lines):
            parsed = line.split(",")[1]
            if row[1] is None:
                assert parsed == "nan"
            else:
                assert abs(float(parsed) - row[1]) <= 1e-15 * abs(row[1])

    def test_json_meta_echoes_config(self, payload):
        doc = json.loads(emit_report(payload, "json"))
        assert doc["meta"]["config"]["T_c"] == 0.2
        assert doc["meta"]["summary"]["best"] == 0.1


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

    def test_time_allocation_builds_each_curve_once(self, tmp_path, monkeypatch):
        built = []
        original = optimize.optimal_curve

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimize, "optimal_curve", counting)
        code, _ = run_cli(tmp_path, "time-allocation",
                          "alpha_chi=0.6278", "alpha_r=0.9799", "psi_points=5")
        assert code == 0
        assert len(built) == 2

        # Without given alphas the report reads both curves from the sweep,
        # which builds one curve per alpha it visits.
        built.clear()
        code, _ = run_cli(tmp_path, "time-allocation", "psi_points=5")
        assert code == 0
        alphas = [config.alpha for config, *_ in built]
        assert len(alphas) > 100
        assert len(set(alphas)) == len(alphas)

    @pytest.mark.parametrize("bound", ["psi_min=0.05", "psi_max=0.1"])
    def test_envelope_rejects_a_lone_psi_bound(self, tmp_path, capsys, bound):
        code, out = run_cli(tmp_path, "envelope", bound)
        assert code == 2
        err = capsys.readouterr().err
        assert "psi_min" in err and "psi_max" in err
        assert not out.exists()

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
        # tau_c ** 2 overflows a float far up the grid; those points are skipped
        code = main(["optimal-curve", "--set", "tau_c_max=1e200",
                     "--out", str(tmp_path / "curve.csv")])
        assert code == 0

    def test_overflow_on_every_point_exits_3(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["optimal-curve", "--set", "tau_c_min=1e-300",
                     "--set", "tau_c_max=1e-200", "--out", str(out)])
        assert code == 3
        text = (tmp_path / "curve.csv.diagnostic.txt").read_text()
        assert "overflow at tau_c=1e-300" in text

    @pytest.mark.parametrize("tau_c_min, tau_c_max", [("1.4e153", "8.9e153"),
                                                      ("1e85", "1e154")])
    def test_far_grid_skips_points_without_warnings(self, tmp_path, tau_c_min, tau_c_max):
        # the quartic's coefficients stay finite here, but its companion matrix
        # or its value at a root overflows; such points are skipped with a reason
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["optimal-curve", "--set", f"tau_c_min={tau_c_min}",
                         "--set", f"tau_c_max={tau_c_max}", "--out", str(out)])
        assert code in (0, 3)
        diagnostic = tmp_path / "curve.csv.diagnostic.txt"
        if code == 3:
            assert "tau_c=" in diagnostic.read_text()

    def test_reports_are_deterministic(self, tmp_path):
        _, first = run_cli(tmp_path, "branch")
        text_a = first.read_text()
        os.unlink(first)
        _, second = run_cli(tmp_path, "branch")
        assert second.read_text() == text_a
