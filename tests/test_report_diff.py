"""``tests/report_diff.py`` on two small hand-made report trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, R="1.00000000000000000e+00", psi="5.0e-01", label="a"):
    (root / "c0-csv").mkdir(parents=True)
    (root / "c0-csv" / "optimal-curve.csv").write_text(f"label,R,psi\n{label},{R},{psi}\n")
    (root / "c0-csv" / "optimal-curve.log").write_text(
        f"exit 0\n--- stdout\nwrote x (1 rows)\nR_max = {R}\n--- stderr\n")
    doc = {"meta": {"summary": {"R_max": float(R)}}, "columns": ["R"], "rows": [[float(R)]]}
    (root / "c0-csv" / "optimal-curve.json").write_text(json.dumps(doc))
    return str(root)


def test_identical_trees_print_nothing(report_diff, tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out == ""


def test_numeric_changes_are_counted_per_subcommand_and_key(report_diff, tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", R="1.00000000000000020e+00", psi="5.5e-01")
    problems, changed = report_diff.compare(a, b)
    assert problems == []
    # R: the CSV cell, the JSON row; summary.R_max: the log line, the JSON meta
    assert changed.keys() == {("optimal-curve", "R"), ("optimal-curve", "psi"),
                              ("optimal-curve", "summary.R_max")}
    assert changed["optimal-curve", "R"][0] == 2
    assert changed["optimal-curve", "summary.R_max"][0] == 2
    assert changed["optimal-curve", "R"][1] == pytest.approx(2e-16, rel=1e-3)
    assert changed["optimal-curve", "psi"] == [1, pytest.approx(0.05 / 0.55)]


@pytest.mark.parametrize("change", [{"label": "b"}, {"psi": "none"}, {"R": "nan"}])
def test_non_numeric_change_fails(report_diff, tmp_path, capsys, change):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b", **change)
    assert report_diff.main([a, b]) == 1
    assert "->" in capsys.readouterr().out


def test_file_on_one_side_only_fails(report_diff, tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    (tmp_path / "b" / "c0-csv" / "optimal-curve.log").unlink()
    assert report_diff.main([a, b]) == 1
    assert capsys.readouterr().out == f"only in {a}: c0-csv/optimal-curve.log\n"


def test_different_keys_fail(report_diff, tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    (tmp_path / "b" / "c0-csv" / "optimal-curve.csv").write_text("label,R\na,1.0\n")
    assert report_diff.main([a, b]) == 1
    assert "different keys" in capsys.readouterr().out
