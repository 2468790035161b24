"""``tests/report_matrix.py`` on one config and two stand-in subcommands."""

import importlib.util
import sys
from pathlib import Path

from qtricycle import cli

SCRIPT = Path(__file__).resolve().parent / "report_matrix.py"


def _load_matrix():
    spec = importlib.util.spec_from_file_location("report_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_crash_is_logged_as_an_unexpected_exit(tmp_path, monkeypatch, capsys):
    module = _load_matrix()

    def crash(rc, config):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(module, "CONFIGS", {"c0": []})
    monkeypatch.setattr(cli, "_RUNNERS", {"crash": crash, "branch": cli._RUNNERS["branch"]})
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.chdir(tmp_path)  # the matrix changes into its OUTDIR
    monkeypatch.setattr(sys, "path", list(sys.path))  # and puts SRC first
    assert module.main([src, str(tmp_path / "matrix")]) == 1
    for fmt in ("csv", "json"):
        folder = tmp_path / "matrix" / f"c0-{fmt}"
        log = (folder / "crash.log").read_text()
        assert log.startswith("exit ZeroDivisionError: float division by zero\n")
        assert "Traceback" in log
        assert (folder / "branch.log").read_text().startswith("exit 0\n")
        assert (folder / f"branch.{fmt}").exists()
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"unexpected exit code: c0-{fmt} crash: exit ZeroDivisionError: float division by zero"
        for fmt in ("csv", "json")]
    # one wall time per run, on stdout only: OUTDIR holds the reports and logs
    times = [line.split(" ") for line in captured.out.splitlines()]
    assert [t[:2] for t in times] == [[f"c0-{fmt}", name] for fmt in ("csv", "json")
                                      for name in ("crash", "branch")]
    assert all(float(t[2]) >= 0.0 and t[3] == "s" for t in times)
    assert sorted(p.name for p in (tmp_path / "matrix" / "c0-csv").iterdir()) == [
        "branch.csv", "branch.log", "crash.log"]


def test_an_expected_failure_that_succeeds_is_unexpected(tmp_path, monkeypatch, capsys):
    # c2's ts-diagram is expected to exit 2; once it exits 0 the entry is stale
    module = _load_matrix()
    assert module.EXPECTED_EXIT == {("c2", "ts-diagram"): 2}
    monkeypatch.setattr(module, "CONFIGS", {"c2": []})
    monkeypatch.setattr(cli, "_RUNNERS", {"ts-diagram": lambda rc, config: (
        ["x"], [(1.0,)], {})})
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert module.main([src, str(tmp_path / "matrix")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"unexpected exit code: c2-{fmt} ts-diagram: exit 0" for fmt in ("csv", "json")]
