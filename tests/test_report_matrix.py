"""``tests/report_matrix.py`` on one config and two stand-in subcommands."""

import importlib.util
import sys
from pathlib import Path

from qtricycle import cli

SCRIPT = Path(__file__).resolve().parent / "report_matrix.py"


def test_a_crash_is_logged_as_an_unexpected_exit(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("report_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

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
    assert capsys.readouterr().err.splitlines() == [
        f"unexpected exit code: c0-{fmt} crash: exit ZeroDivisionError: float division by zero"
        for fmt in ("csv", "json")]
