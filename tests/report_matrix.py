"""Run every subcommand on the four standard configs, in CSV and JSON.

Usage: python tests/report_matrix.py SRC OUTDIR

SRC is the package's source directory (the one holding ``qtricycle/``);
OUTDIR, created if missing, receives one directory per config and format,
``<config>-<format>/``, holding each subcommand's report and a
``<subcommand>.log`` with its exit code, stdout and stderr.  Reports are
written to relative ``--out`` paths from inside OUTDIR, and SRC is replaced
by ``SRC`` in the logs, so the output of two source trees can be compared
with ``diff -r``.

Exits 1 when a run ends with an unexpected exit code: every run must exit 0,
except the c2 ``ts-diagram``, whose balanced tau_h is too short for the
first-order state (``PositivityError``, exit 2).
"""

import contextlib
import io
import os
import sys
import warnings

# The default operating point and the three configs that the report checks
# have used since the sweep grids became array work.
CONFIGS = {
    "c0": [],
    "c1": ["delta_c=0.62", "gamma0=1.2", "alpha=0.7", "tau_c=20", "tau_p=35",
           "oracle_branch=h"],
    "c2": ["delta_c=0.75", "gamma0=1.45", "alpha=-0.3", "tau_c=45", "tau_p=18",
           "oracle_branch=p"],
    "c3": ["delta_c=0.55", "gamma0=1.05", "alpha=1.3", "tau_c=30", "tau_p=55",
           "oracle_branch=c"],
}
EXPECTED_EXIT = {("c2", "ts-diagram"): 2}


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, outdir = (os.path.abspath(path) for path in argv)
    sys.path.insert(0, src)
    from qtricycle import cli

    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    unexpected = []
    for name, settings in CONFIGS.items():
        for fmt in ("csv", "json"):
            folder = f"{name}-{fmt}"
            os.makedirs(folder, exist_ok=True)
            for subcommand in cli._RUNNERS:
                argv = [subcommand, "--out", f"{folder}/{subcommand}.{fmt}",
                        "--format", fmt]
                for setting in settings:
                    argv += ["--set", setting]
                out, err = io.StringIO(), io.StringIO()
                # a fresh filter list per run, so a warning shows every time
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("default")
                    code = cli.main(argv)
                log = (f"exit {code}\n--- stdout\n{out.getvalue()}"
                       f"--- stderr\n{err.getvalue()}").replace(src, "SRC")
                with open(f"{folder}/{subcommand}.log", "w") as handle:
                    handle.write(log)
                if code != EXPECTED_EXIT.get((name, subcommand), 0):
                    unexpected.append(f"{folder} {subcommand}: exit {code}")
    for line in unexpected:
        print(f"unexpected exit code: {line}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
