"""Run every subcommand on the eight standard configs, in CSV and JSON.

Usage: python tests/report_matrix.py SRC OUTDIR

SRC is the package's source directory (the one holding ``qtricycle/``);
OUTDIR, created if missing, receives one directory per config and format,
``<config>-<format>/``, holding each subcommand's report and a
``<subcommand>.log`` with its exit code, stdout and stderr.  Reports are
written to relative ``--out`` paths from inside OUTDIR, and SRC is replaced
by ``SRC`` in the logs, so the output of two source trees can be compared
with ``diff -r``.

Each run's wall time, that of its ``cli.main`` call, goes to stdout as one
``<config>-<format> <subcommand> <seconds> s`` line, and nowhere into OUTDIR,
so ``diff -r`` stays the check that reports kept their bytes.

Exits 1 when a run ends with an unexpected exit code: every run must exit 0,
except the c2 ``ts-diagram``, whose balanced tau_h is too short for the
first-order state (``PositivityError``, exit 2; see ``EXPECTED_EXIT``).  An
exception that escapes ``cli.main`` is logged, with its type and message, as
such an exit, and the matrix carries on; a run listed in ``EXPECTED_EXIT``
that starts to exit 0 is unexpected too, so an entry cannot go stale.
"""

import contextlib
import io
import os
import sys
import time
import traceback
import warnings

# The default operating point, the three configs that the report checks have
# used since the sweep grids became array work, the default point on a tau_c
# grid out to 1e200, whose curve reaches the float range (c4), and the default
# point with gamma0 = 1e100 and every duration scaled by 1e-100 (c5): gamma0
# only rescales time, so c5's runs succeed as c0's do.  c6 is c5 at
# gamma0 = 1e300 with every duration scaled by 1e-300, where the squares of raw
# durations underflow: every solve works in the rates a_v/tau_v and the
# stationarity residual in duration ratios, so c6's runs exit 0 wherever c5's do.
# c7 is the default point at alpha = 0.5, where numpy's ``**`` with a scalar
# exponent takes a square root instead of ``pow``, so the reports see the rule
# by which every Sigma power is taken.
CONFIGS = {
    "c0": [],
    "c1": ["delta_c=0.62", "gamma0=1.2", "alpha=0.7", "tau_c=20", "tau_p=35",
           "oracle_branch=h"],
    "c2": ["delta_c=0.75", "gamma0=1.45", "alpha=-0.3", "tau_c=45", "tau_p=18",
           "oracle_branch=p"],
    "c3": ["delta_c=0.55", "gamma0=1.05", "alpha=1.3", "tau_c=30", "tau_p=55",
           "oracle_branch=c"],
    "c4": ["tau_c_max=1e200"],
    "c5": ["gamma0=1e100", "tau_c=9e-100", "tau_p=1.1e-99", "tau_c_min=3e-101",
           "tau_c_max=3e-97", "sweep_tau_c_min=1e-100", "sweep_tau_c_max=6e-99",
           "sweep_tau_p_min=1e-100", "sweep_tau_p_max=6e-99",
           "oracle_taus=1e-98,2e-98,4e-98"],
    "c6": ["gamma0=1e300", "tau_c=9e-300", "tau_p=1.1e-299", "tau_c_min=3e-301",
           "tau_c_max=3e-297", "sweep_tau_c_min=1e-300", "sweep_tau_c_max=6e-299",
           "sweep_tau_p_min=1e-300", "sweep_tau_p_max=6e-299",
           "oracle_taus=1e-298,2e-298,4e-298"],
    "c7": ["alpha=0.5"],
}
EXPECTED_EXIT = {
    ("c2", "ts-diagram"): 2,
}


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
                    start = time.perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # a crash is one more unexpected exit
                        traceback.print_exc()
                        code = f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - start
                print(f"{folder} {subcommand} {elapsed:.4f} s")
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
