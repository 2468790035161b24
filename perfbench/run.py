"""qtricycle benchmark: one workload, one seed, one closed-loop client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of that checkout and driven through
its public CLI entry ``qtricycle.cli.run`` in this one warm process; each
op is timed from outside and its report re-read and checked.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).

End-to-end times are scaled to a nominal host speed: a fixed reference
kernel, independent of the program, is timed between ops and launches, and
each time is multiplied by ``GAUGE_NOMINAL_S`` over the kernel time around
it.  On a shared host whose speed drifts by tens of percent over minutes
this keeps runs of the same code comparable; the raw times are printed
beside the scaled ones.
"""

import os

# Pin every thread pool before numpy is imported, here and in the child
# interpreters that measure set-up time.
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "TRICYCLE_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, compare_reference, format_override, op_stream, parse_summary,
    read_report,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

SETUP_LAUNCHES = 11
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
# Reference-kernel time that defines the nominal host speed; scaled times
# read as seconds on a host where one gauge reading takes this long.
GAUGE_NOMINAL_S = 0.001
GAUGE_REPEATS = 3

# A fresh interpreter imports the CLI, parses one op's config and reports
# the time it got there.  time.monotonic() reads the system-wide
# CLOCK_MONOTONIC, so it compares with the parent's launch time; reading the
# end in the child avoids the up-to-50 ms polling of Popen.wait(timeout).
SETUP_CHILD = (
    "import os, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qtricycle.cli as cli\n"
    "cli.parse_config('', overrides=sys.argv[2:])\n"
    "print(repr(time.monotonic()), flush=True)\n"
    "os._exit(0)\n"
)

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}

# name -> (span name, stat, unit); stats are per traced op except fractions.
PER_LAYER = {
    "optimize.solve_time_allocation.calls": ("optimize.solve_time_allocation", "calls", "count/op"),
    "optimize.solve_time_allocation.self_s": ("optimize.solve_time_allocation", "self_s", "s/op"),
    "optimize.solve_time_allocation.failed": ("optimize.solve_time_allocation", "failed", "count/op"),
    "optimize.solve_time_allocation.roots": ("optimize.solve_time_allocation", "roots", "count/op"),
    "optimize.solve_time_allocation.yield": ("optimize.solve_time_allocation", "yield", "frac"),
    "optimize.solve_time_allocation.incl_frac": ("optimize.solve_time_allocation", "incl_frac", "frac"),
    "optimize.optimal_curve.calls": ("optimize.optimal_curve", "calls", "count/op"),
    "optimize.optimal_curve.self_s": ("optimize.optimal_curve", "self_s", "s/op"),
    "optimize.optimal_curve.skipped": ("optimize.optimal_curve", "skipped", "count/op"),
    "optimize.max_cooling_rate.self_s": ("optimize.max_cooling_rate", "self_s", "s/op"),
    "optimize.max_figure_of_merit.self_s": ("optimize.max_figure_of_merit", "self_s", "s/op"),
    "optimize.free_time_sweep.self_s": ("optimize.free_time_sweep", "self_s", "s/op"),
    "oracle.propagate.calls": ("oracle.propagate", "calls", "count/op"),
    "oracle.propagate.self_s": ("oracle.propagate", "self_s", "s/op"),
    "oracle.propagate.steps": ("oracle.propagate", "steps", "count/op"),
    "oracle.propagate.incl_frac": ("oracle.propagate", "incl_frac", "frac"),
    "oracle.heat_via_trajectory.self_s": ("oracle.heat_via_trajectory", "self_s", "s/op"),
    "lindblad.liouvillian.calls": ("lindblad.liouvillian", "calls", "count/op"),
    "cycle.zeroth_heat_sum.calls": ("cycle.zeroth_heat_sum", "calls", "count/op"),
    "cycle.zeroth_heat_sum.self_s": ("cycle.zeroth_heat_sum", "self_s", "s/op"),
    "cycle.reversible_amplitude.self_s": ("cycle.reversible_amplitude", "self_s", "s/op"),
    "thermo.ts_trajectory.self_s": ("thermo.ts_trajectory", "self_s", "s/op"),
    "thermo.perturbed_state.calls": ("thermo.perturbed_state", "calls", "count/op"),
    "cycle.cycle_coefficients.calls": ("cycle.cycle_coefficients", "calls", "count/op"),
    "cycle.cycle_coefficients.self_s": ("cycle.cycle_coefficients", "self_s", "s/op"),
    "thermo.gauss_legendre_adaptive.calls": ("thermo.gauss_legendre_adaptive", "calls", "count/op"),
    "thermo.gauss_legendre_adaptive.points": ("thermo.gauss_legendre_adaptive", "points", "count/op"),
    "thermo.gauss_legendre_adaptive.self_s": ("thermo.gauss_legendre_adaptive", "self_s", "s/op"),
    "thermo.branch_heat.self_s": ("thermo.branch_heat", "self_s", "s/op"),
    "cli.parse_config.self_s": ("cli.parse_config", "self_s", "s/op"),
    "cli.run.self_s": ("cli.run", "self_s", "s/op"),
    "cli.emit_report.self_s": ("cli.emit_report", "self_s", "s/op"),
    "cli.emit_report.bytes": ("cli.emit_report", "bytes", "B/op"),
    "trace.overhead_frac": (None, "overhead_frac", "frac"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import qtricycle from this checkout's src/, never from elsewhere."""
    if not (SRC / "qtricycle" / "cli.py").is_file():
        fail(f"no qtricycle sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qtricycle
    import qtricycle.cli
    if Path(qtricycle.__file__).resolve().parent != SRC / "qtricycle":
        fail(f"imported qtricycle from {qtricycle.__file__}, not {SRC}")
    return qtricycle


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def reference_kernel():
    """Fixed work in the mix the program does: a Python float loop, numpy
    calls on small arrays and 4x4 complex matrix-vector products."""
    total = 0.0
    for i in range(1, 4001):
        total += math.sqrt(i) / i
    grid = np.linspace(0.05, 1.0, 201)
    for _ in range(40):
        grid = np.tanh(grid) + 0.05 * np.cos(grid)
    mat = np.eye(4, dtype=complex) * -0.1 + 0.01j
    vec = np.ones(4, dtype=complex)
    for _ in range(300):
        vec = vec + 0.01 * (mat @ vec)
    return total + float(grid.sum()) + abs(vec.sum())


class HostGauge:
    """Host speed read off the reference kernel, between timed intervals.

    ``factor()`` reads the gauge again and returns the scale for the
    interval since the previous reading: GAUGE_NOMINAL_S over the mean of
    the readings on either side.  Each reading is the fastest of
    GAUGE_REPEATS kernel runs.
    """

    def __init__(self):
        reference_kernel()  # warm up
        self.last = self.read()
        self.readings = [self.last]

    @staticmethod
    def read():
        best = math.inf
        for _ in range(GAUGE_REPEATS):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def factor(self):
        before, self.last = self.last, self.read()
        self.readings.append(self.last)
        return GAUGE_NOMINAL_S / (0.5 * (before + self.last))


def measure_setup(override_args, gauge):
    """Median (scaled, raw) time from launching a fresh interpreter to its
    parsed config."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), *override_args]

    def launch():
        start = time.monotonic()
        done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        return float(done.stdout) - start

    launch()  # warm the file cache
    gauge.factor()
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        raw.append(launch())
        scaled.append(raw[-1] * gauge.factor())
    return statistics.median(scaled), statistics.median(raw)


class OpRunner:
    """Runs one op through cli.parse_config + cli.run and checks its reports."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir

    def override_args(self, params):
        return [format_override(k, v) for k, v in self.workload.overrides(params).items()]

    def execute(self, params, gauge=None):
        """Run every subcommand of the op.

        Returns ((raw seconds, scaled seconds), stdout per subcommand,
        error).  With a gauge, it is read after each subcommand, outside the
        timed intervals, and each subcommand is scaled on its own.
        """
        args = self.override_args(params)
        captured = {}
        raw = scaled = 0.0
        error = None
        for sub in self.workload.subcommands:
            start = time.perf_counter()
            try:
                out = self.workdir / f"{sub}.csv"
                rc = self.cli.parse_config("", overrides=args + [f"out={out}"])
                buf = io.StringIO()
                code = self.cli.run(sub, rc, stdout=buf)
                captured[sub] = buf.getvalue()
                if code != 0:
                    error = f"{sub} exited {code}"
            except Exception as exc:  # an exception escaping cli.run is a failed op
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            raw += seconds
            scaled += seconds * (gauge.factor() if gauge else 1.0)
            if error:
                break
        return (raw, scaled), captured, error

    def outputs(self, captured):
        return {sub: (read_report(self.workdir / f"{sub}.csv"), parse_summary(captured[sub]))
                for sub in self.workload.subcommands}

    def verify(self, params, captured, reference=None):
        """Problems with the op's reports; empty when they pass every check."""
        try:
            outputs = self.outputs(captured)
            problems = self.workload.check(params, outputs)
            if reference is not None:
                problems += compare_reference(reference, self.workload.key_values(outputs))
        except Exception as exc:  # a report the checks cannot read fails the op
            problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        return problems

    def run(self, params, reference=None, gauge=None):
        """((raw op s, scaled op s, scaled op + checks s), problems)."""
        (raw, scaled), captured, error = self.execute(params, gauge)
        start = time.perf_counter()
        problems = [error] if error else self.verify(params, captured, reference)
        checks = time.perf_counter() - start
        return (raw, scaled, scaled + checks * (gauge.factor() if gauge else 1.0)), problems


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def closed_loop(runner, stream, seconds, gauge, tracer=None):
    """Warm up with one op, then run ops back to back for ``seconds``.

    Each op's time is kept raw and scaled subcommand by subcommand (see
    ``OpRunner.execute``); its checks are scaled by the gauge read after
    them.  With a tracer, ops alternate untraced / traced so the overhead
    is measured on the same input stream; a traced op is scaled as a whole.
    """
    attempted = failed = passed = 0
    times = {False: [], True: []}
    raw = {False: [], True: []}
    scaled_wall = 0.0

    def one(op_id, traced):
        nonlocal attempted, failed
        params, reference = next(stream)
        handle = None
        if traced:
            tracer.install()
            handle = tracer.open_op(op_id)
        try:
            # A traced op reads the gauge only after its span has closed.
            seconds_, problems = runner.run(params, reference, None if traced else gauge)
        finally:
            if traced:
                tracer.close_op(handle, "failed" if problems else "ok")
                tracer.remove()
        if traced:
            raw_, _, iteration = seconds_
            scale = gauge.factor()
            seconds_ = (raw_, raw_ * scale, iteration * scale)
        attempted += 1
        if problems:
            failed += 1
            print(f"op {op_id} failed: {params} :: {'; '.join(problems[:3])}")
        return seconds_, not problems

    one(-1, False)
    start = time.perf_counter()
    op_id = 0
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and op_id % 2 == 1
        (op_raw, op_scaled, iteration), ok = one(op_id, traced)
        raw[traced].append(op_raw)
        times[traced].append(op_scaled)
        scaled_wall += iteration
        passed += ok
        op_id += 1
    wall = time.perf_counter() - start
    return {"attempted": attempted, "failed": failed, "passed": passed,
            "wall": wall, "scaled_wall": scaled_wall,
            "untraced": times[False], "traced": times[True],
            "raw_untraced": raw[False]}


def end_to_end(loop, setup):
    times, raw = loop["untraced"], loop["raw_untraced"]
    tail_s, pct = tail(times)
    setup_s, setup_raw = setup
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": loop["passed"] / loop["scaled_wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = {"op_tail_s": f"p{pct:.1f} of {len(times)} ops; raw {tail(raw)[0]:.6g} s",
             "op_p50_s": f"{len(times)} ops; raw {statistics.median(raw):.6g} s",
             "ops_per_s": f"raw {loop['passed'] / loop['wall']:.6g} 1/s",
             "setup_s": f"median of {SETUP_LAUNCHES} launches; raw {setup_raw:.6g} s"}
    return metrics, notes


def per_layer(loop, tracer):
    totals = layer_totals(tracer.spans)
    ops = max(len(loop["traced"]), 1)
    op_s = totals["op"]["incl_s"]
    for name, count in tracer.counts.items():
        totals[name]["calls"] = count
    metrics, absent = {}, []
    for metric, (span, stat, unit) in PER_LAYER.items():
        t = totals.get(span, {}) if span else {}
        if stat == "overhead_frac":
            base = statistics.median(loop["untraced"])
            value = (statistics.median(loop["traced"]) - base) / base
        elif stat == "yield":
            value = t.get("useful", 0.0) / t["calls"] if t.get("calls") else 0.0
        elif stat == "incl_frac":
            value = t.get("incl_s", 0.0) / op_s if op_s else 0.0
        else:
            value = t.get(stat, 0.0) / ops
        if span and not t.get("calls"):
            absent.append(metric)
        metrics[metric] = (float(value), unit)
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_program()
    workload = WORKLOADS[args.workload]

    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = OpRunner(package.cli, workload, workdir)
        with open(BENCH_DIR / "references.json") as handle:
            references = json.load(handle)["workloads"][workload.name]
        stream = op_stream(workload, args.seed, references)
        tracer = Tracer(package) if args.trace else None
        gauge = HostGauge()
        setup = None
        if not args.trace:
            first, _ = next(op_stream(workload, args.seed))
            setup = measure_setup(runner.override_args(first), gauge)
        loop = closed_loop(runner, stream, args.seconds, gauge, tracer)
        if tracer is not None:
            tracer.write(WORK_ROOT / f"spans-{workload.name}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={loop['attempted']} failed={loop['failed']}")
    readings = gauge.readings
    print(f"host gauge: median {statistics.median(readings):.6g} s, range "
          f"{min(readings):.6g}-{max(readings):.6g} s over {len(readings)} readings "
          f"(nominal {GAUGE_NOMINAL_S:g} s)")
    if args.trace:
        metrics, absent = per_layer(loop, tracer)
        notes = {m: "absent (layer not called)" for m in absent}
    else:
        metrics, notes = end_to_end(loop, setup)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if not args.trace:
        # Printed, not a BENCHMARK.json metric: it is 0 whenever the run is correct.
        print(f"failed_frac = {loop['failed'] / loop['attempted']:.6g} frac")
    print(json.dumps({
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
