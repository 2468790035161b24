"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on one op per workload, that the checks pass on the program's own
reports and flag a single corrupted report cell; that a reference value
that does not match is flagged; that an exception escaping ``cli.run`` is a
failed op rather than an aborted run; that the same seed gives the same
inputs and another seed different ones; and that the metric names agree
with ``BENCHMARK.json``.  Exits non-zero on the first failure.
"""

import csv
import itertools
import json
import shutil
import sys

import run
from workloads import WORKLOADS, op_stream

# (subcommand, column) of the cell corrupted in each workload's report.
CORRUPT = {
    "curves": ("optimal-curve", "chi"),
    "light": ("cycle", "Q_c"),
    "oracle": ("oracle-check", "Q_total"),
}


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def corrupt_cell(path, column):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    j = rows[0].index(column)
    rows[1][j] = repr(float(rows[1][j]) * (1.0 + 1e-3))
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def check_reports(package, workdir):
    for name, workload in sorted(WORKLOADS.items()):
        runner = run.OpRunner(package.cli, workload, workdir)
        params, _ = next(op_stream(workload, 1))
        _, captured, error = runner.execute(params)
        expect(error is None and not runner.verify(params, captured),
               f"{name}: the program's own reports pass every check")
        values = workload.key_values(runner.outputs(captured))
        key = sorted(values)[0]
        wrong = {key: values[key] * 1.01 + 1.0}
        expect(runner.verify(params, captured, reference=wrong),
               f"{name}: a reference value off by 1% is flagged")
        sub, column = CORRUPT[name]
        corrupt_cell(workdir / f"{sub}.csv", column)
        expect(runner.verify(params, captured),
               f"{name}: one corrupted cell ({sub} {column}) fails the op")


def check_escaping_exception(package, workdir):
    workload = WORKLOADS["oracle"]
    runner = run.OpRunner(package.cli, workload, workdir)
    original = package.oracle.propagate

    def broken(*args, **kwargs):
        raise package.PositivityError("injected by the self-test")

    package.oracle.propagate = broken
    try:
        params, _ = next(op_stream(workload, 1))
        _, problems = runner.run(params)
    finally:
        package.oracle.propagate = original
    expect(problems and "PositivityError" in problems[0],
           "an exception escaping cli.run is a failed op, not an aborted run")


def check_seeds():
    for name, workload in sorted(WORKLOADS.items()):
        def first(seed):
            return [p for p, _ in itertools.islice(op_stream(workload, seed), 12)]
        expect(first(5) == first(5), f"{name}: the same seed gives identical inputs")
        expect(first(5) != first(6), f"{name}: another seed gives different inputs")


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    expect([m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER),
           "per-layer metric names match BENCHMARK.json")
    expect({m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END),
           "end-to-end metric names match BENCHMARK.json")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "workload names match BENCHMARK.json")


def main():
    package = run.import_program()
    workdir = run.WORK_ROOT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_reports(package, workdir)
        check_escaping_exception(package, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_seeds()
    check_metric_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
