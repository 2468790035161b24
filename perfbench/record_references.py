"""Record the reference configs and summary values every run replays.

    python3 perfbench/record_references.py [WORKLOAD ...]

Draws ``POOL`` configs per workload from a fixed seed, runs each as one op,
requires it to pass the workload's own checks, and writes the inputs with
their summary values to ``perfbench/references.json``.  Named workloads are
recorded and the others kept as they are; no name records all of them.  A
workload is recorded once, at the commit that defined its ops; later
commits are checked against it, so re-recording it hides any change in
results.
"""

import itertools
import json
import shutil
import sys

import run
from workloads import WORKLOADS, op_stream

POOL = 24
REFERENCE_SEED = 20240702


def main():
    names = sys.argv[1:] or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")
    package = run.import_program()
    facts = run.machine_facts()
    path = run.BENCH_DIR / "references.json"
    recorded = {}
    if path.is_file():
        with open(path) as handle:
            recorded = json.load(handle)["workloads"]
    doc = {"recorded_with": {**facts, "qtricycle": package.__version__},
           "seed": REFERENCE_SEED, "workloads": recorded}
    workdir = run.WORK_ROOT / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        runner = run.OpRunner(package.cli, workload, workdir)
        entries = []
        for params, _ in itertools.islice(op_stream(workload, REFERENCE_SEED), POOL):
            _, captured, error = runner.execute(params)
            problems = [error] if error else runner.verify(params, captured)
            if problems:
                sys.exit(f"{name}: reference op {params} fails its checks: {problems}")
            values = workload.key_values(runner.outputs(captured))
            entries.append({"params": params, "values": values})
        doc["workloads"][name] = entries
        print(f"{name}: {len(entries)} references")
    shutil.rmtree(workdir)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
