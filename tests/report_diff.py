"""Compare two outputs of ``tests/report_matrix.py`` cell by cell.

Usage: python tests/report_diff.py A B

A and B are the OUTDIRs of two report_matrix runs.  Every report (CSV and
JSON) and every log is split into (key, token) cells: a report cell's key is
its column, a JSON ``meta`` entry's its dotted path (``summary.R_max``), a
log's ``name = value`` line's ``summary.<name>``, and any other log token's
``log``.  A token is numeric when it parses as a finite float.

Exits 1, listing them, when a file is present on one side only, when two
files split into different keys, or when a non-numeric token differs.
Otherwise prints, per (subcommand, key), the number of numeric cells that
differ and their largest relative difference |a - b| / max(|a|, |b|), and
exits 0; identical trees print nothing.
"""

import csv
import json
import math
import os
import re
import sys
from collections import defaultdict

_LOG_TOKEN = re.compile(r"[^\s,()\[\]=]+|[\s,()\[\]=]+")


def _json_cells(doc):
    def walk(value, key):
        if isinstance(value, dict):
            for k, v in sorted(value.items()):
                yield from walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            for v in value:
                yield from walk(v, key)
        else:
            yield key, json.dumps(value)

    yield from walk(doc.get("meta"), "")
    yield from walk(doc.get("columns"), "columns")
    for row in doc.get("rows", []):
        for column, value in zip(doc["columns"], row):
            yield from walk(value, column)


def _log_cells(text):
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and " " not in name:
            yield f"summary.{name}", value
        else:
            yield from (("log", token) for token in _LOG_TOKEN.findall(line))


def cells(path):
    """(key, token) pairs of one report or log, in file order."""
    with open(path, newline="") as handle:
        if path.endswith(".csv"):
            rows = list(csv.reader(handle))
            return [("columns", name) for name in rows[0]] + [
                pair for row in rows[1:] for pair in zip(rows[0], row)]
        if path.endswith(".json"):
            return list(_json_cells(json.load(handle)))
        return list(_log_cells(handle.read()))


def _number(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _files(root):
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def compare(a_root, b_root):
    """(problems, {(subcommand, key): [changed cells, max relative difference]})."""
    a_files, b_files = _files(a_root), _files(b_root)
    problems = [f"only in {root}: {name}" for root, names in
                ((a_root, a_files - b_files), (b_root, b_files - a_files))
                for name in sorted(names)]
    changed = defaultdict(lambda: [0, 0.0])
    for name in sorted(a_files & b_files):
        subcommand = os.path.splitext(os.path.basename(name))[0]
        a_cells, b_cells = cells(os.path.join(a_root, name)), cells(os.path.join(b_root, name))
        if [k for k, _ in a_cells] != [k for k, _ in b_cells]:
            problems.append(f"{name}: the files split into different keys")
            continue
        for (key, a), (_, b) in zip(a_cells, b_cells):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                problems.append(f"{name}: {key}: {a!r} -> {b!r}")
                continue
            entry = changed[subcommand, key]
            entry[0] += 1
            entry[1] = max(entry[1], abs(x - y) / max(abs(x), abs(y)))
    return problems, dict(changed)


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    problems, changed = compare(*argv)
    if problems:
        for line in problems:
            print(line)
        return 1
    for (subcommand, key), (count, worst) in sorted(changed.items()):
        print(f"{subcommand:16} {key:24} {count:5} cells  max rel {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
