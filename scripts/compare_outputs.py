"""Check that two checkouts print the same bytes for every perfbench op.

Run from the root of a checkout:

    python3 scripts/compare_outputs.py PARENT_CHECKOUT \\
        [--seeds 101-105] [--cli-seeds 101-120] [--workloads terrain,validate,strategy,cli]

The op lists come from this checkout's ``perfbench/workloads.py``: every op of
each workload and seed, the warm-up op first, with the workload's course
files written to a scratch directory that is the working directory of both
runs.  ``--seeds`` applies to the in-process workloads and ``--cli-seeds`` to
``cli``.  After them, every time, come the fixed input and output ops of
``ops.io_plan``: the golden runs in JSON, config files, bad ``--set`` keys,
help and version.  Each checkout runs all ops in one fresh interpreter that
imports its own ``src/``, one ``breakaway.cli.main(argv)`` call per op (``cli``
ops too), and hashes each op's stdout, stderr and exit code.  Exits 1 and names the ops
whose hashes differ, each with the parts of its output that differ (exit
code, stderr, metadata keys, table columns) and a tally of those parts over
all differing ops; exits 0 when no op differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

from ops import io_plan, parse_seeds, plan, run_op, write_files

HERE = os.path.dirname(os.path.abspath(__file__))


def _parts(code: str, out: str, err: str) -> dict[str, str]:
    """An op's outcome by part: exit code, stderr, each metadata key's value
    and a hash of each table column, from CSV or JSON output."""
    try:
        doc = json.loads(out)
        meta, columns, rows = doc["metadata"], doc["columns"], doc["rows"]
    except (ValueError, KeyError, TypeError):
        lines = out.splitlines()
        meta = dict(line[2:].split(" = ", 1) for line in lines
                    if line.startswith("# ") and " = " in line)
        table = [line.split(",") for line in lines if not line.startswith("#")]
        columns, rows = (table[0], table[1:]) if table else ([], [])
    parts = {"exit": code, "stderr": err}
    parts.update((f"meta:{key}", json.dumps(value)) for key, value in meta.items())
    for i, name in enumerate(columns):
        column = json.dumps([row[i] if i < len(row) else None for row in rows])
        parts[f"column:{name}"] = hashlib.sha256(column.encode()).hexdigest()
    return parts


def _run_ops(src: str) -> None:
    """Child mode: run the ops read from stdin against src, print their hashes
    and parts."""
    sys.path.insert(0, src)
    from breakaway.cli import main

    results = []
    for label, argv in json.load(sys.stdin):
        outcome = run_op(main, argv)
        record = json.dumps(outcome)
        results.append([label, hashlib.sha256(record.encode()).hexdigest(), _parts(*outcome)])
    json.dump(results, sys.stdout)


def _results(checkout: str, ops, workdir: str) -> dict[str, tuple[str, dict]]:
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isdir(os.path.join(src, "breakaway")):
        raise SystemExit(f"no src/breakaway in {checkout}")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-ops", src],
                          input=json.dumps(ops), capture_output=True, text=True,
                          cwd=workdir, check=True)
    return {label: (digest, parts) for label, digest, parts in json.loads(proc.stdout)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run-ops"]:
        _run_ops(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-105"))
    parser.add_argument("--cli-seeds", type=parse_seeds, default=parse_seeds("101-120"))
    parser.add_argument("--workloads", default="terrain,validate,strategy,cli")
    args = parser.parse_args(argv)
    ops, files = plan(args.workloads.split(","), args.seeds, args.cli_seeds)
    io_ops, io_files = io_plan()
    ops += io_ops
    files.update(io_files)
    with tempfile.TemporaryDirectory() as workdir:
        write_files(files, workdir)
        mine = _results(os.path.join(HERE, ".."), ops, workdir)
        theirs = _results(args.parent, ops, workdir)
    differ = [label for label, _ in ops if mine[label][0] != theirs[label][0]]
    tally = Counter()
    for label in differ:
        (_, a), (_, b) = mine[label], theirs[label]
        parts = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        tally.update(parts)
        print(f"differs: {label}: {', '.join(parts)}")
    print(f"{len(differ)} of {len(ops)} ops differ")
    for part, count in sorted(tally.items()):
        print(f"  {part}: {count} ops")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
