"""Check that two checkouts print the same bytes for every perfbench op.

Run from the root of a checkout:

    python3 scripts/compare_outputs.py PARENT_CHECKOUT \\
        [--seeds 101-105] [--cli-seeds 101-120] [--workloads terrain,validate,strategy,cli]

The op lists come from this checkout's ``perfbench/workloads.py``: every op of
each workload and seed, the warm-up op first, with the workload's course
files written to a scratch directory that is the working directory of both
runs.  ``--seeds`` applies to the in-process workloads and ``--cli-seeds`` to
``cli``.  Each checkout runs all ops in one fresh interpreter that imports its
own ``src/``, one ``breakaway.cli.main(argv)`` call per op (``cli`` ops too),
and hashes each op's stdout, stderr and exit code.  Exits 1 and names the ops
whose hashes differ, 0 when none do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _plan(workloads: list[str], seeds: list[int], cli_seeds: list[int]):
    """(ops as [label, argv], course files as {relative path: text})."""
    generate = runpy.run_path(os.path.join(HERE, "..", "perfbench", "workloads.py"))["generate"]
    ops, files = [], {}
    for workload in workloads:
        for seed in cli_seeds if workload == "cli" else seeds:
            plan = generate(workload, seed)
            files.update(plan["files"])
            for op in [plan["warmup"]] + plan["ops"]:
                ops.append([f"{workload}:{seed}:{op['id']}", op["argv"]])
    return ops, files


def _run_ops(src: str) -> None:
    """Child mode: run the ops read from stdin against src, print their hashes."""
    sys.path.insert(0, src)
    from breakaway.cli import main

    hashes = []
    for label, argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = repr(main(argv))
            except (Exception, SystemExit) as exc:  # an escaped exception is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        hashes.append([label, hashlib.sha256(record.encode()).hexdigest()])
    json.dump(hashes, sys.stdout)


def _hashes(checkout: str, ops, workdir: str) -> dict[str, str]:
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isdir(os.path.join(src, "breakaway")):
        raise SystemExit(f"no src/breakaway in {checkout}")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-ops", src],
                          input=json.dumps(ops), capture_output=True, text=True,
                          cwd=workdir, check=True)
    return dict(json.loads(proc.stdout))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run-ops"]:
        _run_ops(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-105"))
    parser.add_argument("--cli-seeds", type=_seeds, default=_seeds("101-120"))
    parser.add_argument("--workloads", default="terrain,validate,strategy,cli")
    args = parser.parse_args(argv)
    ops, files = _plan(args.workloads.split(","), args.seeds, args.cli_seeds)
    with tempfile.TemporaryDirectory() as workdir:
        for path, text in files.items():
            os.makedirs(os.path.join(workdir, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        mine = _hashes(os.path.join(HERE, ".."), ops, workdir)
        theirs = _hashes(args.parent, ops, workdir)
    differ = [label for label, _ in ops if mine[label] != theirs[label]]
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(differ)} of {len(ops)} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
