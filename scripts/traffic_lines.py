"""List the lines of ``src/breakaway`` that no perfbench op reaches.

Run from the root of a checkout:

    python3 scripts/traffic_lines.py [--seeds 101-103]

The op lists come from this checkout's ``perfbench/workloads.py``: every op of
every workload and seed, the warm-up op first, with the workloads' course
files written to a scratch directory that is the working directory of the
run.  All ops run in this one interpreter, one ``breakaway.cli.main(argv)``
call per op (``cli`` ops too), under the standard library's ``trace`` line
counter, which starts before ``breakaway`` is imported, so import-time lines
count as reached.  For each module it prints the executable lines (those
the compiler gives a line number) that no op ran, as ranges.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys
import tempfile
import trace
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
PACKAGE = os.path.join(SRC, "breakaway")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _plan(seeds: list[int]):
    """(ops as argv lists, course files as {relative path: text})."""
    workloads = runpy.run_path(os.path.join(HERE, "..", "perfbench", "workloads.py"))
    ops, files = [], {}
    for workload in workloads["WORKLOADS"]:
        for seed in seeds:
            plan = workloads["generate"](workload, seed)
            files.update(plan["files"])
            ops += [op["argv"] for op in [plan["warmup"]] + plan["ops"]]
    return ops, files


def _executable_lines(path: str) -> set[int]:
    """Line numbers of every instruction in the module and its nested code."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no line
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _ranges(lines: list[int]) -> str:
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _run_ops(ops) -> Counter:
    sys.path.insert(0, SRC)
    from breakaway.cli import main

    codes = Counter()
    for argv in ops:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                codes[repr(main(argv))] += 1
            except (Exception, SystemExit) as exc:  # an escaped exception is an outcome too
                codes[f"raised {type(exc).__name__}"] += 1
    return codes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-103"))
    args = parser.parse_args(argv)
    ops, files = _plan(args.seeds)
    # no ignoredirs: trace caches its ignore verdict by file basename, so
    # ignoring numpy's __init__.py would ignore breakaway's too
    tracer = trace.Trace(count=1, trace=0)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for path, text in files.items():
            os.makedirs(os.path.join(workdir, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(workdir)
        try:
            codes = tracer.runfunc(_run_ops, ops)
        finally:
            os.chdir(cwd)
    reached = {(os.path.normpath(f), line) for f, line in tracer.results().counts}
    print(f"{len(ops)} ops, seeds {args.seeds[0]}-{args.seeds[-1]}, exit codes: "
          + ", ".join(f"{code} x{n}" for code, n in sorted(codes.items())))
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = _executable_lines(path)
        unreached = sorted(line for line in lines if (path, line) not in reached)
        print(f"{name}: {len(unreached)} of {len(lines)} lines unreached"
              + (f": {_ranges(unreached)}" if unreached else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
