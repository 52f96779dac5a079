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
import os
import sys
import tempfile
import trace
from collections import Counter

from ops import parse_seeds, plan, run_op, write_files

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
PACKAGE = os.path.join(SRC, "breakaway")


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
    for _, argv in ops:
        code, _, _ = run_op(main, argv)
        codes[code.partition(":")[0]] += 1  # an escaped exception by its type
    return codes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-103"))
    args = parser.parse_args(argv)
    ops, files = plan(None, args.seeds)
    # no ignoredirs: trace caches its ignore verdict by file basename, so
    # ignoring numpy's __init__.py would ignore breakaway's too
    tracer = trace.Trace(count=1, trace=0)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        write_files(files, workdir)
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
