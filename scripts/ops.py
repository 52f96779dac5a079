"""The perfbench ops as the scripts in this directory run them.

``parse_seeds`` reads a seed range, ``plan`` lists the ops of this checkout's
``perfbench/workloads.py`` with the course files they read, ``io_plan`` lists
the fixed ``IO_OPS`` with the config files they read, ``write_files`` writes
those files under a working directory, and ``run_op`` runs one op through
``breakaway.cli.main`` with its output captured.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    """The seeds of a range "LO-HI", or of one seed "LO"."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def plan(workloads: list[str] | None, seeds: list[int], cli_seeds: list[int] | None = None):
    """(ops as [label, argv], course files as {relative path: text}) of the
    workloads, all of them for None, each seed's warm-up op first; the
    ``cli`` workload runs cli_seeds, seeds for None."""
    module = runpy.run_path(os.path.join(HERE, "..", "perfbench", "workloads.py"))
    ops, files = [], {}
    for workload in module["WORKLOADS"] if workloads is None else workloads:
        for seed in cli_seeds if workload == "cli" and cli_seeds is not None else seeds:
            generated = module["generate"](workload, seed)
            files.update(generated["files"])
            for op in [generated["warmup"]] + generated["ops"]:
                ops.append([f"{workload}:{seed}:{op['id']}", op["argv"]])
    return ops, files


# The input and output paths no perfbench op takes, beside the golden runs in
# JSON (see io_plan): a config file with a bare-key sweep, a config file and
# --set keys the schema does not hold, a config key in the wrong case, a
# course file whose header follows a comment, a sweep on a command that does
# not sweep, a rider position that is fractional or deeper than the pack,
# a Monte Carlo at the back of the pack (every start rank can reach the
# rider, so every crash is drawn), config files with no section header or
# with junk lines, config and course files that start with a byte-order
# mark, fatigue budgets so large that the attack lasts under a millionth of
# the race or its ride time is far below any fixed absolute tolerance, an
# attack-onset epsilon whose square underflows, and help and version text.
IO_FILES = {
    "io/sweep.ini": ("[strategy]\nenergy_budget = 1.5  ; inline comment\n\n"
                     "[sweep]\nparameter = risk_index\nlo = 0.2\nhi = 0.9\npoints = 3\n\n"
                     "[output]\nformat = json\n"),
    "io/unknown.ini": "[strategy]\nnonsense = 1\n",
    "io/mixed-case.ini": "[strategy]\nRisk_Index = 0.3\n",
    "io/commented-header.txt": "# my course\nx h\n0 0\n0.5 0.01\n1 0\n",
    "io/no-header.ini": "risk_index = 0.3\n",
    "io/junk.ini": "[strategy]\nrisk_index = 0.3\njunk line\n",
    "io/bom.ini": "\ufeff[strategy]\nrisk_index = 0.3\n",
    "io/bom-course.txt": "\ufeff0 0\n0.5 0.01\n1 0\n",
}
IO_OPS = [
    ["io:config", ["flat", "--config", "io/sweep.ini"]],
    ["io:config-set", ["flat", "--config", "io/sweep.ini", "--set", "omega=0.7",
                       "--format", "csv"]],
    ["io:config-unknown-key", ["flat", "--config", "io/unknown.ini"]],
    ["io:config-mixed-case", ["flat", "--config", "io/mixed-case.ini"]],
    ["io:set-bare", ["flat", "--set", "risk_index=0.3"]],
    ["io:set-ambiguous", ["terrain", "--set", "epsilon=0.01"]],
    ["io:set-unknown", ["flat", "--set", "nonsense=1"]],
    ["io:set-unknown-dotted", ["flat", "--set", "strategy.nonsense=1"]],
    ["io:course-commented-header", ["terrain", "--course", "io/commented-header.txt",
                                    "--set", "terrain.samples=5"]],
    ["io:crash-mc-sweep", ["crash-mc", "--set", "sweep.parameter=crash.omega",
                           "--set", "sweep.points=3"]],
    ["io:crash-mc-fractional-position", ["crash-mc", "--set", "model.position=5.5"]],
    ["io:crash-mc-deep-position", ["crash-mc", "--set", "model.position=100"]],
    ["io:crash-mc-position-75", ["crash-mc", "--set", "model.position=75"]],
    ["io:flat-deep-position", ["flat", "--set", "model.position=100"]],
    ["io:config-no-header", ["flat", "--config", "io/no-header.ini"]],
    ["io:config-junk", ["flat", "--config", "io/junk.ini"]],
    ["io:config-bom", ["flat", "--config", "io/bom.ini"]],
    ["io:course-bom", ["terrain", "--course", "io/bom-course.txt",
                       "--set", "terrain.samples=5"]],
    ["io:fatigue-huge-budget", ["fatigue", "--set", "strategy.energy_budget=1e13"]],
    ["io:fatigue-budget-1e40", ["fatigue", "--set", "strategy.energy_budget=1e40"]],
    ["io:microstructure-tiny-epsilon", ["microstructure", "--set", "micro.epsilon=1e-300",
                                        "--set", "micro.samples=5"]],
    ["io:help", ["--help"]],
    ["io:flat-help", ["flat", "--help"]],
    ["io:version", ["--version"]],
]


def io_plan():
    """(ops as [label, argv], config files as {relative path: text}): each
    golden run of perfbench/workloads.py in JSON, then IO_OPS."""
    module = runpy.run_path(os.path.join(HERE, "..", "perfbench", "workloads.py"))
    ops = [[f"io:json:{name}", argv + ["--format", "json"]]
           for name, argv in module["GOLDEN"].items()]
    return ops + IO_OPS, dict(IO_FILES)


def write_files(files: dict[str, str], workdir: str) -> None:
    """Write the course files of a plan under workdir."""
    for path, text in files.items():
        os.makedirs(os.path.join(workdir, os.path.dirname(path)), exist_ok=True)
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_op(main, argv: list[str]) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of main(argv).  An escaped exception is an
    outcome too: its code is "raised <type>: <message>"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv))
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()
