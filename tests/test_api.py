"""Every public name a breakaway module exports must exist, with annotations
that resolve, the package loads its submodules lazily, importing the CLI
loads no more than its commands need, and the value records keep their
constructor contract."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import breakaway
from breakaway.crash import CrashModel

MODULES = sorted(info.name for info in pkgutil.iter_modules(breakaway.__path__))


def test_package_imports():
    assert importlib.import_module("breakaway") is breakaway
    assert MODULES


def test_lazy_package_api():
    for name in breakaway.__all__:
        module = importlib.import_module(f"breakaway.{breakaway._EXPORTS[name]}")
        assert name in module.__all__
        assert getattr(breakaway, name) is getattr(module, name)
    assert set(breakaway.__all__) <= set(dir(breakaway))
    with pytest.raises(AttributeError, match="no_such_name"):
        breakaway.no_such_name
    namespace = {}
    exec("from breakaway import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(breakaway.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"breakaway.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
    # every annotation resolves at run time, numpy's lazy imports included
    for attr in getattr(module, "__all__", ()):
        value = getattr(module, attr)
        if inspect.isfunction(value) or inspect.isclass(value):
            typing.get_type_hints(value)


_SCIPY_PROBE = r"""
import contextlib, io, json, sys
from breakaway.cli import main

course = sys.argv[1]
seen = {"import": sorted(m for m in ("scipy", "multiprocessing") if m in sys.modules)}
quasi_steady = ["--set", "terrain.quasi_steady=true"]
runs = {
    "flat": ["flat"],
    "flat-sweep": ["flat", "--set", "sweep.parameter=strategy.risk_index",
                   "--set", "sweep.points=5"],
    "crash-mc": ["crash-mc", "--trials", "1000"],
    "fatigue": ["fatigue"],
    "microstructure": ["microstructure", "--set", "micro.samples=65"],
    "quasi-steady-demo": ["terrain", "--course", "demo"] + quasi_steady,
    "quasi-steady-table": ["terrain", "--course", course] + quasi_steady,
    "rk45-demo": ["terrain", "--course", "demo"],
    "rk45-table": ["terrain", "--course", course],
    "bdf-demo": ["terrain", "--course", "demo", "--set", "terrain.epsilon=5e-4"],
    "bdf-table": ["terrain", "--course", course, "--set", "terrain.epsilon=5e-4"],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[name] = [code, "scipy" in sys.modules]
import scipy.integrate
seen["control"] = "scipy" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_stays_off_the_startup_path(tmp_path):
    # no run needs SciPy; the probe's own import of it at the end shows
    # that the probe can see the import
    src = Path(__file__).resolve().parents[1] / "src"
    course = tmp_path / "course.txt"
    course.write_text("x h\n0 0\n0.25 0.004\n0.5 -0.002\n0.75 0.003\n1 0\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(course)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {
        "import": [], "flat": [0, False], "flat-sweep": [0, False],
        "crash-mc": [0, False], "fatigue": [0, False],
        "microstructure": [0, False], "quasi-steady-demo": [0, False],
        "quasi-steady-table": [0, False], "rk45-demo": [0, False],
        "rk45-table": [0, False], "bdf-demo": [0, False],
        "bdf-table": [0, False], "control": True,
    }


_HEAVY = ("numpy", "dataclasses", "breakaway.fatigue", "breakaway.terrain",
          "breakaway.microstructure", "breakaway.ode")


def _heavy_imports(args, cwd):
    """(exit code, heavy modules imported) of a fresh `python -X importtime`."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return [proc.returncode, sorted(names.intersection(_HEAVY))]


def test_numpy_stays_off_the_closed_form_startup(tmp_path):
    # flat and fatigue are closed forms, terrain and microstructure ODE
    # rides, all on Python floats; crash-mc is the control: it loads numpy.
    # No run loads dataclasses, and only a fatigue run the fatigue module
    cli = ["-m", "breakaway.cli"]
    sweep = ["--set", "sweep.parameter=strategy.risk_index", "--set", "sweep.points=3"]
    runs = {
        "import breakaway": ["-c", "import breakaway"],
        "import breakaway.cli": ["-c", "import breakaway.cli"],
        "--version": cli + ["--version"],
        "flat": cli + ["flat"],
        "flat-sweep": cli + ["flat"] + sweep,
        "fatigue": cli + ["fatigue"],
        "fatigue-sweep": cli + ["fatigue"] + sweep,
        "crash-mc": cli + ["crash-mc", "--trials", "1000"],
        "microstructure": cli + ["microstructure", "--set", "micro.samples=65"],
        "terrain": cli + ["terrain", "--course", "flat",
                          "--set", "terrain.quasi_steady=true"],
    }
    seen = {name: _heavy_imports(args, tmp_path) for name, args in runs.items()}
    lean = [0, []]
    assert seen == {
        "import breakaway": lean, "import breakaway.cli": lean, "--version": lean,
        "flat": lean, "flat-sweep": lean,
        "fatigue": [0, ["breakaway.fatigue"]], "fatigue-sweep": [0, ["breakaway.fatigue"]],
        "crash-mc": [0, ["numpy"]],
        "microstructure": [0, ["breakaway.microstructure", "breakaway.ode"]],
        "terrain": [0, ["breakaway.ode", "breakaway.terrain"]],
    }


_REQ = inspect.Parameter.empty
# each record's constructor parameters, in order, with their defaults, as
# the dataclass fields they replaced had them; a list default is a fresh
# list per record
_RECORDS = {
    "numerics.SolverSettings": {"abs_tol": 1e-10, "rel_tol": 1e-8, "max_iterations": 200},
    "microstructure.DragParams": {"cd_max": 0.9, "cd_min": 0.05, "decay": 0.25},
    "crash.CrashModel": {"omega": 0.5, "intensity": 2.0, "n_riders": 75},
    "flat.StrategyProblem": {"energy_budget": 1.2, "risk_index": 0.8, "position": 5.0,
                             "cd_front": 1.43, "cd_lurk": 0.46,
                             "crash": CrashModel(0.5, 2.0, 75)},
    "flat.StrategyResult": dict.fromkeys(["attack_position", "attack_power", "time_gap",
                                          "exposure", "objective", "branch"], _REQ),
    "flat.InteriorOptimum": dict.fromkeys(["eta", "attack_position", "attack_power"], _REQ),
    "fatigue.FatigueResult": {
        **dict.fromkeys(["attack_position", "peak_power", "finish_time", "time_gap",
                         "objective", "converged"], _REQ),
        "status": "ok", "iterations": 0, "budget_residual": math.nan,
        "arrival_residual": math.nan},
    "config.RunConfig": {"_data": _REQ},
    "tables.ResultTable": {"columns": _REQ},
    "terrain.CourseProfile": {"slope": _REQ, "label": "custom", "knots": ()},
    "terrain.Trajectory": {"finish_time": _REQ, "sample": _REQ},
    "terrain.BreakawayRun": dict.fromkeys(["rider", "peloton", "time_gap", "attack_time",
                                           "rider_energy", "peloton_energy"], _REQ),
    "microstructure.PassageLayer": {"duration": _REQ, "exit_slope": _REQ},
    "microstructure.AttackOnset": dict.fromkeys(
        ["times", "v_full", "v_composite", "rel_deviation", "front_crossing_time",
         "passage_duration", "front_speed", "terminal_speed"], _REQ),
}


def _record_class(name):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"breakaway.{module}"), cls)


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_contract(name):
    cls, fields = _record_class(name), _RECORDS[name]
    assert list(inspect.signature(cls).parameters) == list(fields)
    required = [field for field, default in fields.items() if default is _REQ]

    def build(first=0):  # a record of its defaults, or fresh equal lists where required
        values = {field: [first if k == 0 else k] for k, field in enumerate(required)}
        if not required:  # every field has a default: change the first one's
            field = next(iter(fields))
            values[field] = fields[field] * (1 + first)
        return cls(**values)

    record = build()
    for field, default in fields.items():
        if default is not _REQ:
            assert _same(getattr(record, field), default), field
    if name == "tables.ResultTable":  # rows and metadata start empty, a fresh list each
        other = build()
        assert record.rows == record.metadata == []
        assert record.rows is not other.rows and record.metadata is not other.metadata
        return
    assert record == build() and not record != build()
    assert record != build(first=1)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_table_write_rejects_an_unknown_format(capsys):
    from breakaway.tables import ResultTable

    table = ResultTable(["a"])
    table.add_row(1.0)
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        table.write("xml")
    assert capsys.readouterr().out == ""


def test_default_problem_crash_model():
    from breakaway.flat import StrategyProblem

    assert StrategyProblem().crash == CrashModel()
