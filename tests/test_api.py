"""Every public name a breakaway module exports must exist, the package
loads its submodules lazily, and importing the CLI loads no more than its
commands need."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import breakaway

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


_HEAVY = ("numpy", "breakaway.terrain", "breakaway.microstructure", "breakaway.ode")


def _heavy_imports(args, cwd):
    """(exit code, heavy modules imported) of a fresh `python -X importtime`."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return [proc.returncode, sorted(names.intersection(_HEAVY))]


def test_numpy_stays_off_the_closed_form_startup(tmp_path):
    # flat and fatigue are closed forms on Python floats, and terrain rides
    # on them; crash-mc and microstructure are the control: they load numpy
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
        "flat": lean, "flat-sweep": lean, "fatigue": lean, "fatigue-sweep": lean,
        "crash-mc": [0, ["numpy"]],
        "microstructure": [0, ["breakaway.microstructure", "breakaway.ode", "numpy"]],
        "terrain": [0, ["breakaway.ode", "breakaway.terrain"]],
    }
