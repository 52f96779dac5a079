"""Every public name a breakaway module exports must exist, and importing
the CLI loads no more than its commands need."""

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
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[name] = [code, "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_stays_off_the_startup_path(tmp_path):
    # only a BDF ride needs SciPy, which shows the probe can see the import
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
        "rk45-table": [0, False], "bdf-demo": [0, True],
    }
