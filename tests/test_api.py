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

seen = {"import": sorted(m for m in ("scipy", "multiprocessing") if m in sys.modules)}
runs = {
    "flat": ["flat"],
    "flat-sweep": ["flat", "--set", "sweep.parameter=strategy.risk_index",
                   "--set", "sweep.points=5"],
    "crash-mc": ["crash-mc", "--trials", "1000"],
    "fatigue": ["fatigue"],
    "microstructure": ["microstructure"],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[name] = [code, "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_stays_off_the_startup_path():
    # flat, crash-mc and fatigue need no SciPy; microstructure's ODEs do,
    # which shows the probe can see the import
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {
        "import": [], "flat": [0, False], "flat-sweep": [0, False],
        "crash-mc": [0, False], "fatigue": [0, False],
        "microstructure": [0, True],
    }
