"""Frozen reference tables for the CLI commands.

These tables were generated by the library itself after its property and
acceptance suites passed, then committed as the reference.  Each test
re-runs the command and requires byte-identical output, which pins both the
numerics and the rendering.  Regenerate deliberately with:

    BREAKAWAY_REGEN=1 python -m pytest tests/test_golden.py
"""

import os
import runpy
from pathlib import Path

import pytest

from breakaway.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

RUNS = {
    "flat_beta_sweep.csv": [
        "flat",
        "--set", "sweep.parameter=strategy.risk_index",
        "--set", "sweep.lo=0", "--set", "sweep.hi=1", "--set", "sweep.points=21",
    ],
    "flat_energy_sweep.csv": [
        "flat",
        "--set", "strategy.risk_index=0.3",
        "--set", "sweep.parameter=strategy.energy_budget",
        "--set", "sweep.lo=0.5", "--set", "sweep.hi=2.0",
        "--set", "sweep.points=16",
    ],
    "fatigue_beta_sweep.csv": [
        "fatigue",
        "--set", "strategy.energy_budget=1.25",
        "--set", "sweep.parameter=strategy.risk_index",
        "--set", "sweep.lo=0", "--set", "sweep.hi=1", "--set", "sweep.points=11",
    ],
    "crash_mc.csv": [
        "crash-mc", "--trials", "200000", "--seed", "20260810",
    ],
    "terrain_flat.csv": [
        "terrain", "--course", "flat",
        "--set", "terrain.quasi_steady=true",
        "--set", "terrain.attack_power=3.2",
        "--set", "terrain.samples=33",
    ],
    "microstructure.csv": [
        "microstructure",
        "--set", "micro.gamma_ratio=6", "--set", "micro.samples=65",
    ],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden(name, tmp_path):
    produced = tmp_path / name
    assert main(RUNS[name] + ["--out", str(produced)]) == 0
    golden = GOLDEN_DIR / name
    if os.environ.get("BREAKAWAY_REGEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes(produced.read_bytes())
    assert golden.exists(), f"golden file missing; regenerate with BREAKAWAY_REGEN=1"
    assert produced.read_bytes() == golden.read_bytes()


def test_runs_match_benchmark():
    # the benchmark replays these argument vectors against these files to
    # score its golden_ratio, so the two lists must not drift apart
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    assert RUNS == runpy.run_path(str(workloads))["GOLDEN"]
