"""Frozen reference tables for the CLI commands.

These tables were generated by the library itself after its property and
acceptance suites passed, then committed as the reference.  Each test
re-runs the command and requires byte-identical output, which pins both the
numerics and the rendering.  Regenerate deliberately with:

    BREAKAWAY_REGEN=1 python -m pytest tests/test_golden.py
"""

import json
import os
import runpy
import subprocess
import sys
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


def _typed(text):
    """A CSV cell or metadata value as JSON output carries it: a number as
    float(text), a non-finite one as null, a boolean as a boolean and any
    other text as itself."""
    if text in ("nan", "inf", "-inf"):
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _kinded(values):
    # True == 1.0 and 2 == 2.0: compare the JSON kind beside the value
    return [(type(v) if isinstance(v, (bool, str, type(None))) else float, v)
            for v in values]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_json_is_the_csv_typed(name, tmp_path):
    produced = tmp_path / name
    assert main(RUNS[name] + ["--format", "json", "--out", str(produced)]) == 0
    doc = json.loads(produced.read_text())
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    meta["config.output.format"] = "json"  # the one setting the two runs differ in
    header, *rows = [line.split(",") for line in lines if not line.startswith("# ")]
    assert list(doc["metadata"]) == list(meta)
    assert _kinded(doc["metadata"].values()) == _kinded(map(_typed, meta.values()))
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(rows)
    for cells, texts in zip(doc["rows"], rows):
        assert _kinded(cells) == _kinded(map(_typed, texts))


# numpy's SIMD kernels from AVX512-SKX on switched off, and OpenBLAS's
# kernel for AVX2 (Haswell), as on an AVX2-only CPU
SECOND_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"
SECOND_BLAS = "Haswell"

# full-dynamics rides on a graded course, RK45 and BDF (at small inertia and
# at steep gravity), and the quasi-steady ride
DEMO_RUNS = {
    "demo_rk45.csv": ["terrain", "--course", "demo"],
    "demo_bdf.csv": ["terrain", "--course", "demo", "--set", "terrain.epsilon=5e-4"],
    "demo_steep_bdf.csv": ["terrain", "--course", "demo",
                           "--set", "terrain.gravity_ratio=1000"],
    "demo_quasi_steady.csv": ["terrain", "--course", "demo",
                              "--set", "terrain.quasi_steady=true"],
}

_DISPATCH_PROBE = r"""
import json, sys, warnings
with warnings.catch_warnings():
    warnings.simplefilter("error", ImportWarning)
    try:
        import numpy
    except (ImportWarning, RuntimeError) as exc:
        print(json.dumps({"rejected": str(exc).strip()}))
        sys.exit(0)
from breakaway.cli import main
codes = {name: main(argv + ["--out", name]) for name, argv in json.loads(sys.argv[1]).items()}
print(json.dumps({"codes": codes}))
"""


def test_same_bytes_under_a_second_numpy_dispatch(tmp_path):
    # printed digits must follow neither the SIMD kernel numpy picks for the
    # CPU nor the BLAS kernel
    runs = {**RUNS, **DEMO_RUNS}
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": SECOND_DISPATCH,
           "OPENBLAS_CORETYPE": SECOND_BLAS}
    out = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, json.dumps(runs)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True).stdout
    result = json.loads(out)
    if "rejected" in result:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={SECOND_DISPATCH!r}: "
                    f"{result['rejected']}")
    assert result["codes"] == {name: 0 for name in runs}
    for name in RUNS:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
    for name, argv in DEMO_RUNS.items():
        normal = tmp_path / f"normal_{name}"
        assert main(argv + ["--out", str(normal)]) == 0
        assert (tmp_path / name).read_bytes() == normal.read_bytes(), name


def test_runs_match_benchmark():
    # the benchmark replays these argument vectors against these files to
    # score its golden_ratio, so the two lists must not drift apart
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    assert RUNS == runpy.run_path(str(workloads))["GOLDEN"]
