"""The CLI's exit contract, as a property over configurations drawn from SCHEMA.

Whatever the configuration, `breakaway` exits 0, 1 (usage, configuration or
file error), 2 (numerical failure) or 3 (the Monte Carlo gate); it prints
nothing to stderr or one line starting `error:` or `numerical failure:`, never
a traceback; and an exit 1 names the configuration key at fault.
"""

import contextlib
import io
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from breakaway.cli import main  # noqa: E402
from breakaway.config import SCHEMA  # noqa: E402

COMMANDS = ("flat", "fatigue", "terrain", "crash-mc", "microstructure")
KEYS = list(SCHEMA)
# small sizes unless a key is drawn: every run stays well under a second or
# two, the ODE work budget bounding the stiff ones
CHEAP = ["terrain.samples=9", "micro.samples=9", "mc.trials=1000"]
# the size keys allocate in proportion to their value, so near their upper
# ends only the value one past it is drawn: a run at the upper end takes
# 8-17 s (a fatigue sweep, hours)
SIZES = {"terrain.samples", "micro.samples", "mc.trials", "sweep.points"}
TEXT = {
    "terrain.course": ["flat", "demo", "/missing/course.txt", ""],
    "sweep.parameter": ["", "strategy.risk_index", "model.cd_lurk", "terrain.course",
                        "terrain.quasi_steady", "nope"],
    "output.format": ["csv", "json", "xml"],
    "terrain.quasi_steady": ["true", "false", "maybe"],
}


def _ends(text):
    """The numeric ends of an interval like "[0, 1)"."""
    return [float(end) for end in text[1:-1].split(",")]


def values(name):
    """The values drawn for one key: interval ends and their neighbours
    outside, the default, tiny and huge magnitudes and junk."""
    if name in TEXT:
        return TEXT[name]
    kind, default, *allowed = SCHEMA[name]
    pool = {repr(default), "nan", "x"}
    ends = [e for e in (_ends(allowed[0]) if allowed else []) if math.isfinite(e)]
    if kind is int:
        for end in ends:
            near = (-1, 0, 1) if name not in SIZES or end == ends[0] else (1,)
            pool |= {str(int(end) + d) for d in near}
        pool |= {"10000000000000", "-3"}
    else:
        for end in ends:
            pool |= {repr(end), repr(math.nextafter(end, -math.inf)),
                     repr(math.nextafter(end, math.inf))}
        pool |= {"5e-324", "1e-300", "1e308", "-1e308", "inf"}
    return sorted(pool)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(COMMANDS))
    names = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True))
    sets = CHEAP + [f"{name}={draw(st.sampled_from(values(name)))}" for name in names]
    return [command] + [arg for item in sets for arg in ("--set", item)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(runs())
# memory grows with crash.intensity times mc.trials, which one key cannot bound
@example(["crash-mc"] + [arg for item in CHEAP + ["crash.intensity=1e308"]
                         for arg in ("--set", item)])
# a product of inputs in the attack-onset equations underflows to 0
@example(["microstructure", "--set", "micro.epsilon=1e-170"])
@example(["microstructure", "--set", "micro.gamma_ratio=1e-200",
          "--set", "model.mass_ratio=1e-200"])
def test_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in text
    lines = text.splitlines()
    assert text == "" or (len(lines) == 1 and text.endswith("\n")), (argv, text)
    assert text == "" or lines[0].startswith(("error:", "numerical failure:")), (argv, text)
    if code == 1:
        assert any(name in lines[0] for name in KEYS), (argv, text)
