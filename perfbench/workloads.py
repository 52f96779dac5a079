"""Seeded workload generators.

A workload is a fixed list of operations (one "pass"), generated from the
workload name and the seed alone.  One operation is one ``breakaway``
command line, i.e. one ``breakaway.cli.main(argv)`` call that prints one
table.  The program only ever sees these argument vectors.

Parameters whose cost varies a lot (the fatigue rate mu, attack positions)
are drawn by stratified sampling: one draw per equal-width stratum, in a
seeded order.  Each pass therefore covers the same range of work whatever
the seed, while every seed still gives different inputs.  That keeps the
pass time comparable from seed to seed without fixing the inputs.

Golden operations repeat the argument vectors of ``tests/golden`` exactly;
their output is compared byte for byte with the golden file of the commit
being measured.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("strategy", "terrain", "validate", "cli")

# The argument vectors behind tests/golden/*.csv (see tests/test_golden.py).
GOLDEN = {
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

TMP_DIR = ".bench_tmp"


def _num(value: float) -> str:
    return f"{value:.6g}"


def _sets(**values) -> list[str]:
    argv = []
    for key, value in values.items():
        text = _num(value) if isinstance(value, float) else str(value)
        argv += ["--set", f"{key.replace('__', '.')}={text}"]
    return argv


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            log: bool = False) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (k + rng.random()) * (b - a) / n for k in range(n)]
    rng.shuffle(draws)
    return [math.exp(d) for d in draws] if log else draws


def _antithetic(u: float, lo: float, hi: float) -> list[float]:
    """The points u and 1 - u of [lo, hi] (u in [0, 1])."""
    return [lo + u * (hi - lo), hi - u * (hi - lo)]


def _op(op_id: str, argv: list[str], golden: str | None = None) -> dict:
    return {"id": op_id, "argv": argv, "golden": golden}


def _golden(name: str) -> dict:
    return _op("golden:" + name, list(GOLDEN[name]), name)


def _course_table(rng: random.Random, points: int = 11) -> str:
    """A smooth random course with h(0) = 0, written as an (x, h) table.

    Two harmonics with random amplitudes and phases on 11 samples, scaled
    so that the steepest chord between samples has a 3% grade.  The
    cost of a full-dynamics ride follows the steepest grade; fixing it keeps
    that cost within about 10% from seed to seed.
    """
    harmonics = (1, 2)
    amps = [(rng.uniform(-1.0, 1.0) / k, rng.uniform(0.0, 2.0 * math.pi))
            for k in harmonics]
    xs = [i / (points - 1) for i in range(points)]
    hs = [sum(a * (math.sin(2.0 * math.pi * k * x + phase) - math.sin(phase))
              for k, (a, phase) in zip(harmonics, amps)) for x in xs]
    steepest = max(abs(b - a) for a, b in zip(hs, hs[1:])) * (points - 1)
    hs = [0.03 * h / steepest for h in hs]
    return "x h\n" + "".join(f"{x:.9f} {h:.9f}\n" for x, h in zip(xs, hs))


def _probes(rng: random.Random, commands: tuple[str, ...]) -> list[dict]:
    """One small op of each command a workload does not otherwise run.

    They cost 1-5% of a pass.  With them every layer is called on every
    workload, so each per-layer metric is a measurement there, never a
    constant 0, and a change that moves a layer elsewhere still shows.
    """
    make = {
        "flat": lambda: ["flat"] + _sets(strategy__risk_index=rng.uniform(0.0, 1.0)),
        "fatigue": lambda: ["fatigue"] + _sets(fatigue__mu=rng.uniform(0.5, 5.0)),
        "crash-mc": lambda: ["crash-mc", "--trials", "10000",
                             "--seed", str(rng.randrange(2**31))],
        "microstructure": lambda: ["microstructure"] + _sets(
            micro__gamma_ratio=rng.uniform(1.0, 8.0)),
        "terrain": lambda: ["terrain", "--course", "flat"] + _sets(
            terrain__quasi_steady="true",
            terrain__attack_position=rng.uniform(0.2, 0.8)),
    }
    return [_op(f"probe-{command}", make[command]()) for command in commands]


def _strategy(rng: random.Random) -> tuple[list[dict], dict]:
    ops = []
    n_fatigue = 24
    # Above mu ~ 400 one op costs 0.1-0.2 s depending on the budget, which
    # would make the pass time depend on the seed; 400 still spans the
    # quadrature's panel count 1 + mu*delta/4 from 1 to about 50.
    mus = _strata(rng, n_fatigue, 0.3, 400.0, log=True)
    betas = _strata(rng, n_fatigue, 0.0, 1.0)
    budgets = _strata(rng, n_fatigue, 0.9, 1.6)
    for k in range(n_fatigue):
        ops.append(_op(f"fatigue-{k}", ["fatigue"] + _sets(
            fatigue__mu=mus[k], strategy__risk_index=betas[k],
            strategy__energy_budget=budgets[k])))
    for k in range(12):
        if k % 2:
            fixed = _sets(strategy__energy_budget=rng.uniform(0.8, 1.8))
            sweep = _sets(sweep__parameter="strategy.risk_index",
                          sweep__lo=rng.uniform(0.0, 0.4),
                          sweep__hi=rng.uniform(0.6, 1.0))
        else:
            fixed = _sets(strategy__risk_index=rng.uniform(0.0, 1.0))
            sweep = _sets(sweep__parameter="strategy.energy_budget",
                          sweep__lo=rng.uniform(0.4, 0.9),
                          sweep__hi=rng.uniform(1.4, 2.2))
        points = _sets(sweep__points=rng.randint(11, 51))
        ops.append(_op(f"flat-sweep-{k}", ["flat"] + fixed + sweep + points))
    for name in ("flat_beta_sweep.csv", "flat_energy_sweep.csv",
                 "fatigue_beta_sweep.csv"):
        ops.append(_golden(name))
    ops += _probes(rng, ("terrain", "crash-mc", "microstructure"))
    rng.shuffle(ops)
    warmup = _op("warmup", ["fatigue"])
    return ops, {"warmup": warmup}


def _terrain(rng: random.Random, seed: int) -> tuple[list[dict], dict]:
    course = f"{TMP_DIR}/course-terrain-{seed}.txt"
    files = {course: _course_table(rng)}
    # epsilon below 1e-3 makes "auto" select BDF.  Five cheap ops (golden
    # and probes) below and four dearer rides above put the median op inside
    # the four BDF rides: the table rides, whose cost follows the seeded
    # course shape, then stay out of op_p50_s.
    groups = (("demo-rk45", ["--course", "demo"], {}),
              ("table-rk45", ["--course", course], {}),
              ("demo-bdf-a", ["--course", "demo"],
               {"terrain__epsilon": rng.uniform(4e-4, 5e-4)}),
              ("demo-bdf-b", ["--course", "demo"],
               {"terrain__epsilon": rng.uniform(5e-4, 6e-4)}))
    ops = []
    for label, course_args, scales in groups:
        # two attacks on one (course, scales) pair: an early, weaker one and
        # a late, stronger one, or the reverse.  Ride time goes as
        # (1 - x) / P^(1/3), so the pair's work varies little with u.
        u = rng.random()
        positions = _antithetic(u, 0.2, 0.8)
        powers = _antithetic(u, 3.0, 4.2)
        for k in range(2):
            ops.append(_op(f"{label}-{k}", ["terrain"] + course_args + _sets(
                terrain__attack_position=positions[k],
                terrain__attack_power=powers[k], **scales)))
    ops.append(_golden("terrain_flat.csv"))
    ops += _probes(rng, ("flat", "fatigue", "crash-mc", "microstructure"))
    rng.shuffle(ops)
    warmup = _op("warmup", ["terrain", "--course", "demo"]
                 + _sets(terrain__epsilon=5e-4))
    return ops, {"warmup": warmup, "files": files}


def _validate(rng: random.Random, seed: int) -> tuple[list[dict], dict]:
    course = f"{TMP_DIR}/course-validate-{seed}.txt"
    files = {course: _course_table(rng)}
    # 6 ops cheaper than a microstructure op, 6 microstructure ops, 4 dearer
    # Monte Carlo ops: the median op falls inside the microstructure group.
    ops = []
    for k, x_attack in enumerate(_strata(rng, 4, 0.1, 0.9)):
        ops.append(_op(f"crash-mc-{k}", [
            "crash-mc", "--trials", "1000000",
            "--seed", str(rng.randrange(2**31))] + _sets(mc__attack_position=x_attack)))
    gammas = _strata(rng, 5, 1.0, 8.0)
    powers = _strata(rng, 5, 3.5, 5.0)
    for k in range(5):
        ops.append(_op(f"microstructure-{k}", ["microstructure"] + _sets(
            micro__gamma_ratio=gammas[k], micro__attack_power=powers[k])))
    positions = _strata(rng, 2, 0.55, 0.85)
    for k, name in enumerate(("demo", course)):
        ops.append(_op(f"quasi-steady-{k}", ["terrain", "--course", name] + _sets(
            terrain__quasi_steady="true",
            terrain__attack_position=positions[k],
            terrain__attack_power=rng.uniform(2.8, 4.5))))
    # the golden terrain_flat op is the quasi-steady ride on the flat course
    for name in ("crash_mc.csv", "terrain_flat.csv", "microstructure.csv"):
        ops.append(_golden(name))
    ops += _probes(rng, ("flat", "fatigue"))
    rng.shuffle(ops)
    warmup = _op("warmup", ["microstructure"])
    return ops, {"warmup": warmup, "files": files}


def _cli(rng: random.Random) -> tuple[list[dict], dict]:
    ops = [
        _op("flat", ["flat"] + _sets(
            strategy__risk_index=rng.uniform(0.0, 1.0),
            strategy__energy_budget=rng.uniform(0.9, 1.6))),
        _golden("flat_beta_sweep.csv"),
        _op("fatigue", ["fatigue"] + _sets(
            fatigue__mu=math.exp(rng.uniform(math.log(0.3), math.log(30.0))),
            strategy__risk_index=rng.uniform(0.0, 1.0),
            strategy__energy_budget=rng.uniform(0.9, 1.6))),
        _op("crash-mc", ["crash-mc", "--trials", "100000",
                         "--seed", str(rng.randrange(2**31))]),
        _golden("microstructure.csv"),
        _golden("terrain_flat.csv"),
    ]
    rng.shuffle(ops)
    warmup = _op("warmup", ["flat"])
    return ops, {"warmup": warmup}


def generate(workload: str, seed: int) -> dict:
    """The plan of one workload: its pass, warm-up op and input files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "strategy":
        ops, extra = _strategy(rng)
    elif workload == "terrain":
        ops, extra = _terrain(rng, seed)
    elif workload == "validate":
        ops, extra = _validate(rng, seed)
    elif workload == "cli":
        ops, extra = _cli(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops,
            "warmup": extra["warmup"], "files": extra.get("files", {})}
