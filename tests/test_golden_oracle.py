"""An independent 50-digit replay of golden tables.

Each row of flat_beta_sweep.csv and flat_energy_sweep.csv is rebuilt from
the file's own ``config.*`` metadata and recomputed in mpmath at 50 digits
by a different route from the package's: the interior optimum is a root of
the objective's numerical derivative (``mp.findroot`` on ``mp.diff``), not a
root of the package's cubic in eta, and the boundary is the closed form.
terrain_flat.csv, a quasi-steady ride on the flat course, and the
``analytic`` cell of crash_mc.csv are closed forms of their metadata too.
Every cell must print the same ``.12g`` text as the golden file.
"""

from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

GOLDEN_DIR = Path(__file__).parent / "golden"
TIE = 1e-12  # the boundary wins objective ties at this resolution (flat's rule)
GRID = 128   # intervals of the scan for the objective's local minima


def _read(name):
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    header, *rows = [line.split(",") for line in lines if not line.startswith("# ")]
    return meta, header, rows


def _config(meta):
    """The config.* metadata of a golden file, keyed by section.key."""
    return {key[len("config."):]: value for key, value in meta.items()
            if key.startswith("config.")}


def _text(value):
    """A cell as the package prints it: 12 significant digits, None as nan."""
    if isinstance(value, str):
        return value
    return "nan" if value is None else f"{float(value):.12g}"


def _flat_row(p):
    """(x_a_min, x_a_star, p_a_star, delta_t, exposure, objective, branch,
    beta_crit, e_min_win, beta_min_win) of one flat run, from mpf inputs."""
    budget, beta, position = (p["strategy.energy_budget"], p["strategy.risk_index"],
                              p["model.position"])
    front, lurk = p["model.cd_front"], p["model.cd_lurk"]
    omega, intensity, riders = p["crash.omega"], p["crash.intensity"], p["crash.n_riders"]
    ratio = (1 - mp.exp(-omega * position)) / (1 - mp.exp(-omega))  # n_riders * H(i)

    def exposure(x):
        return intensity / riders * (x * ratio + 1 - x)

    def gap(x):
        return (1 - x) - (1 - x) ** 1.5 * mp.sqrt(front / (budget - lurk * x))

    def power(x):
        return ((budget - lurk * x) / (mp.cbrt(front) * (1 - x))) ** 1.5

    def objective(x):
        return -beta * gap(x) + (1 - beta) * exposure(x)

    assert budget >= lurk  # both sweeps can win
    x_min = max((front - budget) / (front - lurk), mp.zero)
    # at an x_min above 0 the budget buys exactly the front drag: no gap
    best = ((x_min, front, mp.zero) if x_min > 0 else (x_min, power(x_min), gap(x_min)))
    best_value = -beta * best[2] + (1 - beta) * exposure(x_min)
    branch = "boundary"
    if beta > 0:
        def slope(x):
            return mp.diff(objective, x)

        xs = [x_min + (1 - x_min) * k / GRID for k in range(1, GRID)]
        for a, b in zip(xs, xs[1:]):
            if slope(a) < 0 < slope(b):
                x = mp.findroot(slope, (a, b), solver="anderson")
                if objective(x) < best_value - TIE:
                    best, best_value, branch = (x, power(x), gap(x)), objective(x), "interior"
    x, p_star, delta_t = best

    a = intensity / riders * (ratio - 1)
    beta_crit = a / (a + (1 - lurk / front) / 2)
    e_min_win = front if beta < beta_crit else lurk
    beta_min_win = None if budget <= lurk else 0 if budget >= front else beta_crit
    return [x_min, x, p_star, delta_t, exposure(x), best_value, branch,
            beta_crit, e_min_win, beta_min_win]


@pytest.mark.parametrize("name", ["flat_beta_sweep.csv", "flat_energy_sweep.csv"])
def test_flat_golden_cells_hold_at_50_digits(name):
    meta, header, rows = _read(name)
    config = _config(meta)
    swept = config["sweep.parameter"]
    assert header[0] == swept and meta["run.command"] == "flat"
    with mp.workdps(50):
        inputs = {key: mp.mpf(config[key]) for key in (
            "strategy.energy_budget", "strategy.risk_index", "model.position",
            "model.cd_front", "model.cd_lurk", "crash.omega", "crash.intensity",
            "crash.n_riders")}
        lo, hi = mp.mpf(config["sweep.lo"]), mp.mpf(config["sweep.hi"])
        points = int(config["sweep.points"])
        assert len(rows) == points
        wrong = []
        for k, row in enumerate(rows):
            value = lo + (hi - lo) * k / (points - 1)
            cells = [_text(c) for c in [value] + _flat_row({**inputs, swept: value})]
            wrong += [(k, column, got, want) for column, got, want in zip(header, row, cells)
                      if got != want]
    assert wrong == []


def test_terrain_flat_golden_cells_hold_at_50_digits():
    # on the flat course the peloton rides at unit speed and power; the
    # rider lurks at its speed, at power m + (cd_lurk - m), up to x_a and
    # then holds the speed V = (P / cd_front)^(1/3)
    meta, header, rows = _read("terrain_flat.csv")
    config = _config(meta)
    assert meta["run.command"] == "terrain" and config["terrain.course"] == "flat"
    assert config["terrain.quasi_steady"] == "true"
    with mp.workdps(50):
        x_a, power, front, lurk, mass = (mp.mpf(config[key]) for key in (
            "terrain.attack_position", "terrain.attack_power", "model.cd_front",
            "model.cd_lurk", "model.mass_ratio"))
        speed = mp.cbrt(power / front)

        def rider(x):  # (t, v, power, energy) at x
            if x <= x_a:
                lurking = mass + (lurk - mass)
                return x, 1, lurking, lurking * x
            return (x_a + (x - x_a) / speed, speed, power,
                    lurk * x_a + power * (x - x_a) / speed)

        def peloton(x):
            return x, 1, 1, x

        samples = int(config["terrain.samples"])
        xs = [mp.mpf(k) / (samples - 1) for k in range(samples)]
        want = [[series, *map(_text, (t, x, v, p, e))]
                for series, ride in (("rider", rider), ("peloton", peloton))
                for x, (t, v, p, e) in zip(xs, map(ride, xs))]
        t_rider, _, _, e_rider = rider(mp.one)
        summary = {"course": "flat", "t_peloton": 1, "t_rider": t_rider,
                   "delta_t": 1 - t_rider, "attack_time": x_a, "rider_energy": e_rider,
                   "peloton_energy": 1}
    assert header == ["series", "t", "x", "v", "power", "energy"]
    assert rows == want
    assert {key: value for key, value in meta.items() if key.startswith("summary.")} == {
        f"summary.{key}": _text(value) for key, value in summary.items()}


def test_crash_mc_analytic_cell_holds_at_50_digits():
    # the exposure of an attack at x from start rank i: lambda / N (x r + 1 - x),
    # r the chance that a crash involves rank i over the front rider's chance
    meta, header, rows = _read("crash_mc.csv")
    config = _config(meta)
    assert meta["run.command"] == "crash-mc" and len(rows) == 1
    with mp.workdps(50):
        x, rank, omega, intensity, riders = (mp.mpf(config[key]) for key in (
            "mc.attack_position", "model.position", "crash.omega", "crash.intensity",
            "crash.n_riders"))
        ratio = mp.expm1(-omega * rank) / mp.expm1(-omega)
        analytic = intensity / riders * (x * ratio + 1 - x)
    assert rows[0][header.index("analytic")] == _text(analytic)
