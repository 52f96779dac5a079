"""Per-operation output checks and the output digest.

An operation fails when it exits with an unexpected code, raises or prints a
traceback, prints a table that does not parse or lacks the expected columns,
or breaks one of the command invariants below.  A golden operation whose
table differs from its golden file has not failed: it is counted apart, so
the golden ratio can show known drift.
"""

from __future__ import annotations

import hashlib
import math

COLUMNS = {
    "flat": ["x_a_min", "x_a_star", "p_a_star", "delta_t", "exposure",
             "objective", "branch", "beta_crit", "e_min_win", "beta_min_win"],
    "fatigue": ["x_a_star", "p_max_star", "t_f_star", "delta_t", "objective",
                "status", "converged", "budget_residual", "arrival_residual"],
    "terrain": ["series", "t", "x", "v", "power", "energy"],
    "crash-mc": ["analytic", "estimate", "std_error", "z_score", "trials", "seed"],
    "microstructure": ["t", "v_composite", "v_full", "rel_deviation"],
}

Z_GATE = 4.0


class CheckError(Exception):
    """An operation's output broke a check."""


def parse_table(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split a CSV table into its metadata, header and rows."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, sep, value = lines[k][2:].partition(" = ")
        if not sep:
            raise CheckError(f"bad metadata line {lines[k]!r}")
        meta[key] = value
        k += 1
    if k >= len(lines):
        raise CheckError("table has no header line")
    columns = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1:]]
    for row in rows:
        if len(row) != len(columns):
            raise CheckError("row width does not match the header")
    return meta, columns, rows


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise CheckError(f"not a number: {text!r}") from exc


_FLAG_KEYS = {"--trials": "mc.trials", "--seed": "mc.seed",
              "--course": "terrain.course"}


def _overrides(argv: list[str]) -> dict[str, str]:
    """The configuration values an argument vector sets (section.key -> value)."""
    out = {}
    for flag, value in zip(argv, argv[1:]):
        if flag == "--set":
            key, _, raw = value.partition("=")
            out[key] = raw
        elif flag in _FLAG_KEYS:
            out[_FLAG_KEYS[flag]] = value
    return out


def _same_value(echoed: str, given: str) -> bool:
    if echoed == given:
        return True
    if given.lower() in ("true", "false"):
        return echoed == given.lower()
    try:
        return math.isclose(float(echoed), float(given), rel_tol=1e-11)
    except ValueError:
        return False


def check_output(argv: list[str], text: str) -> None:
    """Raise CheckError unless the table printed for argv is well formed."""
    command = argv[0]
    meta, columns, rows = parse_table(text)
    if meta.get("run.command") != command:
        raise CheckError(f"run.command is {meta.get('run.command')!r}")
    for key, value in _overrides(argv).items():
        echoed = meta.get(f"config.{key}")
        if echoed is None or not _same_value(echoed, value):
            raise CheckError(f"config.{key} echoes {echoed!r}, not {value!r}")

    parameter = meta.get("config.sweep.parameter", "")
    points = int(_float(meta.get("config.sweep.points", "0")))
    expected = list(COLUMNS[command])
    n_rows = 1
    if command in ("flat", "fatigue") and parameter and points >= 1:
        expected = [parameter] + expected
        n_rows = points
    elif command == "terrain":
        n_rows = 2 * int(_float(meta["config.terrain.samples"]))
    elif command == "microstructure":
        n_rows = int(_float(meta["config.micro.samples"]))
    if columns != expected:
        raise CheckError(f"columns {columns} differ from {expected}")
    if len(rows) != n_rows:
        raise CheckError(f"{len(rows)} rows, expected {n_rows}")

    if command == "fatigue":
        index = columns.index("converged")
        if any(row[index] != "true" for row in rows):
            raise CheckError("a fatigue row did not converge")
    elif command == "crash-mc":
        z = _float(rows[0][columns.index("z_score")])
        if not abs(z) <= Z_GATE:
            raise CheckError(f"Monte Carlo z-score {z} beyond {Z_GATE}")
    elif command == "terrain":
        for key in ("t_peloton", "t_rider", "rider_energy", "peloton_energy"):
            value = _float(meta.get(f"summary.{key}", "nan"))
            if not (math.isfinite(value) and value > 0.0):
                raise CheckError(f"summary.{key} = {value}")
        for name in ("t", "energy"):
            index = columns.index(name)
            values = [_float(row[index]) for row in rows]
            if not all(math.isfinite(v) and v >= 0.0 for v in values):
                raise CheckError(f"terrain column {name} not finite and >= 0")
    elif command == "microstructure":
        value = _float(meta.get("summary.max_rel_deviation", "nan"))
        if not math.isfinite(value):
            raise CheckError("max_rel_deviation is not finite")


def digest(outputs: list[str]) -> str:
    """SHA-256 over the outputs of one pass, in operation order."""
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
