"""Command-line interface: one subcommand per analysis, tables out.

``_COMMANDS`` names each subcommand with its handler and help text: the flat
and fatigue optima (each optionally swept over one numeric key, a sweep the
other commands refuse), the terrain race simulation, the crash Monte Carlo
check and the attack-onset velocity series.
Every option but ``--config`` and ``--out`` sets a configuration key:
``--set section.key=value`` any key, and each flag in ``_FLAGS`` its own.

Every run prints (or writes with --out) a single table whose metadata block
echoes the complete effective configuration; re-running with the same
configuration and seed reproduces the output byte for byte.  Exit codes:
0 success, 1 usage, configuration or file error, 2 numerical failure, 3 the
Monte Carlo statistical gate tripped.  Each command loads only the modules
it runs: numpy only for crash-mc, the fatigue module only for fatigue, and
the ODE integrators only for terrain and microstructure.

``main(argv)`` returns the exit code, also after --help and --version, and
may be called repeatedly in one process.  The argument parser
is built once, at the first call, and reused by every later call: parsing
leaves no state in it, and building it costs more than a flat solve.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, flat
from .config import SCHEMA, ConfigError, RunConfig, _resolve_key
from .crash import exposure_simple_attack, monte_carlo_exposure
from .numerics import NumericsError, linspace
from .tables import ResultTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_STATISTICAL = 3

_Z_GATE = 4.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


# flag -> (the key it sets, its argparse options), applied after --config and --set
_FLAGS = {
    "format": ("output.format", {"choices": ("csv", "json"),
                                 "help": "output format (default from config)"}),
    "seed": ("mc.seed", {"type": int, "help": "Monte Carlo seed"}),
    "trials": ("mc.trials", {"type": int, "help": "Monte Carlo trial count"}),
    "course": ("terrain.course", {"metavar": "PATH",
                                  "help": "course table file, or 'flat' / 'demo'"}),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="INI configuration file")
    sub.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                     dest="overrides", help="override one configuration value")
    sub.add_argument("--out", metavar="PATH", help="write the table here instead of stdout")
    for flag, (_, options) in _FLAGS.items():
        sub.add_argument(f"--{flag}", **options)


@functools.cache  # not at import: `import breakaway.cli` stays cheap
def build_parser() -> _Parser:
    parser = _Parser(prog="breakaway",
                     description="Breakaway strategy analysis and simulation")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_common(subs.add_parser(name, help=help_text))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.load(args.config, args.overrides)
    for flag, (name, _) in _FLAGS.items():
        if (value := getattr(args, flag)) is not None:
            cfg = cfg.with_value(name, value)
    # peeked, not get(): a command that does not sweep reads no sweep key
    parameter = cfg._data["sweep.parameter"] if cfg._data["sweep.points"] >= 1 else ""
    if parameter and args.command not in ("flat", "fatigue"):
        raise ConfigError(f"bad value for sweep.parameter: {parameter!r} "
                          f"({args.command} does not sweep)")
    return cfg


def _new_table(command: str, cfg: RunConfig, columns: list[str]) -> ResultTable:
    table = ResultTable(columns=columns)
    table.add_metadata("run.tool", "breakaway")
    table.add_metadata("run.version", __version__)
    table.add_metadata("run.command", command)
    table.add_metadata("run.units", "dimensionless")
    for key, value in cfg.echo_items():
        table.add_metadata(f"config.{key}", value)
    return table


def _sweep(command: str, cfg: RunConfig, columns: list[str], row_fn):
    """One row per sweep point (or one row without a sweep), in sweep order.

    A sweep prepends the swept key's effective value to every row, headed by
    sweep.parameter as given.  Returns the table and the raw rows.
    """
    parameter = cfg.get("sweep.parameter")
    points = cfg.get("sweep.points")
    swept = bool(parameter) and points >= 1
    configs = [cfg]
    if swept:
        name = _resolve_key(parameter)
        if SCHEMA[name][0] not in (int, float):
            raise ConfigError(f"bad value for sweep.parameter: {parameter!r} (not a number)")
        values = linspace(cfg.get("sweep.lo"), cfg.get("sweep.hi"), points)
        configs = [cfg.with_value(name, v) for v in values]
        columns = [parameter] + columns
    table = _new_table(command, cfg, columns)
    rows = [row_fn(point_cfg) for point_cfg in configs]
    for point_cfg, row in zip(configs, rows):
        if swept:
            row = [point_cfg.get(name)] + row
        table.add_row(*row)
    return table, rows


# -- flat ---------------------------------------------------------------------


def _flat_row(cfg: RunConfig) -> list:
    problem = cfg.strategy_problem()
    result = flat.optimal_attack(problem)
    beta_crit = flat.critical_risk(problem)
    e_min = flat.min_energy_to_win(problem, problem.risk_index)
    beta_min = flat.min_risk_to_win(problem, problem.energy_budget)
    return [
        flat.min_attack_position(problem),
        result.attack_position,
        result.attack_power,
        result.time_gap,
        result.exposure,
        result.objective,
        result.branch,
        beta_crit,
        e_min,
        beta_min,
    ]


def cmd_flat(cfg: RunConfig) -> tuple[ResultTable, int]:
    table, _ = _sweep("flat", cfg,
                      ["x_a_min", "x_a_star", "p_a_star", "delta_t", "exposure",
                       "objective", "branch", "beta_crit", "e_min_win",
                       "beta_min_win"], _flat_row)
    return table, EXIT_OK


# -- fatigue ------------------------------------------------------------------


def cmd_fatigue(cfg: RunConfig) -> tuple[ResultTable, int]:
    from . import fatigue

    def fatigue_row(point_cfg: RunConfig) -> list:
        result = fatigue.optimize_fatigue(point_cfg.strategy_problem(),
                                          mu=point_cfg.get("fatigue.mu"),
                                          p_sustain=point_cfg.p_sustain())
        return [
            result.attack_position,
            result.peak_power,
            result.finish_time,
            result.time_gap,
            result.objective,
            result.status,
            bool(result.converged),
            fatigue.reported_residual(result.budget_residual),
            fatigue.reported_residual(result.arrival_residual),
        ]

    table, rows = _sweep("fatigue", cfg,
                         ["x_a_star", "p_max_star", "t_f_star", "delta_t",
                          "objective", "status", "converged", "budget_residual",
                          "arrival_residual"], fatigue_row)
    # partial failure: the rows that did not converge are still emitted
    converged = all(row[6] for row in rows)
    return table, EXIT_OK if converged else EXIT_NUMERICAL


# -- terrain ------------------------------------------------------------------


def cmd_terrain(cfg: RunConfig) -> tuple[ResultTable, int]:
    from . import terrain

    name = cfg.get("terrain.course")
    if name == "flat":
        profile = terrain.CourseProfile.flat()
    elif name == "demo":
        profile = terrain.demo_profile()
    else:
        try:
            profile = terrain.load_course_table(name)
        except (terrain.CourseFileError, OSError) as exc:  # an input, not a solver failure
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"bad value for terrain.course: {name!r} ({reason})") from exc
    epsilon = cfg.get("terrain.epsilon")  # read even when quasi-steady ignores it
    power = cfg.get("terrain.attack_power")
    attack = None if power <= 0.0 else power
    run = terrain.simulate_breakaway(
        cfg.get("terrain.attack_position"), attack, profile,
        inertia=0.0 if cfg.get("terrain.quasi_steady") else epsilon,
        gravity_ratio=cfg.get("terrain.gravity_ratio"),
        cd_front=cfg.get("model.cd_front"), cd_lurk=cfg.get("model.cd_lurk"),
        mass_ratio=cfg.get("model.mass_ratio"))
    table = _new_table("terrain", cfg,
                       ["series", "t", "x", "v", "power", "energy"])
    table.add_metadata("summary.course", profile.label)
    table.add_metadata("summary.t_peloton", run.peloton.finish_time)
    table.add_metadata("summary.t_rider", run.rider.finish_time)
    table.add_metadata("summary.delta_t", run.time_gap)
    table.add_metadata("summary.attack_time", run.attack_time)
    table.add_metadata("summary.rider_energy", run.rider_energy)
    table.add_metadata("summary.peloton_energy", run.peloton_energy)
    # both groups' rows at the same evenly spaced positions; a rider row at
    # or before the attack is the lurk's
    positions = linspace(0.0, 1.0, cfg.get("terrain.samples"))
    for label, traj in (("rider", run.rider), ("peloton", run.peloton)):
        for x, (t, v, p, e) in zip(positions, traj.sample(positions)):
            table.add_row(label, t, x, v, p, e)
    return table, EXIT_OK


# -- crash Monte Carlo ----------------------------------------------------------


def cmd_crash_mc(cfg: RunConfig) -> tuple[ResultTable, int]:
    model = cfg.crash_model()
    position = cfg.get("model.position")
    x_attack = cfg.get("mc.attack_position")
    trials = cfg.get("mc.trials")
    seed = cfg.get("mc.seed")
    if not (position.is_integer() and position <= model.n_riders):  # a rank the MC draws
        raise ConfigError(f"bad value for model.position: {position!r} (crash-mc needs a "
                          f"whole start rank, at most crash.n_riders = {model.n_riders})")
    analytic = exposure_simple_attack(x_attack, position, model)
    try:  # the crash count, intensity times trials, is capped before any allocation
        estimate, stderr = monte_carlo_exposure(x_attack, position, trials, seed, model)
    except ValueError as exc:
        raise ConfigError(f"bad value for crash.intensity: {model.intensity!r} "
                          f"at mc.trials = {trials} ({exc})") from exc
    z = 0.0 if stderr == 0.0 else (estimate - analytic) / stderr
    table = _new_table("crash-mc", cfg,
                       ["analytic", "estimate", "std_error", "z_score",
                        "trials", "seed"])
    table.add_row(analytic, estimate, stderr, z, trials, seed)
    code = EXIT_OK if abs(z) <= _Z_GATE else EXIT_STATISTICAL
    return table, code


# -- microstructure -------------------------------------------------------------


def cmd_microstructure(cfg: RunConfig) -> tuple[ResultTable, int]:
    from . import microstructure

    drag = cfg.drag_params()
    power = cfg.get("micro.attack_power")
    try:
        onset = microstructure.attack_onset(
            cfg.get("micro.epsilon"), cfg.get("model.position"), power,
            drag, cfg.get("model.cd_avg"),
            mass_ratio=cfg.get("model.mass_ratio"),
            gamma_ratio=cfg.get("micro.gamma_ratio"),
            n_samples=cfg.get("micro.samples"))
    except microstructure.StartDragError as exc:  # an input, not a solver failure
        raise ConfigError(f"bad value for micro.attack_power: "
                          f"{power!r} ({exc})") from exc
    table = _new_table("microstructure", cfg,
                       ["t", "v_composite", "v_full", "rel_deviation"])
    table.add_metadata("summary.max_rel_deviation", max(onset.rel_deviation))
    table.add_metadata("summary.front_speed", onset.front_speed)
    table.add_metadata("summary.terminal_speed", onset.terminal_speed)
    table.add_metadata("summary.passage_duration_inner", onset.passage_duration)
    table.add_metadata("summary.front_crossing_time", onset.front_crossing_time)
    for row in zip(onset.times, onset.v_composite, onset.v_full,
                   onset.rel_deviation):
        table.add_row(*row)
    return table, EXIT_OK


# command -> (handler, help text); build_parser adds one subcommand per entry
_COMMANDS = {
    "flat": (cmd_flat, "closed-form flat-course optimum"),
    "fatigue": (cmd_fatigue, "fatigue-limited attack optimization"),
    "terrain": (cmd_terrain, "race simulation over a course profile"),
    "crash-mc": (cmd_crash_mc, "Monte Carlo check of the crash exposure"),
    "microstructure": (cmd_microstructure, "attack-onset velocity diagnostics"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        table, code = _COMMANDS[args.command][0](cfg)
        table.write(cfg.get("output.format"), args.out)
        return code
    except SystemExit:  # argparse's --help and --version, their text printed
        return EXIT_OK
    except (UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError:  # Python's own text names neither input nor place
        print(f"numerical failure: {args.command}: an input overflowed a float",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
