"""Run configuration: calibrated defaults, INI files, and overrides.

Every key is optional; the defaults reproduce the standard calibration
(position 5, lurking power 0.46, front drag 1.43, drag decay 0.25,
propagation rate 0.5, two crashes per stage, 75 riders), so a zero-config
run exercises the reference setup.  A config file uses INI sections matching
the schema below, and individual values can be overridden on the command
line with repeated ``--set section.key=value`` flags (the section may be
omitted when the key is unambiguous).
"""

from __future__ import annotations

import math

from .crash import CrashModel
from .flat import StrategyProblem
from .model import DragParams

__all__ = ["ConfigError", "CourseFileError", "RunConfig", "SCHEMA"]


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


class CourseFileError(ValueError):
    """A course table file (terrain.course) could not be parsed."""


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> (type, default[, allowed: choices, or an interval like "[0, 1)"]).
# The upper ends of the four sizes keep a run under 1 GiB: peak RSS of one
# child process at the end, JSON output, was 621 MiB for terrain.samples
# (the demo ride), 510 MiB for micro.samples, 707 MiB for sweep.points (a
# flat sweep) and 337 MiB for mc.trials (at crash.intensity 2).
SCHEMA: dict[str, dict[str, tuple]] = {
    "model": {
        "cd_front": (float, 1.43, "(0, inf)"),
        "cd_lurk": (float, 0.46, "(0, inf)"),  # < cd_front, see strategy_problem
        "cd_max": (float, 0.9, "(0, inf)"),
        "cd_min": (float, 0.05, "(0, inf)"),   # < cd_max, see drag_params
        "decay": (float, 0.25, "(0, inf)"),
        "cd_avg": (float, 0.9 / 1.43, "(0, inf)"),
        "position": (float, 5.0, "[1, inf)"),
        "mass_ratio": (float, 1.0, "(0, inf)"),
    },
    "crash": {
        "n_riders": (int, 75, "[1, inf)"),
        "omega": (float, 0.5, "(0, inf)"),
        "intensity": (float, 2.0, "[0, inf)"),
    },
    "strategy": {
        "energy_budget": (float, 1.2, "[0, inf)"),
        "risk_index": (float, 0.8, "[0, 1]"),
    },
    "fatigue": {
        "mu": (float, 1.0, "[0, inf)"),
        # 0 means "use the lurking power", the standard assumption
        "p_sustain": (float, 0.0, "[0, inf)"),
    },
    "terrain": {
        "epsilon": (float, 0.005, "(0, inf)"),
        "gravity_ratio": (float, 40.0),
        "attack_position": (float, 0.5, "[0, 1)"),
        "attack_power": (float, 3.6),
        "quasi_steady": (bool, False),
        "course": (str, "demo"),
        "samples": (int, 257, "[0, 250000]"),
    },
    "micro": {
        "epsilon": (float, 0.005, "(0, inf)"),
        "gamma_ratio": (float, 1.0, "(0, inf)"),
        "attack_power": (float, 4.0, "(0, inf)"),  # see cmd_microstructure
        "samples": (int, 513, "[1, 500000]"),
    },
    "sweep": {
        "parameter": (str, ""),
        "lo": (float, 0.0),
        "hi": (float, 1.0),
        "points": (int, 0, "[0, 250000]"),
    },
    "mc": {
        "trials": (int, 100000, "[2, 50000000]"),  # one trial has no std. error
        "seed": (int, 12345, "[0, inf)"),
        "attack_position": (float, 0.5, "[0, 1]"),
    },
    "output": {
        "format": (str, "csv", ("csv", "json")),
    },
}


def _allows(allowed, value) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    return ((lo <= value) if allowed[0] == "[" else (lo < value)) and (
        (value <= hi) if allowed[-1] == "]" else (value < hi))


def _coerce(section: str, key: str, value) -> object:
    kind, _, *allowed = SCHEMA[section][key]
    try:
        if kind is bool:
            return value if isinstance(value, bool) else _parse_bool(value)
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")  # int() would truncate it
        coerced = kind(value)
        if kind is float and not math.isfinite(coerced):
            raise ValueError("not finite")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
    if allowed and not _allows(allowed[0], coerced):
        shown = ", ".join(allowed[0]) if isinstance(allowed[0], tuple) else allowed[0]
        raise ConfigError(f"bad value for {section}.{key}: {value!r} (allowed: {shown})")
    return coerced


def _resolve_key(name: str) -> tuple[str, str]:
    if "." in name:
        section, key = name.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown configuration key {name!r}")
        return section, key
    hits = [(s, k) for s, keys in SCHEMA.items() for k in keys if k == name]
    if not hits:
        raise ConfigError(f"unknown configuration key {name!r}")
    if len(hits) > 1:
        options = ", ".join(f"{s}.{k}" for s, k in hits)
        raise ConfigError(f"ambiguous key {name!r}; use one of: {options}")
    return hits[0]


class RunConfig:
    """Immutable bag of effective parameter values, equal by value.

    _data maps section -> key -> value and is never mutated once the config
    is built; with_value returns a new config over a copy.
    """

    __slots__ = ("_data",)

    def __init__(self, _data: dict):
        object.__setattr__(self, "_data", _data)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._data == other._data if type(other) is RunConfig else NotImplemented

    def __repr__(self):
        return f"RunConfig(_data={self._data!r})"

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({s: {k: d for k, (_, d, *_) in keys.items()} for s, keys in SCHEMA.items()})

    @classmethod
    def load(cls, config_path=None, overrides=()) -> "RunConfig":
        """Defaults, then an optional INI file, then key=value overrides."""
        data = cls.defaults()._data
        if config_path is not None:
            import configparser  # only a config file needs it

            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"malformed config file: {exc}") from exc
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    if key not in SCHEMA[section]:
                        raise ConfigError(f"unknown key {section}.{key}")
                    data[section][key] = _coerce(section, key, raw)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must look like key=value: {item!r}")
            name, raw = item.split("=", 1)
            section, key = _resolve_key(name.strip())
            data[section][key] = _coerce(section, key, raw.strip())
        return cls(data)

    def get(self, section: str, key: str):
        return self._data[section][key]

    def with_value(self, name: str, value) -> "RunConfig":
        section, key = _resolve_key(name)
        data = {s: dict(keys) for s, keys in self._data.items()}
        data[section][key] = _coerce(section, key, value)
        return RunConfig(data)

    def echo_items(self) -> list[tuple[str, object]]:
        """Flat (section.key, value) pairs, sorted, sufficient to reproduce the run."""
        return [(f"{section}.{key}", self._data[section][key])
                for section in sorted(self._data)
                for key in sorted(self._data[section])]

    # -- builders ------------------------------------------------------------

    def _order_error(self, key: str, bound: str, exc: ValueError) -> ConfigError:
        # the per-key ranges leave only the order of a key pair to the records' checks
        return ConfigError(f"bad value for model.{key}: {self.get('model', key)!r} "
                           f"({exc}; model.{bound} = {self.get('model', bound)!r})")

    def drag_params(self) -> DragParams:
        try:
            return DragParams(cd_max=self.get("model", "cd_max"),
                              cd_min=self.get("model", "cd_min"),
                              decay=self.get("model", "decay"))
        except ValueError as exc:
            raise self._order_error("cd_min", "cd_max", exc) from exc

    def crash_model(self) -> CrashModel:
        return CrashModel(omega=self.get("crash", "omega"),
                          intensity=self.get("crash", "intensity"),
                          n_riders=self.get("crash", "n_riders"))

    def strategy_problem(self) -> StrategyProblem:
        try:
            return StrategyProblem(
                energy_budget=self.get("strategy", "energy_budget"),
                risk_index=self.get("strategy", "risk_index"),
                position=self.get("model", "position"),
                cd_front=self.get("model", "cd_front"),
                cd_lurk=self.get("model", "cd_lurk"),
                crash=self.crash_model(),
            )
        except ValueError as exc:
            raise self._order_error("cd_lurk", "cd_front", exc) from exc

    def p_sustain(self) -> float | None:
        value = self.get("fatigue", "p_sustain")
        return None if value <= 0.0 else value
