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

import configparser
import math
from dataclasses import dataclass

from .crash import CrashModel
from .flat import StrategyProblem
from .model import DragParams, ScaleSet

__all__ = ["ConfigError", "RunConfig", "SCHEMA"]


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> (type, default)
SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "model": {
        "cd_front": (float, 1.43),
        "cd_lurk": (float, 0.46),
        "cd_max": (float, 0.9),
        "cd_min": (float, 0.05),
        "decay": (float, 0.25),
        "cd_avg": (float, 0.9 / 1.43),
        "position": (float, 5.0),
        "mass_ratio": (float, 1.0),
    },
    "crash": {
        "n_riders": (int, 75),
        "omega": (float, 0.5),
        "intensity": (float, 2.0),
    },
    "strategy": {
        "energy_budget": (float, 1.2),
        "risk_index": (float, 0.8),
    },
    "fatigue": {
        "mu": (float, 1.0),
        # 0 means "use the lurking power", the standard assumption
        "p_sustain": (float, 0.0),
    },
    "terrain": {
        "epsilon": (float, 0.005),
        "gravity_ratio": (float, 40.0),
        "attack_position": (float, 0.5),
        "attack_power": (float, 3.6),
        "quasi_steady": (bool, False),
        "method": (str, "auto"),
        "course": (str, "demo"),
        "samples": (int, 257),
    },
    "micro": {
        "epsilon": (float, 0.005),
        "gamma_ratio": (float, 1.0),
        "attack_power": (float, 4.0),
        "samples": (int, 513),
    },
    "sweep": {
        "parameter": (str, ""),
        "lo": (float, 0.0),
        "hi": (float, 1.0),
        "points": (int, 0),
    },
    "mc": {
        "trials": (int, 100000),
        "seed": (int, 12345),
        "attack_position": (float, 0.5),
    },
    "output": {
        "format": (str, "csv"),
        "jobs": (int, 1),
    },
}


def _coerce(section: str, key: str, value) -> object:
    kind, _ = SCHEMA[section][key]
    try:
        if kind is bool:
            return value if isinstance(value, bool) else _parse_bool(value)
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")  # int() would truncate it
        coerced = kind(value)
        if kind is float and not math.isfinite(coerced):
            raise ValueError("not finite")
        return coerced
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc


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


@dataclass(frozen=True)
class RunConfig:
    """Immutable bag of effective parameter values.

    _data maps section -> key -> value and is never mutated once the config
    is built; with_value returns a new config over a copy.
    """

    _data: dict

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()})

    @classmethod
    def load(cls, config_path=None, overrides=()) -> "RunConfig":
        """Defaults, then an optional INI file, then key=value overrides."""
        data = cls.defaults()._data
        if config_path is not None:
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

    def drag_params(self) -> DragParams:
        return DragParams(cd_max=self.get("model", "cd_max"),
                          cd_min=self.get("model", "cd_min"),
                          decay=self.get("model", "decay"))

    def crash_model(self) -> CrashModel:
        return CrashModel(omega=self.get("crash", "omega"),
                          intensity=self.get("crash", "intensity"),
                          n_riders=self.get("crash", "n_riders"))

    def strategy_problem(self) -> StrategyProblem:
        return StrategyProblem(
            energy_budget=self.get("strategy", "energy_budget"),
            risk_index=self.get("strategy", "risk_index"),
            position=self.get("model", "position"),
            cd_front=self.get("model", "cd_front"),
            cd_lurk=self.get("model", "cd_lurk"),
            crash=self.crash_model(),
        )

    def p_sustain(self) -> float | None:
        value = self.get("fatigue", "p_sustain")
        return None if value <= 0.0 else value

    def terrain_scales(self) -> ScaleSet:
        return ScaleSet(inertia=self.get("terrain", "epsilon"),
                        gravity_ratio=self.get("terrain", "gravity_ratio"))
