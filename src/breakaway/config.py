"""Run configuration: calibrated defaults, INI files, and overrides.

Every key is optional; the defaults reproduce the standard calibration
(position 5, lurking power 0.46, front drag 1.43, drag decay 0.25,
propagation rate 0.5, two crashes per stage, 75 riders), so a zero-config
run exercises the reference setup.  A key is named ``section.key`` in the
flat schema below, in ``RunConfig.get``, in the echoed metadata and in the
repeatable ``--set section.key=value`` overrides (which may omit the section
when the key is unambiguous); a config file gives it, read verbatim, as
``key = value`` under a ``[section]`` header.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .crash import CrashModel
from .flat import StrategyProblem

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


# "section.key" -> (type, default[, allowed: choices, or an interval like "[0, 1)"]),
# in section order: a bare key's ambiguity error lists its sections in it.
# The upper ends of the four sizes keep a run under 1 GiB: peak RSS of one
# child process at the end, JSON output, was 621 MiB for terrain.samples
# (the demo ride), 510 MiB for micro.samples, 707 MiB for sweep.points (a
# flat sweep) and 77 MiB for mc.trials (crash.intensity 2; 620 MiB at position 75).
SCHEMA: dict[str, tuple] = {
    "model.cd_front": (float, 1.43, "(0, inf)"),
    "model.cd_lurk": (float, 0.46, "(0, inf)"),  # < cd_front, see strategy_problem
    "model.cd_max": (float, 0.9, "(0, inf)"),
    "model.cd_min": (float, 0.05, "(0, inf)"),   # < cd_max, see drag_params
    "model.decay": (float, 0.25, "(0, inf)"),
    "model.cd_avg": (float, 0.9 / 1.43, "(0, inf)"),
    "model.position": (float, 5.0, "[1, inf)"),
    "model.mass_ratio": (float, 1.0, "(0, inf)"),
    "crash.n_riders": (int, 75, "[1, inf)"),
    "crash.omega": (float, 0.5, "(0, inf)"),
    "crash.intensity": (float, 2.0, "[0, inf)"),
    "strategy.energy_budget": (float, 1.2, "[0, inf)"),
    "strategy.risk_index": (float, 0.8, "[0, 1]"),
    "fatigue.mu": (float, 1.0, "[0, inf)"),
    # 0 means "use the lurking power", the standard assumption
    "fatigue.p_sustain": (float, 0.0, "[0, inf)"),
    "terrain.epsilon": (float, 0.005, "(0, inf)"),
    "terrain.gravity_ratio": (float, 40.0),
    "terrain.attack_position": (float, 0.5, "[0, 1)"),
    "terrain.attack_power": (float, 3.6),
    "terrain.quasi_steady": (bool, False),
    "terrain.course": (str, "demo"),
    "terrain.samples": (int, 257, "[0, 250000]"),
    "micro.epsilon": (float, 0.005, "(0, inf)"),
    "micro.gamma_ratio": (float, 1.0, "(0, inf)"),
    "micro.attack_power": (float, 4.0, "(0, inf)"),  # see cmd_microstructure
    "micro.samples": (int, 513, "[1, 500000]"),
    "sweep.parameter": (str, ""),
    "sweep.lo": (float, 0.0),
    "sweep.hi": (float, 1.0),
    "sweep.points": (int, 0, "[0, 250000]"),
    "mc.trials": (int, 100000, "[2, 50000000]"),  # one trial has no std. error
    "mc.seed": (int, 12345, "[0, inf)"),
    "mc.attack_position": (float, 0.5, "[0, 1]"),
    "output.format": (str, "csv", ("csv", "json")),
}


def _allows(allowed, value) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    return ((lo <= value) if allowed[0] == "[" else (lo < value)) and (
        (value <= hi) if allowed[-1] == "]" else (value < hi))


def _coerce(name: str, value) -> object:
    kind, _, *allowed = SCHEMA[name]
    try:
        if kind is bool:
            return value if isinstance(value, bool) else _parse_bool(value)
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")  # int() would truncate it
        coerced = kind(value)
        if kind is float and not math.isfinite(coerced):
            raise ValueError("not finite")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {value!r}") from exc
    if allowed and not _allows(allowed[0], coerced):
        shown = ", ".join(allowed[0]) if isinstance(allowed[0], tuple) else allowed[0]
        raise ConfigError(f"bad value for {name}: {value!r} (allowed: {shown})")
    return coerced


def _resolve_key(name: str) -> str:
    """The full section.key name of a key given with or without its section."""
    if name in SCHEMA:
        return name
    hits = [] if "." in name else [full for full in SCHEMA if full.partition(".")[2] == name]
    if not hits:
        raise ConfigError(f"unknown configuration key {name!r}")
    if len(hits) > 1:
        raise ConfigError(f"ambiguous key {name!r}; use one of: {', '.join(hits)}")
    return hits[0]


class RunConfig(tuple):
    """Immutable bag of effective parameter values, equal by value.

    _data maps each section.key name to its value and is never mutated once
    the config is built; with_value returns a new config over a copy.
    """

    __slots__ = ()
    _data = property(itemgetter(0))

    def __new__(cls, _data: dict):
        return tuple.__new__(cls, (_data,))

    def __getnewargs__(self):  # copy and pickle call __new__(cls, _data)
        return tuple(self)

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({name: default for name, (_, default, *_) in SCHEMA.items()})

    @classmethod
    def load(cls, config_path=None, overrides=()) -> "RunConfig":
        """Defaults, then an optional INI file, then key=value overrides."""
        data = cls.defaults()._data
        if config_path is not None:
            import configparser  # only a config file needs it

            # values verbatim (no % interpolation); [DEFAULT] unknown (no header names "\n")
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                               interpolation=None, default_section="\n")
            parser.optionxform = str  # key names keep their case, as --set keys do
            try:  # utf-8-sig: a byte-order mark is no part of the first line
                with open(config_path, "r", encoding="utf-8-sig") as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"malformed config file: {config_path!r} "
                                  f"is not UTF-8 text") from exc
            except configparser.Error as exc:  # its text may run over several lines
                reason = " ".join(line.strip() for line in str(exc).splitlines())
                raise ConfigError(f"malformed config file: {reason}") from exc
            for section in parser.sections():
                if not any(name.startswith(f"{section}.") for name in SCHEMA):
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    name = f"{section}.{key}"
                    if name not in SCHEMA:
                        raise ConfigError(f"unknown key {name}")
                    data[name] = _coerce(name, raw)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must look like key=value: {item!r}")
            name, raw = item.split("=", 1)
            name = _resolve_key(name.strip())
            data[name] = _coerce(name, raw.strip())
        return cls(data)

    def get(self, name: str):
        return self._data[name]

    def with_value(self, name: str, value) -> "RunConfig":
        name = _resolve_key(name)
        return RunConfig({**self._data, name: _coerce(name, value)})

    def echo_items(self) -> list[tuple[str, object]]:
        """(section.key, value) pairs sufficient to reproduce the run, sorted:
        by section, then key, as "." sorts below every name character."""
        return sorted(self._data.items())

    # -- builders ------------------------------------------------------------

    def _order_error(self, name: str, bound: str, exc: ValueError) -> ConfigError:
        # the per-key ranges leave only the order of a key pair to the records' checks
        return ConfigError(f"bad value for {name}: {self.get(name)!r} "
                           f"({exc}; {bound} = {self.get(bound)!r})")

    def drag_params(self):
        from .microstructure import DragParams  # only a microstructure run needs it

        try:
            return DragParams(cd_max=self.get("model.cd_max"),
                              cd_min=self.get("model.cd_min"),
                              decay=self.get("model.decay"))
        except ValueError as exc:
            raise self._order_error("model.cd_min", "model.cd_max", exc) from exc

    def crash_model(self) -> CrashModel:
        return CrashModel(omega=self.get("crash.omega"),
                          intensity=self.get("crash.intensity"),
                          n_riders=self.get("crash.n_riders"))

    def strategy_problem(self) -> StrategyProblem:
        position, crash = self.get("model.position"), self.crash_model()
        try:
            return StrategyProblem(
                energy_budget=self.get("strategy.energy_budget"),
                risk_index=self.get("strategy.risk_index"),
                position=position,
                cd_front=self.get("model.cd_front"),
                cd_lurk=self.get("model.cd_lurk"),
                crash=crash,
            )
        except ValueError as exc:  # the record checks the rider's depth first
            if position > crash.n_riders:
                raise self._order_error("model.position", "crash.n_riders", exc) from exc
            raise self._order_error("model.cd_lurk", "model.cd_front", exc) from exc

    def p_sustain(self) -> float | None:
        value = self.get("fatigue.p_sustain")
        return None if value <= 0.0 else value
