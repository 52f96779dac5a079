"""Breakaway strategy toolkit.

Dimensionless race model for road-cycling breakaways: drafting drag,
backward-propagating crash risk, closed-form flat-course optimization,
fatigue-limited attacks, terrain simulation and attack-onset diagnostics.

The public names below load their submodule on first use (PEP 562), so
importing the package, or a closed-form command, loads neither numpy nor the
simulation modules.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "crash": ("CrashModel", "exposure_simple_attack", "involvement_given_crash",
              "monte_carlo_exposure", "propagation_probability"),
    "fatigue": ("FatigueResult", "optimize_fatigue", "p_max_from_budget"),
    "flat": ("Branch", "StrategyProblem", "StrategyResult", "attack_power",
             "critical_risk", "earliest_attack_position", "interior_optimum",
             "min_attack_position", "min_energy_to_win", "min_risk_to_win",
             "objective", "optimal_attack", "time_gap_from_position"),
    "microstructure": ("DragParams", "drag_at_depth"),
    "terrain": ("BreakawayRun", "CourseProfile", "Trajectory", "demo_profile",
                "load_course_table", "simulate_breakaway"),
}
# public name -> its submodule, the one table __getattr__ reads
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
