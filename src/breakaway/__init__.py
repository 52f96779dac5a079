"""Breakaway strategy toolkit.

Dimensionless race model for road-cycling breakaways: drafting drag,
backward-propagating crash risk, closed-form flat-course optimization,
fatigue-limited attacks, terrain simulation and attack-onset diagnostics.
"""

from .crash import (
    CrashModel,
    exposure_simple_attack,
    involvement_given_crash,
    monte_carlo_exposure,
    propagation_probability,
)
from .fatigue import (
    FatigueResult,
    optimize_fatigue,
    p_max_from_budget,
)
from .flat import (
    Branch,
    StrategyProblem,
    StrategyResult,
    attack_power,
    critical_risk,
    earliest_attack_position,
    interior_optimum,
    min_attack_position,
    min_energy_to_win,
    min_risk_to_win,
    objective,
    optimal_attack,
    time_gap_from_position,
    time_gap_from_power,
)
from .model import (
    DragParams,
    PowerProfile,
    ScaleSet,
    drag_at_depth,
)
from .terrain import (
    BreakawayRun,
    CourseProfile,
    Trajectory,
    demo_profile,
    load_course_table,
    simulate_breakaway,
)

__version__ = "0.1.0"
