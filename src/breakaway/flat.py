"""Flat-course breakaway analysis in closed form.

A rider lurks at drafting position i spending the lurking power cd_lurk,
attacks at course position x_a with a constant power that exhausts the
energy budget exactly at the finish, and rides the rest solo at the front
drag cd_front.  The time gap over the peloton and the crash exposure then
have explicit formulas, and the risk-weighted objective

    M(x_a) = -beta * time_gap(x_a) + (1 - beta) * exposure(x_a)

is minimized either at the earliest feasible attack point or at an interior
stationary point given by a depressed cubic.  Attacks requested before the
feasibility boundary cannot outrun the peloton; the rider finishes with the
group and the objective is flat there (no credit for an escape that never
happens).
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .crash import CrashModel, exposure_simple_attack, involvement_given_crash
from .model import CD_FRONT_CALIBRATED, CD_LURK_CALIBRATED
from .numerics import solve_cubic_real

__all__ = [
    "Branch",
    "StrategyProblem",
    "StrategyResult",
    "InteriorOptimum",
    "InfeasibleAttackError",
    "earliest_attack_position",
    "min_attack_position",
    "attack_power",
    "time_gap_from_position",
    "objective",
    "interior_optimum",
    "optimal_attack",
    "critical_risk",
    "min_energy_to_win",
    "min_risk_to_win",
]

_TIE_TOL = 1e-12  # boundary wins objective ties at this resolution


class InfeasibleAttackError(ValueError):
    """The requested attack cannot outrun the peloton."""


class Branch(enum.Enum):
    BOUNDARY = "boundary"
    INTERIOR = "interior"
    NO_WIN = "no_win"


class StrategyProblem(namedtuple("StrategyProblem", "energy_budget risk_index position "
                                                   "cd_front cd_lurk crash")):
    """Inputs for one flat-course strategy optimization.

    cd_front and cd_lurk are the solo (front) drag ratio and the lurking
    power at the rider's position; they are independent calibration inputs.
    """

    __slots__ = ()

    def __new__(cls, energy_budget: float = 1.2, risk_index: float = 0.8,
                position: float = 5.0, cd_front: float = CD_FRONT_CALIBRATED,
                cd_lurk: float = CD_LURK_CALIBRATED, crash: CrashModel = CrashModel()):
        if not 0.0 <= risk_index <= 1.0:
            raise ValueError("risk_index must lie in [0, 1]")
        if not 0.0 < cd_lurk < cd_front:
            raise ValueError("need 0 < cd_lurk < cd_front")
        if not energy_budget >= 0.0:  # NaN fails this check and the next
            raise ValueError("energy_budget must be non-negative")
        if not position >= 1.0:
            raise ValueError("position must be >= 1")
        return tuple.__new__(cls, (energy_budget, risk_index, position,
                                   cd_front, cd_lurk, crash))


# attack_position and attack_power are None on the NO_WIN branch
StrategyResult = namedtuple("StrategyResult", "attack_position attack_power time_gap "
                                              "exposure objective branch")
InteriorOptimum = namedtuple("InteriorOptimum", "eta attack_position attack_power")


def earliest_attack_position(power: float, problem: StrategyProblem) -> float:
    """Earliest x_a from which `power` can be held to the finish on budget.

    Clamped at zero; a value above one means the budget cannot win at all.
    """
    if power <= problem.cd_front:
        raise InfeasibleAttackError(
            "attack power must exceed the front drag to outrun the peloton")
    g = problem.cd_front ** (1.0 / 3.0) * power ** (2.0 / 3.0)
    return max((g - problem.energy_budget) / (g - problem.cd_lurk), 0.0)


def min_attack_position(problem: StrategyProblem) -> float:
    """Feasibility boundary: earliest attack at the minimum winning power."""
    return max((problem.cd_front - problem.energy_budget)
               / (problem.cd_front - problem.cd_lurk), 0.0)


def attack_power(x_attack: float, problem: StrategyProblem) -> float:
    """Constant attack power from x_attack that exhausts the budget at the finish."""
    if not 0.0 <= x_attack < 1.0:
        raise ValueError("attack position must lie in [0, 1)")
    num = problem.energy_budget - problem.cd_lurk * x_attack
    if num <= 0.0:
        raise InfeasibleAttackError("budget exhausted before the attack")
    return (num / (problem.cd_front ** (1.0 / 3.0) * (1.0 - x_attack))) ** 1.5


def time_gap_from_position(x_attack: float, problem: StrategyProblem) -> float:
    """Finish-time gap when attacking at x_attack on the exact budget.

    Negative values (attacks before the feasibility boundary) are clamped
    to zero: the rider rejoins the peloton.
    """
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    if x_attack == 1.0:
        return 0.0
    reserve = problem.energy_budget - problem.cd_lurk * x_attack
    if reserve <= 0.0:
        raise ValueError("no energy left at the attack point")
    gap = (1.0 - x_attack
           - (1.0 - x_attack) ** 1.5 * math.sqrt(problem.cd_front) / math.sqrt(reserve))
    return max(gap, 0.0)


def _boundary_position(problem: StrategyProblem) -> float:
    return min(min_attack_position(problem), 1.0)


def objective(x_attack: float, problem: StrategyProblem) -> float:
    """Risk-weighted objective, flat left of the feasibility boundary."""
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    x_eff = max(x_attack, _boundary_position(problem))
    beta = problem.risk_index
    gap = time_gap_from_position(x_eff, problem) if x_eff < 1.0 else 0.0
    risk = exposure_simple_attack(x_eff, problem.position, problem.crash)
    return -beta * gap + (1.0 - beta) * risk


def interior_optimum(problem: StrategyProblem) -> InteriorOptimum | None:
    """Interior stationary point of the objective, if one is admissible.

    The stationarity condition is a depressed cubic in
    eta = sqrt((1 - x_a) / (E - cd_lurk * x_a)); roots are kept when they
    are positive and map into (x_min, 1).  Several admissible roots are
    tie-broken by objective value.
    """
    beta = problem.risk_index
    if beta <= 0.0:
        return None
    crash = problem.crash
    ratio = involvement_given_crash(problem.position, crash.omega,
                                    crash.n_riders) * crash.n_riders
    sqrt_front = math.sqrt(problem.cd_front)
    a3 = 0.5 * beta * sqrt_front * problem.cd_lurk
    a1 = -1.5 * beta * sqrt_front
    a0 = beta + (1.0 - beta) * crash.intensity / crash.n_riders * (ratio - 1.0)

    x_min = min_attack_position(problem)
    best = None
    best_value = math.inf
    for eta in solve_cubic_real(a3, a1, a0):
        if eta <= 0.0:
            continue
        denom = 1.0 - problem.cd_lurk * eta**2
        if denom <= 0.0:
            continue
        x = (1.0 - problem.energy_budget * eta**2) / denom
        if not x_min < x < 1.0:
            continue
        value = objective(x, problem)
        if value < best_value:
            best_value = value
            best = InteriorOptimum(
                eta=eta,
                attack_position=x,
                attack_power=1.0 / (sqrt_front * eta**3),
            )
    return best


def _result_at(x: float, problem: StrategyProblem, branch: Branch) -> StrategyResult:
    gap = time_gap_from_position(x, problem) if x < 1.0 else 0.0
    power = attack_power(x, problem) if x < 1.0 else math.nan
    return StrategyResult(
        attack_position=x,
        attack_power=power,
        time_gap=gap,
        exposure=exposure_simple_attack(x, problem.position, problem.crash),
        objective=objective(x, problem),
        branch=branch,
    )


def optimal_attack(problem: StrategyProblem) -> StrategyResult:
    """Global minimizer of the objective: boundary vs interior candidate.

    Ties within 1e-12 go to the boundary (earlier, safer attack).  With a
    budget below the lurking power no attack can win; the rider stays in
    the pack for the whole race.
    """
    if problem.energy_budget < problem.cd_lurk:
        risk = exposure_simple_attack(1.0, problem.position, problem.crash)
        return StrategyResult(
            attack_position=None, attack_power=None, time_gap=0.0,
            exposure=risk,
            objective=(1.0 - problem.risk_index) * risk,
            branch=Branch.NO_WIN,
        )
    boundary = _result_at(_boundary_position(problem), problem, Branch.BOUNDARY)
    interior = interior_optimum(problem)
    if interior is None:
        return boundary
    candidate = _result_at(interior.attack_position, problem, Branch.INTERIOR)
    if candidate.objective < boundary.objective - _TIE_TOL:
        return candidate
    return boundary


def critical_risk(problem: StrategyProblem) -> float:
    """Risk index at which the optimum jumps from the boundary to the interior."""
    crash = problem.crash
    ratio = involvement_given_crash(problem.position, crash.omega,
                                    crash.n_riders) * crash.n_riders
    a = crash.intensity / crash.n_riders * (ratio - 1.0)
    b = 0.5 * (1.0 - problem.cd_lurk / problem.cd_front)
    if a == 0.0:
        return 0.0
    return a / (a + b)


def min_energy_to_win(problem: StrategyProblem, beta: float) -> float:
    """Smallest budget that wins at risk index beta (piecewise constant)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if beta < critical_risk(problem):
        return problem.cd_front
    return problem.cd_lurk


def min_risk_to_win(problem: StrategyProblem, energy_budget: float) -> float | None:
    """Smallest risk index that wins on a given budget; None if unwinnable."""
    if energy_budget <= problem.cd_lurk:
        return None
    if energy_budget >= problem.cd_front:
        return 0.0
    return critical_risk(problem)
