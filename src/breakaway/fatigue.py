"""Breakaways with fatigue: burst power decaying toward a sustainable floor.

After attacking at time t_a the rider's power is
(p_max - p_sustain) * exp(-mu (t - t_a)) + p_sustain, the schedule that
a PowerProfile describes, so the finish time has no closed form
and the strategy optimum is found numerically.  The three-variable
constrained problem (attack position, peak power, finish time) collapses
to nested scalar solves: given the attack position, the peak power follows
from the energy budget in closed form, leaving one bracketed root-solve
for the post-attack duration.  The outer problem over the attack
position is solved to rounding level rather than to the ~sqrt(eps) that
value-only minimization can reach: a grid picks the cell of the minimum,
and Brent's method then finds the root of dM/dx_a, whose dt_f/dx_a comes
from implicit differentiation of the budget and arrival constraints.  The
zero-gap boundary is the root of the arrival condition at t_f = 1, so its
row reports t_f = 1 and no time gap exactly.

The speed integral behind the arrival constraint, and its slope in the
burst amplitude, are elementary, so each costs the same few operations
at any fatigue rate.  The reported arrival residual checks them against
an independent adaptive quadrature.  The budget and arrival residuals are
rounding noise below RESIDUAL_FLOOR; reported_residual maps them to 0 for
tables, while `converged` tests the raw values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .crash import exposure_simple_attack
from .flat import StrategyProblem
from .model import PowerProfile
from .numerics import (
    DEFAULT_SETTINGS,
    SolverSettings,
    find_root_bracketed,
    integrate_adaptive,
    minimize_scalar,
)

__all__ = [
    "FatigueResult",
    "InfeasibleBudgetError",
    "p_max_from_budget",
    "optimize_fatigue",
    "RESIDUAL_FLOOR",
    "reported_residual",
]

_X_CAP = 1.0 - 1e-6  # attacks arbitrarily close to the line are allowed, x = 1 is not
_ROUNDING_TOL = 1e-15  # absolute root tolerance for every value a table prints
RESIDUAL_FLOOR = 1e-12  # residuals at or below this are rounding noise
_GRID_POINTS = 128  # grid that picks the cell of the attack-position optimum


def reported_residual(value: float) -> float:
    """A constraint residual as tables print it: 0 at or below RESIDUAL_FLOOR.

    The floor sits above the ~1e-13 gap between the adaptive reference
    quadrature and the closed-form speed integral, and far below the 1e-8
    gate of FatigueResult.converged, which sees the raw value.
    """
    return 0.0 if value <= RESIDUAL_FLOOR else value


class InfeasibleBudgetError(ValueError):
    """The budget cannot cover the requested schedule."""


@dataclass(frozen=True)
class FatigueResult:
    attack_position: float | None
    peak_power: float | None
    finish_time: float | None
    time_gap: float
    objective: float
    converged: bool
    status: str = "ok"               # "ok" or "no_win"
    iterations: int = 0              # constrained solves at a fixed attack position
    budget_residual: float = math.nan
    arrival_residual: float = math.nan


def _burst_integral(delta: float, mu: float) -> float:
    """Integral of exp(-mu s) over [0, delta]; an underflowing mu * delta is mu = 0."""
    if mu * delta < sys.float_info.min:  # expm1 would give 0; this errs by O(mu delta)
        return delta
    return -math.expm1(-mu * delta) / mu


def p_max_from_budget(energy_budget: float, x_attack: float, t_finish: float,
                      p_sustain: float, mu: float, p_lurk: float) -> float:
    """Peak power that makes the schedule spend exactly energy_budget by t_finish.

    Round-trips with PowerProfile.energy.
    """
    if t_finish <= x_attack:
        raise ValueError("need t_finish > x_attack")
    delta = t_finish - x_attack
    burst_energy = energy_budget - p_lurk * x_attack - p_sustain * delta
    if burst_energy < -1e-14 * max(1.0, energy_budget):
        raise InfeasibleBudgetError("budget below the steady-state spend")
    return p_sustain + max(burst_energy, 0.0) / _burst_integral(delta, mu)


def _speed_integral(delta: float, p_max: float, p_sustain: float,
                    mu: float) -> float:
    """Integral of y = (p_sustain + A e^{-mu s})^(1/3), A = p_max - p_sustain, to delta.

    Closed form; needs p_sustain > 0, which the callers guarantee.  In y, from
    y0 at s = 0 to y1 at delta, the integral is rational.  D = y0 - y1 from a
    difference of cubes, one log1p and one atan keep every term free of
    catastrophic cancellation at any mu.
    """
    y0 = float(np.cbrt(p_max))
    if mu * delta < sys.float_info.min:  # as in _burst_integral
        return delta * y0
    c = float(np.cbrt(p_sustain))
    y1 = float(np.cbrt(p_sustain + (p_max - p_sustain) * math.exp(-mu * delta)))
    d = (p_max - p_sustain) * -math.expm1(-mu * delta) / (y0 * y0 + y0 * y1 + y1 * y1)
    c_root3 = c * math.sqrt(3.0)
    u0, u1 = (2.0 * y0 + c) / c_root3, (2.0 * y1 + c) / c_root3
    log_term = math.log1p(d * (y0 + y1 + c) / (y1 * y1 + c * y1 + c * c))
    atan_term = math.atan(2.0 * d / c_root3 / (1.0 + u0 * u1))
    return c * delta + (3.0 * d - 1.5 * c * log_term - c_root3 * atan_term) / mu


def _speed_integral_slope(delta: float, p_max: float, p_sustain: float,
                          mu: float) -> float:
    """Derivative of _speed_integral in the burst amplitude A = p_max - p_sustain.

    In y it is (y0 - y1) / (A mu), the burst integral over y0^2 + y0 y1 + y1^2.
    """
    y0 = float(np.cbrt(p_max))
    y1 = float(np.cbrt(p_sustain + (p_max - p_sustain) * math.exp(-mu * delta)))
    return _burst_integral(delta, mu) / (y0 * y0 + y0 * y1 + y1 * y1)


# -- constrained solve at a fixed attack position ----------------------------


def _attack_solve(x: float, energy_budget: float, p_sustain: float,
                  p_lurk: float, mu: float, cd_front: float,
                  settings: SolverSettings = DEFAULT_SETTINGS):
    """Solve budget + arrival for the post-attack duration and peak power.

    Returns (t_finish, p_max) or None when the budget cannot bring the
    rider home from x.  Uniqueness: at fixed x, raising the peak power
    shortens the ride but costs more energy per unit distance, so the spent
    energy is monotone along the arrival constraint.
    """
    e_rem = energy_budget - p_lurk * x
    if e_rem <= 0.0 or p_sustain <= 0.0:
        return None
    distance = (1.0 - x) * cd_front ** (1.0 / 3.0)
    delta_max = e_rem / p_sustain
    # steady riding (no burst) maximizes distance per unit of energy
    if p_sustain ** (1.0 / 3.0) * delta_max < distance:
        return None

    def surplus(delta):
        burst = (e_rem - p_sustain * delta) / _burst_integral(delta, mu)
        return _speed_integral(delta, p_sustain + burst, p_sustain, mu) - distance

    lo = 1e-13 * max(1.0, delta_max)
    if surplus(lo) >= 0.0:
        delta = lo
    elif surplus(delta_max) <= 0.0:
        delta = delta_max
    else:
        delta = find_root_bracketed(surplus, lo, delta_max, settings)
    p_max = p_sustain + (e_rem - p_sustain * delta) / _burst_integral(delta, mu)
    return x + delta, p_max


def _feasibility_boundary(energy_budget: float, p_sustain: float,
                          p_lurk: float, cd_front: float) -> float | None:
    """Earliest attack position from which the budget reaches the finish.

    Riding steadily at p_sustain is the energy-cheapest way home, so the
    reachable-distance condition is linear in the attack position.
    """
    spend_rate = cd_front ** (1.0 / 3.0) * p_sustain ** (2.0 / 3.0)
    if spend_rate <= p_lurk:
        return 0.0 if energy_budget >= spend_rate else None
    x = (spend_rate - energy_budget) / (spend_rate - p_lurk)
    if x >= 1.0:
        return None
    return max(x, 0.0)


def _finish_time_slope(x: float, t_finish: float, p_max: float,
                       p_sustain: float, p_lurk: float, mu: float,
                       cd_front: float) -> float:
    """dt_f/dx_a along the budget and arrival constraints.

    With delta = t_f - x_a and the burst amplitude A = p_max - p_sustain,
    implicit differentiation of

        budget:   p_lurk x_a + p_sustain delta + A B(delta) = E
        arrival:  cd^(1/3) x_a + S(delta, A) = cd^(1/3)

    is a 2x2 linear system in (d delta, dA), solved here by Cramer's rule.
    B is the burst integral and S the speed integral; the power P at the
    finish is the budget's rate in delta and P^(1/3) the arrival's.
    """
    delta = t_finish - x
    p_end = p_sustain + (p_max - p_sustain) * math.exp(-mu * delta)
    burst = _burst_integral(delta, mu)
    slope = _speed_integral_slope(delta, p_max, p_sustain, mu)
    det = p_end * slope - burst * p_end ** (1.0 / 3.0)
    return 1.0 + (burst * cd_front ** (1.0 / 3.0) - p_lurk * slope) / det


def optimize_fatigue(problem: StrategyProblem, mu: float,
                     p_sustain: float | None = None,
                     settings: SolverSettings = DEFAULT_SETTINGS) -> FatigueResult:
    """Minimize the risk-weighted objective over the attack position.

    The search domain starts at the zero-gap boundary (the earliest attack
    that at least matches the peloton); earlier attacks fail and leave the
    rider with the group, as in the constant-power model.  An interior
    stationary point of the objective competes with that boundary, which
    wins ties within 1e-12 as in the flat model.  The boundary, the
    stationary point and the reported solve are all found to rounding level.
    """
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    p_lurk = problem.cd_lurk
    p_s = p_lurk if p_sustain is None else p_sustain
    if p_s <= 0.0:
        raise ValueError("optimization requires a positive sustainable power")
    beta = problem.risk_index
    cd_front = problem.cd_front
    budget = problem.energy_budget
    exact = replace(settings, abs_tol=min(settings.abs_tol, _ROUNDING_TOL))

    def exposure(x):
        return exposure_simple_attack(x, problem.position, problem.crash)

    n_solves = 0

    def solve(x, inner=settings):
        nonlocal n_solves
        n_solves += 1
        solved = _attack_solve(x, budget, p_s, p_lurk, mu, cd_front, inner)
        if solved is None and x == x_feas:
            # the closed-form boundary can land infeasible by rounding; there
            # riding steadily at p_s spends the budget exactly on arrival
            return x + (budget - p_lurk * x) / p_s, p_s
        return solved

    def no_win() -> FatigueResult:
        return FatigueResult(None, None, None, 0.0, (1.0 - beta) * exposure(1.0),
                             converged=True, status="no_win")

    x_feas = _feasibility_boundary(budget, p_s, p_lurk, cd_front)
    if x_feas is None or x_feas >= _X_CAP:
        return no_win()

    def time_gap_at(x):
        # a finite sentinel marks an attack from which the budget cannot
        # bring the rider home
        solved = solve(x)
        return -1.0 if solved is None else 1.0 - solved[0]

    def lead_at_peloton_finish(x):
        # position at t = 1, less the line, when the budget runs out at t = 1;
        # positive exactly where the attack beats the peloton
        nonlocal n_solves
        n_solves += 1
        p_max = p_max_from_budget(budget, x, 1.0, p_s, mu, p_lurk)
        distance = _speed_integral(1.0 - x, p_max, p_s, mu)
        return x + distance / cd_front ** (1.0 / 3.0) - 1.0

    def exact_point(x):
        t_finish, p_max = solve(x, exact)
        return x, t_finish, p_max

    # earliest attack that at least matches the peloton (gap crosses zero)
    if time_gap_at(x_feas) >= 0.0:
        boundary = exact_point(x_feas)
    elif time_gap_at(_X_CAP) < 0.0:
        return no_win()
    else:
        x_zero = find_root_bracketed(lead_at_peloton_finish, x_feas, _X_CAP, exact)
        boundary = (x_zero, 1.0, p_max_from_budget(budget, x_zero, 1.0, p_s,
                                                   mu, p_lurk))

    def value_of(point):
        x, t_finish, _ = point
        return -beta * max(1.0 - t_finish, 0.0) + (1.0 - beta) * exposure(x)

    def objective_at(x):
        return -beta * max(time_gap_at(x), 0.0) + (1.0 - beta) * exposure(x)

    exposure_slope = exposure(1.0) - exposure(0.0)  # the exposure is linear

    def slope_at(x):
        _, t_finish, p_max = exact_point(x)
        return (beta * _finish_time_slope(x, t_finish, p_max, p_s, p_lurk,
                                          mu, cd_front)
                + (1.0 - beta) * exposure_slope)

    best = boundary
    x_zero = boundary[0]
    if x_zero < _X_CAP:
        x_min, _ = minimize_scalar(objective_at, x_zero, _X_CAP, exact,
                                   _GRID_POINTS, df=slope_at)
        if x_min > x_zero:
            interior = exact_point(x_min)
            if value_of(interior) < value_of(boundary) - 1e-12:
                best = interior

    x_best, t_finish, p_max = best
    schedule = PowerProfile(p_lurk, x_best, p_max, p_s, mu)
    budget_res = abs(schedule.energy(t_finish) - budget)
    integrand = lambda s: np.cbrt(p_s + (p_max - p_s) * np.exp(-mu * s))
    arrival, _ = integrate_adaptive(integrand, 0.0, t_finish - x_best, settings)
    arrival_res = abs(x_best + arrival / cd_front ** (1.0 / 3.0) - 1.0)
    converged = budget_res < 1e-8 and arrival_res < 1e-8
    return FatigueResult(
        attack_position=x_best,
        peak_power=p_max,
        finish_time=t_finish,
        time_gap=max(1.0 - t_finish, 0.0),
        objective=value_of(best),
        converged=converged,
        iterations=n_solves,
        budget_residual=budget_res,
        arrival_residual=arrival_res,
    )
