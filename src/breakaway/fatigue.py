"""Breakaways with fatigue: burst power decaying toward a sustainable floor.

The rider lurks at p_lurk and, after attacking at time t_a, rides at
(p_max - p_sustain) * exp(-mu (t - t_a)) + p_sustain; this module's closed
forms are the one home of that schedule.  The finish time has no closed
form, so the strategy optimum is found numerically.  The three-variable
constrained problem (attack position, peak power, finish time) collapses
to nested scalar solves: given the attack position, the peak power follows
from the energy budget in closed form, leaving one bracketed root-solve
for the post-attack duration.  The outer objective is convex in the
attack position over the winning domain (proved as mu -> 0, where t_f'' =
0.75 (p - q)^2 (t_f - x_a) >= 0 with p = 1/(1 - x_a) and q = c_l/(E - c_l
x_a); measured, and pinned by a test, for mu > 0).  So the slopes at the
two ends decide the optimum, and an interior one is the single root of
dM/dx_a, found by Brent's method to rounding level; dt_f/dx_a comes from
implicit differentiation of the budget and arrival constraints.  The
zero-gap boundary is the root of the arrival condition at t_f = 1, so its
row reports t_f = 1 and no time gap exactly.

The burst integral behind the budget, the speed integral behind the
arrival and its slope in the burst amplitude are elementary, so each costs
the same few operations at any fatigue rate.  The reported budget and
arrival residuals check them against an independent adaptive quadrature
of the power and of its cube root.  They are rounding noise below
RESIDUAL_FLOOR; reported_residual maps them to 0 for tables, while
`converged` tests the raw values.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .crash import exposure_simple_attack
from .flat import StrategyProblem
from .numerics import (
    DEFAULT_SETTINGS,
    SolverSettings,
    find_root_bracketed,
    integrate_adaptive,
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


def reported_residual(value: float) -> float:
    """A constraint residual as tables print it: 0 at or below RESIDUAL_FLOOR.

    The floor sits above the ~1e-13 gap between the adaptive reference
    quadratures and the closed forms, and far below the 1e-8
    gate of FatigueResult.converged, which sees the raw value.
    """
    return 0.0 if value <= RESIDUAL_FLOOR else value


class InfeasibleBudgetError(ValueError):
    """The budget cannot cover the requested schedule."""


# status is "ok" or "no_win", where attack_position, peak_power and
# finish_time are None; iterations counts the constrained solves at a fixed
# attack position
FatigueResult = namedtuple(
    "FatigueResult", "attack_position peak_power finish_time time_gap objective converged "
    "status iterations budget_residual arrival_residual", defaults=("ok", 0, math.nan, math.nan))


def _burst_integral(delta: float, mu: float) -> float:
    """Integral of exp(-mu s) over [0, delta]; an underflowing mu * delta is mu = 0."""
    if mu * delta < sys.float_info.min:  # expm1 would give 0; this errs by O(mu delta)
        return delta
    return -math.expm1(-mu * delta) / mu


def p_max_from_budget(energy_budget: float, x_attack: float, t_finish: float,
                      p_sustain: float, mu: float, p_lurk: float) -> float:
    """Peak power that makes the schedule spend exactly energy_budget by t_finish.

    The inverse of the budget p_lurk x_a + p_sustain delta
    + (p_max - p_sustain) B(delta) = energy_budget, B the burst integral.
    """
    if t_finish <= x_attack:
        raise ValueError("need t_finish > x_attack")
    if not mu >= 0.0:  # NaN fails too
        raise ValueError("mu must be non-negative")
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
    y0 = math.cbrt(p_max)
    if mu * delta < sys.float_info.min:  # as in _burst_integral
        return delta * y0
    c = math.cbrt(p_sustain)
    y1 = math.cbrt(p_sustain + (p_max - p_sustain) * math.exp(-mu * delta))
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
    y0 = math.cbrt(p_max)
    y1 = math.cbrt(p_sustain + (p_max - p_sustain) * math.exp(-mu * delta))
    return _burst_integral(delta, mu) / (y0 * y0 + y0 * y1 + y1 * y1)


# -- constrained solve at a fixed attack position ----------------------------


def _attack_solve(x: float, energy_budget: float, p_sustain: float,
                  p_lurk: float, mu: float, cd_front: float,
                  settings: SolverSettings = DEFAULT_SETTINGS):
    """Solve budget + arrival for the post-attack duration and peak power.

    Returns (delta, p_max), delta the ride time after the attack, or None
    when the budget cannot bring the rider home from x.  Uniqueness: at
    fixed x, raising the peak power shortens the ride but costs more energy
    per unit distance, so the spent energy is monotone along the arrival
    constraint.
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
    s_lo = surplus(lo)
    if s_lo >= 0.0:
        delta = lo
    elif (s_hi := surplus(delta_max)) <= 0.0:
        delta = delta_max
    else:
        # Brent starts by evaluating both ends: answer those from here
        ends = {lo: s_lo, delta_max: s_hi}
        delta = find_root_bracketed(
            lambda d: ends.pop(d) if d in ends else surplus(d), lo, delta_max, settings)
    p_max = p_sustain + (e_rem - p_sustain * delta) / _burst_integral(delta, mu)
    return delta, p_max


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
                     settings: SolverSettings | None = None) -> FatigueResult:
    """Minimize the risk-weighted objective over the attack position.

    The search domain starts at the zero-gap boundary (the earliest attack
    that at least matches the peloton); earlier attacks fail and leave the
    rider with the group, as in the constant-power model.  An interior
    stationary point of the objective competes with that boundary, which
    wins ties within 1e-12 as in the flat model.  The boundary, the
    stationary point and the reported solve are all found to rounding level.
    """
    if not mu >= 0.0:  # NaN fails too
        raise ValueError("mu must be non-negative")
    settings = DEFAULT_SETTINGS if settings is None else settings  # read at the call
    p_lurk = problem.cd_lurk
    p_s = p_lurk if p_sustain is None else p_sustain
    if not p_s > 0.0:
        raise ValueError("optimization requires a positive sustainable power")
    beta = problem.risk_index
    cd_front = problem.cd_front
    budget = problem.energy_budget
    exact = SolverSettings(min(settings.abs_tol, _ROUNDING_TOL), settings.rel_tol,
                           settings.max_iterations)

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
            return (budget - p_lurk * x) / p_s, p_s
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
        return -1.0 if solved is None else 1.0 - (x + solved[0])

    def lead_at_peloton_finish(x):
        # position at t = 1, less the line, when the budget runs out at t = 1;
        # positive exactly where the attack beats the peloton
        nonlocal n_solves
        n_solves += 1
        p_max = p_max_from_budget(budget, x, 1.0, p_s, mu, p_lurk)
        distance = _speed_integral(1.0 - x, p_max, p_s, mu)
        return x + distance / cd_front ** (1.0 / 3.0) - 1.0

    def exact_point(x):
        delta, p_max = solve(x, exact)
        return x, delta, p_max

    # earliest attack that at least matches the peloton (gap crosses zero)
    if time_gap_at(x_feas) >= 0.0:
        boundary = exact_point(x_feas)
    elif time_gap_at(_X_CAP) < 0.0:
        return no_win()
    else:
        x_zero = find_root_bracketed(lead_at_peloton_finish, x_feas, _X_CAP, exact)
        boundary = (x_zero, 1.0 - x_zero, p_max_from_budget(budget, x_zero, 1.0, p_s,
                                                            mu, p_lurk))

    def value_of(point):
        x, delta, _ = point
        return -beta * max(1.0 - (x + delta), 0.0) + (1.0 - beta) * exposure(x)

    exposure_slope = exposure(1.0) - exposure(0.0)  # the exposure is linear

    def slope_at(x):
        _, delta, p_max = exact_point(x)
        return (beta * _finish_time_slope(x, x + delta, p_max, p_s, p_lurk,
                                          mu, cd_front)
                + (1.0 - beta) * exposure_slope)

    # the objective is convex in x_a on [x_zero, _X_CAP] (proved for mu -> 0,
    # measured and tested for mu > 0), so the end slopes decide the optimum
    best = boundary
    x_zero = boundary[0]
    if x_zero < _X_CAP and (d_lo := slope_at(x_zero)) < 0.0:
        if (d_hi := slope_at(_X_CAP)) <= 0.0:
            x_min = _X_CAP
        else:
            # Brent starts by evaluating both ends: answer those from here
            ends = {x_zero: d_lo, _X_CAP: d_hi}
            x_min = find_root_bracketed(
                lambda x: ends.pop(x) if x in ends else slope_at(x), x_zero, _X_CAP, exact)
        interior = exact_point(x_min)
        if value_of(interior) < value_of(boundary) - 1e-12:
            best = interior

    x_best, delta, p_max = best
    t_finish = x_best + delta
    power = lambda s: p_s + (p_max - p_s) * math.exp(-mu * s)
    spent, _ = integrate_adaptive(power, 0.0, delta, settings)
    budget_res = abs(p_lurk * x_best + spent - budget)
    arrival, _ = integrate_adaptive(lambda s: math.cbrt(power(s)), 0.0, delta, settings)
    arrival_res = abs(x_best + arrival / cd_front ** (1.0 / 3.0) - 1.0)
    converged = bool(budget_res < 1e-8 and arrival_res < 1e-8)
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
