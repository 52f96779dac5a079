"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test is named criterion_NN_<topic>; the conftest hook prints a PASS/FAIL
line per criterion at the end of the run.  Reference values are produced by
independent oracles built inside the tests (brute-force grids, quadrature,
Monte Carlo) or by direct evaluation of the closed forms.
"""

import math

import numpy as np
import pytest

from breakaway.crash import (
    CrashModel,
    exposure_simple_attack,
    monte_carlo_exposure,
)
from breakaway.fatigue import optimize_fatigue, p_max_from_budget
from breakaway.flat import (
    Branch,
    StrategyProblem,
    attack_power,
    critical_risk,
    earliest_attack_position,
    interior_optimum,
    min_energy_to_win,
    min_risk_to_win,
    optimal_attack,
)
from breakaway.microstructure import attack_onset
from breakaway.model import DragParams, PowerProfile
from breakaway.terrain import CourseProfile, simulate_breakaway


def problem_with(**kw) -> StrategyProblem:
    base = dict(energy_budget=1.2, risk_index=0.8)
    base.update(kw)
    return StrategyProblem(**base)


def test_criterion_01_critical_risk():
    """beta* = 0.0949 +- 5e-4 at the reference calibration."""
    problem = StrategyProblem(
        energy_budget=1.2, risk_index=0.5, position=5.0,
        cd_front=1.43, cd_lurk=0.46,
        crash=CrashModel(omega=0.5, intensity=2.0, n_riders=75))
    assert critical_risk(problem) == pytest.approx(0.0949, abs=5e-4)


def test_criterion_02_energy_thresholds():
    """The winning frontier returns the drag thresholds exactly."""
    problem = problem_with()
    beta_star = critical_risk(problem)
    assert min_energy_to_win(problem, 0.5 * beta_star) == 1.43
    assert min_energy_to_win(problem, 2.0 * beta_star) == 0.46
    assert min_risk_to_win(problem, 2.0) == 0.0
    assert min_risk_to_win(problem, 1.0) == pytest.approx(beta_star, abs=1e-15)
    assert min_risk_to_win(problem, 0.4) is None


def test_criterion_03_interior_optimum_structure():
    """x_a-dagger affine in the budget, its power budget-independent."""
    budgets = np.array([0.8, 1.0, 1.2, 1.4])
    solutions = [interior_optimum(problem_with(energy_budget=e)) for e in budgets]
    xs = np.array([s.attack_position for s in solutions])
    powers = np.array([s.attack_power for s in solutions])
    slope, intercept = np.polyfit(budgets, xs, 1)
    residual = np.max(np.abs(slope * budgets + intercept - xs))
    assert residual < 1e-8
    assert powers.max() - powers.min() < 1e-8


def test_criterion_04_brute_force_equivalence():
    """optimal_attack matches a 1e5-point grid minimization, 200 draws."""
    n = 100_000
    xs = np.linspace(0.0, 1.0, n)
    spacing = xs[1] - xs[0]
    rng = np.random.default_rng(2024)
    for _ in range(200):
        problem = problem_with(energy_budget=float(rng.uniform(0.5, 2.0)),
                               risk_index=float(rng.uniform(0.0, 1.0)))
        e, ci, c1 = problem.energy_budget, problem.cd_lurk, problem.cd_front
        beta = problem.risk_index
        # independent vectorized objective: clamped gap + linear exposure,
        # flat left of the feasibility boundary
        x_min = max((c1 - e) / (c1 - ci), 0.0)
        x_eff = np.minimum(np.maximum(xs, x_min), 1.0)
        with np.errstate(invalid="ignore"):
            gap = (1.0 - x_eff
                   - (1.0 - x_eff) ** 1.5 * math.sqrt(c1) / np.sqrt(e - ci * x_eff))
        gap = np.where(np.isfinite(gap), np.maximum(gap, 0.0), 0.0)
        crash = problem.crash
        ratio = math.expm1(-crash.omega * problem.position) / math.expm1(-crash.omega)
        risk = crash.intensity / crash.n_riders * (x_eff * ratio + 1.0 - x_eff)
        grid = -beta * gap + (1.0 - beta) * risk

        result = optimal_attack(problem)
        lowest = float(grid.min())
        if result.branch is Branch.NO_WIN:
            assert result.objective == pytest.approx(lowest, abs=1e-12)
            continue
        assert result.objective <= lowest + 1e-9
        tied = xs[grid <= lowest + 1e-14]
        assert np.min(np.abs(tied - result.attack_position)) <= spacing


def test_criterion_05_crash_oracle():
    """1e6-trial Monte Carlo within 4 standard errors of the formula, 20 draws."""
    rng = np.random.default_rng(77)
    for draw in range(20):
        n_riders = int(rng.integers(20, 150))
        position = float(rng.integers(1, min(n_riders, 25)))
        model = CrashModel(omega=float(rng.uniform(0.1, 2.0)),
                           intensity=float(rng.uniform(0.5, 4.0)),
                           n_riders=n_riders)
        x_attack = float(rng.uniform(0.0, 1.0))
        analytic = exposure_simple_attack(x_attack, position, model)
        estimate, stderr = monte_carlo_exposure(x_attack, position, 1_000_000,
                                                9000 + draw, model)
        assert abs(estimate - analytic) <= 4.0 * stderr


def test_criterion_06_fatigue_limit():
    """mu = 1e-3 reproduces the constant-power optimum across a beta grid."""
    worst = 0.0
    for beta in np.linspace(0.0, 1.0, 21):
        problem = problem_with(risk_index=float(beta))
        fatigue_x = optimize_fatigue(problem, mu=1e-3).attack_position
        flat_x = optimal_attack(problem).attack_position
        worst = max(worst, abs(fatigue_x - flat_x))
    assert worst < 1e-2


def test_criterion_07_fatigue_scaling():
    """Peak power grows with the fatigue rate and reaches order mu by mu = 10."""
    problem = problem_with(energy_budget=1.5, risk_index=0.2)
    mus = (0.5, 1.0, 2.0, 5.0, 10.0)
    peaks = [optimize_fatigue(problem, mu=mu).peak_power for mu in mus]
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
    p1 = peaks[mus.index(1.0)]
    p10 = peaks[mus.index(10.0)]
    assert p10 / p1 > 3.0
    assert 0.5 * 10.0 < p10 < 2.0 * 10.0   # same order as mu


def test_criterion_08_terrain_reduction():
    """Flat-course simulation at eps = 1e-4 reproduces the closed-form gap."""
    flat_course = CourseProfile.flat()
    peloton = simulate_breakaway(0.0, None, flat_course, inertia=1e-4).peloton
    assert abs(peloton.finish_time - 1.0) <= 1e-3

    worst = 0.0
    for x_a in (0.15, 0.35, 0.55, 0.75, 0.9):
        for power in (1.8, 2.4, 3.2, 4.2):
            # budget implied by riding this schedule to the line
            speed = (power / 1.43) ** (1.0 / 3.0)
            implied = 0.46 * x_a + power * (1.0 - x_a) / speed
            problem = problem_with(energy_budget=implied)
            ref = (1.0 - x_a) * (1.0 - 1.0 / speed)
            assert attack_power(x_a, problem) == pytest.approx(power, rel=1e-10)
            run = simulate_breakaway(x_a, power, flat_course, inertia=1e-4)
            worst = max(worst, abs(run.time_gap - ref))
    assert worst < 1e-4


def test_criterion_09_microstructure_agreement():
    """Two-layer composite tracks the full attack-onset dynamics to O(eps)."""
    eps = 0.005
    drag = DragParams()
    cd_avg = 0.9 / 1.43
    # spacing ratio chosen so the rider crests above the solo equilibrium,
    # giving the rise-then-relax shape with a single interior maximum
    kwargs = dict(eps=eps, position=5.0, power=4.0, drag=drag, cd_avg=cd_avg,
                  gamma_ratio=6.0)
    onset = attack_onset(**kwargs)
    assert np.max(onset.rel_deviation) < 5.0 * eps
    v_eq = (4.0 / 1.43) ** (1.0 / 3.0)
    assert abs(onset.terminal_speed - v_eq) < 1e-12
    assert abs(onset.v_full[-1] - v_eq) < 1e-6
    assert abs(onset.v_composite[-1] - v_eq) < 1e-6
    v = np.asarray(onset.v_full)
    k = int(np.argmax(v))
    assert 0 < k < v.size - 1
    moves = np.diff(v)
    moves = moves[np.abs(moves) > 1e-10]
    assert np.sum(np.diff(np.sign(moves)) != 0) == 1


def test_criterion_10_qualitative_figure_properties():
    """Monotone orderings of the optimal strategy across parameter sweeps."""
    # attack position and gap non-decreasing in the risk index
    xs, gaps = [], []
    for beta in np.linspace(0.0, 1.0, 21):
        result = optimal_attack(problem_with(risk_index=float(beta)))
        xs.append(result.attack_position)
        gaps.append(result.time_gap)
    assert np.all(np.diff(xs) >= -1e-12)
    assert np.all(np.diff(gaps) >= -1e-12)

    # optimum gap non-decreasing in the budget
    budget_gaps = [optimal_attack(problem_with(energy_budget=float(e))).time_gap
                   for e in np.linspace(0.6, 2.0, 11)]
    assert np.all(np.diff(budget_gaps) >= -1e-12)

    # weaker propagation decay (smaller omega) never delays the attack
    omega_xs, omega_gaps = [], []
    for omega in np.linspace(0.1, 1.0, 11):
        problem = problem_with(
            risk_index=0.3, crash=CrashModel(omega=float(omega)))
        result = optimal_attack(problem)
        omega_xs.append(result.attack_position)
        omega_gaps.append(result.time_gap)
    assert np.all(np.diff(omega_xs) >= -1e-12)
    assert np.all(np.diff(omega_gaps) >= -1e-12)

    # faster fatigue never moves the optimal attack earlier
    problem = problem_with(energy_budget=1.25)
    mu_xs = [optimize_fatigue(problem, mu=float(mu)).attack_position
             for mu in np.logspace(-2, 1, 11)]
    assert np.all(np.diff(mu_xs) >= -1e-7)


def test_criterion_11_round_trip_identities():
    """Closed-form inverses agree to 1e-10 across random feasible draws."""
    rng = np.random.default_rng(5150)

    # attack_power inverts earliest_attack_position
    for _ in range(200):
        problem = problem_with(energy_budget=float(rng.uniform(0.55, 1.9)))
        power = float(rng.uniform(1.46, 9.0))
        x = earliest_attack_position(power, problem)
        if not 0.0 < x < 1.0:
            continue
        assert attack_power(x, problem) == pytest.approx(power, rel=1e-10)

    # the fatigue schedule's energy inverts p_max_from_budget
    for _ in range(200):
        x_a = float(rng.uniform(0.0, 0.9))
        t_f = x_a + float(rng.uniform(0.05, 0.9))
        p_s = float(rng.uniform(0.2, 1.2))
        p_l = float(rng.uniform(0.2, 1.2))
        mu = float(rng.uniform(0.0, 12.0))
        budget = p_l * x_a + p_s * (t_f - x_a) + float(rng.uniform(0.0, 1.5))
        p_max = p_max_from_budget(budget, x_a, t_f, p_s, mu, p_lurk=p_l)
        schedule = PowerProfile(p_l, x_a, p_max, p_s, mu)
        assert schedule.energy(t_f) == pytest.approx(budget, rel=1e-10)

    # energy bookkeeping of the constant-power schedule
    for _ in range(200):
        problem = problem_with(energy_budget=float(rng.uniform(0.55, 1.9)))
        x_min = max((problem.cd_front - problem.energy_budget)
                    / (problem.cd_front - problem.cd_lurk), 0.0)
        x_a = float(rng.uniform(x_min + 1e-6, 0.999))
        power = attack_power(x_a, problem)
        t_f = x_a + (1.0 - x_a) / (power / problem.cd_front) ** (1.0 / 3.0)
        spent = problem.cd_lurk * x_a + power * (t_f - x_a)
        assert spent == pytest.approx(problem.energy_budget, rel=1e-10)
