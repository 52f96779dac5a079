import math

import numpy as np
import pytest

from breakaway.crash import CrashModel, exposure_simple_attack
from breakaway.flat import (
    Branch,
    InfeasibleAttackError,
    StrategyProblem,
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
)

PROBLEM = StrategyProblem(energy_budget=1.2, risk_index=0.8)


def problem_with(**kw) -> StrategyProblem:
    base = dict(energy_budget=1.2, risk_index=0.8)
    base.update(kw)
    return StrategyProblem(**base)


def objective_grid(problem, n=100_001):
    """Independent vectorized evaluation of the objective on a grid.

    Rebuilt from the closed forms (not via the library objective): clamped
    time gap plus the linear exposure, flat left of the feasibility
    boundary.
    """
    xs = np.linspace(0.0, 1.0, n)
    e, ci, c1 = problem.energy_budget, problem.cd_lurk, problem.cd_front
    x_min = max((c1 - e) / (c1 - ci), 0.0)
    x_eff = np.minimum(np.maximum(xs, x_min), 1.0)
    with np.errstate(invalid="ignore"):
        gap = 1.0 - x_eff - (1.0 - x_eff) ** 1.5 * math.sqrt(c1) / np.sqrt(
            e - ci * x_eff)
    gap = np.where(np.isfinite(gap), np.maximum(gap, 0.0), 0.0)
    crash = problem.crash
    ratio = math.expm1(-crash.omega * problem.position) / math.expm1(-crash.omega)
    risk = crash.intensity / crash.n_riders * (x_eff * ratio + 1.0 - x_eff)
    return xs, -problem.risk_index * gap + (1.0 - problem.risk_index) * risk


class TestFeasibilityBoundary:
    def test_reference_value(self):
        assert min_attack_position(PROBLEM) == pytest.approx(0.23 / 0.97, rel=1e-13)

    def test_clamped_at_zero_for_big_budgets(self):
        assert min_attack_position(problem_with(energy_budget=1.43)) == 0.0
        assert min_attack_position(problem_with(energy_budget=2.0)) == 0.0

    def test_minimum_winning_budget(self):
        assert min_attack_position(problem_with(energy_budget=0.46)) == pytest.approx(1.0)

    def test_earliest_attack_approaches_boundary(self):
        x = earliest_attack_position(1.43 * (1.0 + 1e-12), PROBLEM)
        assert x == pytest.approx(min_attack_position(PROBLEM), rel=1e-9)

    def test_earliest_attack_clamps(self):
        assert earliest_attack_position(2.0, problem_with(energy_budget=2.0)) == 0.0

    def test_slow_attack_rejected(self):
        with pytest.raises(InfeasibleAttackError):
            earliest_attack_position(1.2, PROBLEM)

    def test_unwinnable_budget_signalled_past_finish(self):
        # a budget below the lurking power maps beyond the finish line
        assert earliest_attack_position(2.0, problem_with(energy_budget=0.3)) > 1.0


class TestAttackPower:
    def test_boundary_gives_front_drag(self):
        x_min = min_attack_position(PROBLEM)
        assert attack_power(x_min, PROBLEM) == pytest.approx(1.43, rel=1e-12)

    def test_critical_budget_from_the_gun(self):
        problem = problem_with(energy_budget=1.43)
        assert attack_power(0.0, problem) == pytest.approx(1.43, rel=1e-13)

    def test_interior_position_needs_reference_power(self):
        assert attack_power(0.6948, PROBLEM) == pytest.approx(4.10, abs=5e-3)

    def test_round_trip_with_earliest_position(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            problem = problem_with(energy_budget=rng.uniform(0.6, 1.8))
            power = rng.uniform(1.44, 8.0)
            x = earliest_attack_position(power, problem)
            if not 0.0 < x < 1.0:
                continue
            assert attack_power(x, problem) == pytest.approx(power, rel=1e-10)

    def test_energy_bookkeeping(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            problem = problem_with(energy_budget=rng.uniform(0.6, 1.8))
            x = rng.uniform(min_attack_position(problem) + 1e-6, 0.999)
            power = attack_power(x, problem)
            speed = (power / problem.cd_front) ** (1.0 / 3.0)
            spent = problem.cd_lurk * x + power * (1.0 - x) / speed
            assert spent == pytest.approx(problem.energy_budget, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            attack_power(1.0, PROBLEM)
        with pytest.raises(InfeasibleAttackError):
            attack_power(0.9, problem_with(energy_budget=0.3))


class TestTimeGap:
    def test_zero_at_finish_line(self):
        assert time_gap_from_position(1.0, PROBLEM) == 0.0

    def test_zero_at_boundary(self):
        x_min = min_attack_position(PROBLEM)
        assert time_gap_from_position(x_min, PROBLEM) == pytest.approx(0.0, abs=1e-12)

    def test_interior_reference_value(self):
        # direct arithmetic evaluation of the closed form
        x = 0.6948
        expected = 1.0 - x - (1.0 - x) ** 1.5 * math.sqrt(1.43) / math.sqrt(
            1.2 - 0.46 * x)
        assert time_gap_from_position(x, PROBLEM) == pytest.approx(expected,
                                                                   rel=1e-13)
        assert expected == pytest.approx(0.0903, abs=1e-4)

    def test_positive_inside_window(self):
        x_min = min_attack_position(PROBLEM)
        xs = np.linspace(x_min + 1e-6, 1.0 - 1e-6, 101)
        gaps = [time_gap_from_position(x, PROBLEM) for x in xs]
        assert min(gaps) > 0.0

    def test_kink_at_boundary(self):
        x_min = min_attack_position(PROBLEM)
        h = 1e-7
        left = (objective(x_min, PROBLEM) - objective(x_min - h, PROBLEM)) / h
        right = (objective(x_min + h, PROBLEM) - objective(x_min, PROBLEM)) / h
        assert abs(left) < 1e-6            # flat plateau on the left
        assert abs(right - left) > 1e-3    # derivative jump at the boundary

    def test_gap_vanishes_at_minimum_power(self):
        x = earliest_attack_position(1.43 * (1 + 1e-13), PROBLEM)
        assert time_gap_from_position(x, PROBLEM) == pytest.approx(0.0, abs=1e-10)

    def test_interior_maximum_in_power(self):
        # each power held from its earliest attack position spends the budget
        powers = np.linspace(1.44, 12.0, 400)
        gaps = np.array([time_gap_from_position(earliest_attack_position(p, PROBLEM),
                                                PROBLEM) for p in powers])
        k = int(np.argmax(gaps))
        assert 0 < k < len(powers) - 1
        assert gaps[k] > gaps[0] and gaps[k] > gaps[-1]

    def test_budget_exhausted_error(self):
        with pytest.raises(ValueError):
            time_gap_from_position(0.9, problem_with(energy_budget=0.3))


class TestObjective:
    def test_pure_risk_avoidance(self):
        problem = problem_with(risk_index=0.0)
        xs, grid = objective_grid(problem, n=20_001)
        best = xs[int(np.argmin(grid))]
        assert best <= min_attack_position(problem) + 1e-4
        assert objective(0.0, problem) == pytest.approx(
            objective(min_attack_position(problem), problem))

    def test_pure_win_margin(self):
        problem = problem_with(risk_index=1.0)
        x = 0.6
        assert objective(x, problem) == pytest.approx(
            -time_gap_from_position(x, problem), rel=1e-12)

    def test_front_rider_constant_crash_term(self):
        problem = problem_with(position=1.0, risk_index=0.4)
        baseline = problem.crash.intensity / problem.crash.n_riders
        for x in (0.2, 0.5, 0.9):
            gap_term = -0.4 * max(time_gap_from_position(
                max(x, min_attack_position(problem)), problem), 0.0)
            assert objective(x, problem) == pytest.approx(
                gap_term + 0.6 * baseline, rel=1e-12)


class TestInteriorOptimum:
    def test_reference_solution_beta_one(self):
        solution = interior_optimum(problem_with(risk_index=1.0))
        # independent oracle: bisect the stationarity cubic directly
        from scipy.optimize import brentq
        a3 = 0.5 * math.sqrt(1.43) * 0.46
        a1 = -1.5 * math.sqrt(1.43)
        eta_ref = brentq(lambda y: a3 * y**3 + a1 * y + 1.0, 0.1, 1.0,
                         xtol=1e-14)
        assert solution.eta == pytest.approx(eta_ref, rel=1e-11)
        assert solution.attack_position == pytest.approx(0.695, abs=1e-3)
        assert solution.attack_power == pytest.approx(4.10, abs=5e-3)

    def test_stationarity_residual(self):
        for beta in (0.2, 0.5, 0.8, 1.0):
            problem = problem_with(risk_index=beta)
            solution = interior_optimum(problem)
            crash = problem.crash
            ratio = math.expm1(-0.5 * 5) / math.expm1(-0.5)
            residual = (beta + (1 - beta) * crash.intensity / crash.n_riders
                        * (ratio - 1.0)
                        + beta * math.sqrt(1.43)
                        * (0.23 * solution.eta**3 - 1.5 * solution.eta))
            assert abs(residual) < 1e-10

    def test_affine_in_energy_at_fixed_risk(self):
        budgets = np.array([0.8, 1.0, 1.2, 1.4])
        xs = np.array([interior_optimum(problem_with(energy_budget=e)).attack_position
                       for e in budgets])
        slope, intercept = np.polyfit(budgets, xs, 1)
        fit = slope * budgets + intercept
        assert np.max(np.abs(fit - xs)) < 1e-10

    def test_power_independent_of_energy(self):
        powers = [interior_optimum(problem_with(energy_budget=e)).attack_power
                  for e in (0.8, 1.0, 1.2, 1.4)]
        assert max(powers) - min(powers) < 1e-10

    def test_none_below_critical_risk(self):
        assert interior_optimum(problem_with(risk_index=0.0)) is None
        # just below the critical risk the stationary point leaves (x_min, 1)
        beta_star = critical_risk(PROBLEM)
        assert interior_optimum(problem_with(risk_index=beta_star * 0.5)) is None

    def test_objective_value_matches_scalar_minimizer(self):
        from scipy.optimize import minimize_scalar
        problem = problem_with(risk_index=1.0)
        x_ref = minimize_scalar(lambda x: objective(x, problem), bounds=(0, 1),
                                method="bounded", options={"xatol": 1e-12}).x
        assert interior_optimum(problem).attack_position == pytest.approx(
            x_ref, abs=1e-6)


class TestOptimalAttack:
    def test_risk_averse_strong_rider_goes_from_the_gun(self):
        result = optimal_attack(problem_with(energy_budget=1.5, risk_index=0.0))
        assert result.branch is Branch.BOUNDARY
        assert result.attack_position == 0.0
        assert result.time_gap > 0.0

    def test_below_critical_risk_sits_on_boundary(self):
        result = optimal_attack(problem_with(risk_index=0.05))
        assert result.branch is Branch.BOUNDARY
        assert result.attack_position == pytest.approx(0.23711, abs=1e-5)
        assert result.time_gap == pytest.approx(0.0, abs=1e-12)

    def test_maximum_risk_takes_interior(self):
        result = optimal_attack(problem_with(risk_index=1.0))
        assert result.branch is Branch.INTERIOR
        assert result.attack_position == pytest.approx(0.695, abs=1e-3)
        assert result.time_gap == pytest.approx(0.0903, abs=1e-4)

    def test_branch_switch_at_critical_risk(self):
        beta_star = critical_risk(PROBLEM)
        for delta in (1e-2, 1e-6):
            assert optimal_attack(problem_with(risk_index=beta_star - delta)).branch \
                is Branch.BOUNDARY
            assert optimal_attack(problem_with(risk_index=beta_star + delta)).branch \
                is Branch.INTERIOR

    def test_no_win_below_minimum_energy(self):
        result = optimal_attack(problem_with(energy_budget=0.3))
        assert result.branch is Branch.NO_WIN
        assert result.attack_position is None
        assert result.time_gap == 0.0
        expected_risk = exposure_simple_attack(1.0, 5, PROBLEM.crash)
        assert result.exposure == pytest.approx(expected_risk)

    def test_matches_grid_minimization(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            problem = problem_with(energy_budget=rng.uniform(0.5, 2.0),
                                   risk_index=rng.uniform(0.0, 1.0))
            result = optimal_attack(problem)
            xs, grid = objective_grid(problem, n=20_001)
            lowest = grid.min()
            if result.branch is Branch.NO_WIN:
                assert result.objective == pytest.approx(lowest, abs=1e-12)
                continue
            tied = xs[grid <= lowest + 1e-14]
            assert np.min(np.abs(tied - result.attack_position)) <= xs[1] - xs[0]
            assert result.objective <= lowest + 1e-9

    def test_monotone_in_risk(self):
        betas = np.linspace(0.0, 1.0, 21)
        xs, gaps = [], []
        for beta in betas:
            result = optimal_attack(problem_with(risk_index=beta))
            xs.append(result.attack_position)
            gaps.append(result.time_gap)
        assert np.all(np.diff(xs) >= -1e-12)
        assert np.all(np.diff(gaps) >= -1e-12)

    def test_dense_risk_grid_against_brute_force(self):
        # 1000 risk indices, each checked against a 1e5-point grid minimum
        n = 100_001
        xs = np.linspace(0.0, 1.0, n)
        spacing = xs[1] - xs[0]
        problem0 = problem_with()
        e, ci, c1 = problem0.energy_budget, problem0.cd_lurk, problem0.cd_front
        x_min = max((c1 - e) / (c1 - ci), 0.0)
        x_eff = np.maximum(xs, x_min)
        gap = np.maximum(1.0 - x_eff - (1.0 - x_eff) ** 1.5 * math.sqrt(c1)
                         / np.sqrt(e - ci * x_eff), 0.0)
        crash = problem0.crash
        ratio = math.expm1(-crash.omega * 5.0) / math.expm1(-crash.omega)
        risk = crash.intensity / crash.n_riders * (x_eff * ratio + 1.0 - x_eff)
        for beta in np.linspace(0.0, 1.0, 1000):
            grid = -beta * gap + (1.0 - beta) * risk
            lowest = grid.min()
            result = optimal_attack(problem_with(risk_index=float(beta)))
            tied = xs[grid <= lowest + 1e-14]
            assert np.min(np.abs(tied - result.attack_position)) <= spacing


class TestCriticalRiskAndFrontier:
    def test_reference_value(self):
        assert critical_risk(PROBLEM) == pytest.approx(0.0949, abs=5e-4)

    def test_front_rider_has_zero_critical_risk(self):
        assert critical_risk(problem_with(position=1.0)) == 0.0

    def test_no_crashes_no_critical_risk(self):
        problem = problem_with(crash=CrashModel(intensity=0.0))
        assert critical_risk(problem) == 0.0

    def test_min_energy_frontier(self):
        beta_star = critical_risk(PROBLEM)
        assert min_energy_to_win(PROBLEM, beta_star / 2.0) == 1.43
        assert min_energy_to_win(PROBLEM, 0.5) == 0.46

    def test_min_risk_frontier(self):
        beta_star = critical_risk(PROBLEM)
        assert min_risk_to_win(PROBLEM, 2.0) == 0.0
        assert min_risk_to_win(PROBLEM, 1.0) == pytest.approx(beta_star)
        assert min_risk_to_win(PROBLEM, 0.3) is None

    def test_interior_powers_collapse_across_budgets(self):
        # on the interior branch the optimal power does not depend on the
        # budget, so sweeps over the budget land on one curve
        for beta in (0.3, 0.7, 1.0):
            powers = []
            for e in (0.9, 1.2, 1.5):
                result = optimal_attack(problem_with(energy_budget=e,
                                                     risk_index=beta))
                if result.branch is Branch.INTERIOR:
                    powers.append(result.attack_power)
            if len(powers) > 1:
                assert max(powers) - min(powers) < 1e-9


class TestValidation:
    def test_problem_invariants(self):
        with pytest.raises(ValueError):
            problem_with(risk_index=1.5)
        with pytest.raises(ValueError):
            problem_with(energy_budget=-0.1)
        with pytest.raises(ValueError, match="energy_budget must be non-negative"):
            problem_with(energy_budget=math.nan)
        for position in (0.5, math.nan):
            with pytest.raises(ValueError, match="position must be >= 1"):
                problem_with(position=position)
        with pytest.raises(ValueError):
            StrategyProblem(cd_front=0.4, cd_lurk=0.46)
