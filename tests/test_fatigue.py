import math

import numpy as np
import pytest

from breakaway.crash import exposure_simple_attack
from breakaway.fatigue import (
    RESIDUAL_FLOOR,
    InfeasibleBudgetError,
    _attack_solve,
    _finish_time_slope,
    _speed_integral,
    _speed_integral_slope,
    optimize_fatigue,
    p_max_from_budget,
    reported_residual,
)
from breakaway.flat import StrategyProblem, optimal_attack
from breakaway.model import PowerProfile
from breakaway.numerics import SolverSettings, integrate_adaptive


def schedule_with(**kw) -> PowerProfile:
    """The fatigue schedule: lurk, then a burst decaying toward p_sustain."""
    base = dict(p_lurk=0.46, attack_time=0.5, p_max=4.0, p_sustain=0.46, mu=1.0)
    base.update(kw)
    return PowerProfile(**base)


def position_after_attack(t, t_a, p_max, mu, p_s=0.46, cd_front=1.43):
    """Rider position at time t >= t_a when the attack starts at x = t_a."""
    return t_a + _speed_integral(t - t_a, p_max, p_s, mu) / cd_front ** (1.0 / 3.0)


def problem_with(**kw) -> StrategyProblem:
    base = dict(energy_budget=1.2, risk_index=0.8)
    base.update(kw)
    return StrategyProblem(**base)


class TestPowerSchedule:
    def test_peak_at_attack(self):
        assert schedule_with().power_at(0.5) == pytest.approx(4.0)

    def test_decays_to_sustainable(self):
        assert schedule_with().power_at(40.0) == pytest.approx(0.46, rel=1e-12)

    def test_lurk_before_attack(self):
        assert schedule_with().power_at(0.2) == pytest.approx(0.46)

    def test_no_fatigue_holds_peak(self):
        schedule = schedule_with(mu=0.0)
        assert schedule.power_at(0.9) == pytest.approx(4.0)
        assert schedule.power_at(5.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_with(mu=-1.0)


class TestTotalEnergy:
    def test_no_burst(self):
        schedule = schedule_with(p_max=0.46)
        assert schedule.energy(1.0) == pytest.approx(0.46, rel=1e-13)

    def test_reference_value(self):
        expected = 0.46 * 0.5 + 0.46 * 0.5 + 3.54 * (1.0 - math.exp(-0.5))
        assert schedule_with(mu=1.0).energy(1.0) == pytest.approx(expected,
                                                                  rel=1e-13)

    def test_vanishing_fatigue_matches_constant_power(self):
        constant = 0.46 * 0.5 + 4.0 * 0.5
        assert schedule_with(mu=1e-12).energy(1.0) == pytest.approx(constant,
                                                                    rel=1e-10)

    def test_matches_power_profile_closed_form(self):
        # the schedule's energy against the burst formula written out
        rng = np.random.default_rng(13)
        for _ in range(30):
            t_a = rng.uniform(0.05, 0.8)
            p_max, mu = rng.uniform(1.0, 9.0), rng.uniform(0.0, 9.0)
            schedule = schedule_with(p_max=p_max, mu=mu, attack_time=t_a)
            t_f = t_a + rng.uniform(0.05, 0.9)
            delta = t_f - t_a
            burst = (p_max - 0.46) * -math.expm1(-mu * delta) / mu
            expected = 0.46 * t_a + 0.46 * delta + burst
            assert schedule.energy(t_f) == pytest.approx(expected, rel=1e-12)

    def test_matches_quadrature_of_schedule(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t_a = rng.uniform(0.1, 0.8)
            schedule = schedule_with(p_max=rng.uniform(1.0, 9.0),
                                     mu=rng.uniform(0.0, 8.0), attack_time=t_a)
            t_f = t_a + rng.uniform(0.05, 0.6)
            # split the reference at the power jump to keep quad accurate
            lurk, _ = integrate_adaptive(schedule.power_at, 0.0, t_a)
            burst, _ = integrate_adaptive(schedule.power_at, t_a, t_f)
            assert schedule.energy(t_f) == pytest.approx(lurk + burst, rel=1e-10)


class TestPeakPowerFromBudget:
    def test_zero_surplus(self):
        budget = 0.46 * 0.5 + 0.46 * 0.5
        p_max = p_max_from_budget(budget, 0.5, 1.0, 0.46, 2.0, 0.46)
        assert p_max == pytest.approx(0.46)

    def test_no_fatigue_spreads_uniformly(self):
        budget = 0.46 * 0.5 + 0.46 * 0.5 + 0.7
        expected = 0.46 + 0.7 / 0.5
        p_max = p_max_from_budget(budget, 0.5, 1.0, 0.46, 0.0, 0.46)
        assert p_max == pytest.approx(expected, rel=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x_a = rng.uniform(0.0, 0.9)
            t_f = x_a + rng.uniform(0.05, 0.8)
            p_s = rng.uniform(0.2, 1.0)
            p_l = rng.uniform(0.2, 1.0)
            mu = rng.uniform(0.0, 10.0)
            budget = p_l * x_a + p_s * (t_f - x_a) + rng.uniform(0.0, 1.5)
            p_max = p_max_from_budget(budget, x_a, t_f, p_s, mu, p_lurk=p_l)
            schedule = PowerProfile(p_l, x_a, p_max, p_s, mu)
            assert schedule.energy(t_f) == pytest.approx(budget, rel=1e-10)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            p_max_from_budget(0.1, 0.5, 1.0, 0.46, 1.0, 0.46)


class TestPositionAfterAttack:
    def test_starts_at_attack_point(self):
        assert position_after_attack(0.5, 0.5, 4.0, 1.0) == pytest.approx(0.5)

    def test_constant_power_cases(self):
        v = (0.46 / 1.43) ** (1.0 / 3.0)
        assert position_after_attack(0.9, 0.5, 0.46, 1.0) == pytest.approx(
            0.5 + v * 0.4, rel=1e-12)
        v = (4.0 / 1.43) ** (1.0 / 3.0)
        assert position_after_attack(0.9, 0.5, 4.0, 0.0) == pytest.approx(
            0.5 + v * 0.4, rel=1e-12)

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p_max, mu = rng.uniform(1.0, 12.0), rng.uniform(0.0, 12.0)
            t = 0.5 + rng.uniform(0.01, 0.7)
            speed = lambda s: (0.46 + (p_max - 0.46)
                               * math.exp(-mu * s)) ** (1.0 / 3.0)
            ref, _ = integrate_adaptive(speed, 0.0, t - 0.5)
            expected = 0.5 + ref / 1.43 ** (1.0 / 3.0)
            assert position_after_attack(t, 0.5, p_max, mu) == pytest.approx(
                expected, abs=1e-10)


class TestDerivatives:
    def test_speed_integral_slope_matches_difference_quotient(self):
        for delta, p_max, mu in ((0.7, 4.0, 1.0), (0.3, 9.0, 40.0), (0.5, 2.0, 0.0)):
            h = 1e-5
            quotient = (_speed_integral(delta, p_max + h, 0.46, mu)
                        - _speed_integral(delta, p_max - h, 0.46, mu)) / (2.0 * h)
            assert _speed_integral_slope(delta, p_max, 0.46, mu) == pytest.approx(
                quotient, rel=1e-8)

    def test_finish_time_slope_matches_difference_quotient(self):
        tight = SolverSettings(abs_tol=1e-15)
        for x, budget, mu in ((0.4, 1.25, 1.0), (0.7, 1.2, 6.0), (0.6, 1.5, 0.0)):
            t_f, p_max = _attack_solve(x, budget, 0.46, 0.46, mu, 1.43, tight)
            h = 1e-6
            t_hi, _ = _attack_solve(x + h, budget, 0.46, 0.46, mu, 1.43, tight)
            t_lo, _ = _attack_solve(x - h, budget, 0.46, 0.46, mu, 1.43, tight)
            slope = _finish_time_slope(x, t_f, p_max, 0.46, 0.46, mu, 1.43)
            assert slope == pytest.approx((t_hi - t_lo) / (2.0 * h), rel=1e-7)


class TestFinishTime:
    """The finish time of the schedule that spends a budget, via _attack_solve."""

    def test_marginal_attack_finishes_with_peloton(self):
        # riding the front at 1.43 from the start spends 1.43 in unit time
        t_f, p_max = _attack_solve(0.0, 1.43, 1.43, 0.46, 0.0, 1.43)
        assert t_f == pytest.approx(1.0, abs=1e-10)
        assert p_max == pytest.approx(1.43, abs=1e-9)

    def test_constant_power_closed_form(self):
        # a constant 4.0 from x = 0.5 spends 4.0 per unit of the ride time
        ride = 0.5 * (1.43 / 4.0) ** (1.0 / 3.0)
        t_f, p_max = _attack_solve(0.5, 0.46 * 0.5 + 4.0 * ride, 0.46, 0.46,
                                   0.0, 1.43)
        assert t_f == pytest.approx(0.5 + ride, abs=1e-10)
        assert p_max == pytest.approx(4.0, rel=1e-9)

    def test_monotone_in_peak_power(self):
        solved = [_attack_solve(0.5, budget, 0.46, 0.46, 1.0, 1.43)
                  for budget in (0.8, 1.2, 1.8)]
        times = [t_f for t_f, _ in solved]
        peaks = [p_max for _, p_max in solved]
        assert peaks[0] < peaks[1] < peaks[2]
        assert times[0] > times[1] > times[2]

    def test_burst_too_small_to_finish(self):
        # the budget cannot carry the rider home even at the cheapest pace
        assert _attack_solve(0.2, 0.5, 0.46, 0.4, 30.0, 1.43) is None


class TestOptimizeFatigue:
    def test_recovers_constant_power_model(self):
        for beta in (0.05, 0.5, 1.0):
            problem = problem_with(risk_index=beta)
            result = optimize_fatigue(problem, mu=1e-3)
            reference = optimal_attack(problem)
            assert result.converged
            assert abs(result.attack_position - reference.attack_position) < 1e-2

    def test_later_attacks_for_fast_fatigue(self):
        problem = problem_with(risk_index=0.8, energy_budget=1.25)
        xs = [optimize_fatigue(problem, mu=mu).attack_position
              for mu in (0.01, 1.0, 4.0, 10.0)]
        assert np.all(np.diff(xs) >= -1e-7)

    def test_peak_power_scales_with_fatigue(self):
        problem = problem_with(risk_index=0.2, energy_budget=1.5)
        p1 = optimize_fatigue(problem, mu=1.0).peak_power
        p10 = optimize_fatigue(problem, mu=10.0).peak_power
        assert p10 > p1
        assert p10 == pytest.approx(10.0, rel=0.5)   # same order as mu

    def test_constraint_residuals(self):
        result = optimize_fatigue(problem_with(), mu=2.0)
        assert result.converged
        assert result.budget_residual < 1e-8
        assert result.arrival_residual < 1e-8

    def test_matches_brute_force_nested_search(self):
        problem = problem_with(risk_index=0.7, energy_budget=1.3)
        mu = 1.5
        xs = np.linspace(0.0, 1.0 - 1e-6, 41)
        best_x, best_val = None, np.inf
        for x in xs:
            solved = _attack_solve(x, 1.3, 0.46, 0.46, mu, 1.43)
            if solved is None:
                continue
            gap = max(1.0 - solved[0], 0.0)
            value = -0.7 * gap + 0.3 * exposure_simple_attack(x, 5, problem.crash)
            if value < best_val:
                best_x, best_val = x, value
        result = optimize_fatigue(problem, mu=mu)
        assert abs(result.attack_position - best_x) <= xs[1] - xs[0]
        assert result.objective <= best_val + 1e-12

    def test_boundary_branch_at_low_risk(self):
        # below the critical risk the optimum is the earliest attack that
        # matches the peloton, with no time gained; deliberately losing
        # attacks earn no crash-avoidance credit
        problem = problem_with(risk_index=0.08)
        result = optimize_fatigue(problem, mu=2.0)
        assert result.time_gap == pytest.approx(0.0, abs=1e-8)
        expected = 0.92 * exposure_simple_attack(result.attack_position, 5,
                                                 problem.crash)
        assert result.objective == pytest.approx(expected, rel=1e-9)
        # attacking even earlier cannot reach the line ahead of the pack
        earlier = _attack_solve(result.attack_position - 0.05, 1.2, 0.46,
                                0.46, 2.0, 1.43)
        assert earlier is None or 1.0 - earlier[0] < 0.0

    def test_zero_gap_boundary_is_exact(self):
        # the boundary optimum matches the peloton by construction
        result = optimize_fatigue(problem_with(risk_index=0.0, energy_budget=1.25),
                                  mu=1.0)
        assert result.finish_time == 1.0
        assert result.time_gap == 0.0
        assert result.budget_residual <= RESIDUAL_FLOOR
        assert result.arrival_residual <= RESIDUAL_FLOOR

    def test_iterations_stay_bounded(self):
        result = optimize_fatigue(problem_with(energy_budget=1.25, risk_index=0.5),
                                  mu=1.0)
        assert result.iterations <= 175

    def test_residual_floor(self):
        assert reported_residual(2.2e-16) == 0.0
        assert reported_residual(RESIDUAL_FLOOR) == 0.0
        assert reported_residual(3e-12) == 3e-12
        assert math.isnan(reported_residual(math.nan))

    def test_post_attack_speed_monotone_decreasing(self):
        result = optimize_fatigue(problem_with(), mu=3.0)
        schedule = PowerProfile(0.46, result.attack_position,
                                result.peak_power, 0.46, 3.0)
        ts = np.linspace(result.attack_position, result.finish_time, 64).tolist()
        speeds = (np.array([schedule.power_at(t) for t in ts]) / 1.43) ** (1.0 / 3.0)
        assert np.all(np.diff(speeds) <= 1e-15)
        floor = (0.46 / 1.43) ** (1.0 / 3.0)
        assert speeds[-1] >= floor - 1e-12

    def test_no_win_on_tiny_budget(self):
        result = optimize_fatigue(problem_with(energy_budget=0.3), mu=1.0)
        assert result.status == "no_win"
        assert result.attack_position is None
        assert result.time_gap == 0.0

    def test_custom_sustainable_power(self):
        result = optimize_fatigue(problem_with(), mu=1.0, p_sustain=0.8)
        assert result.converged
        # a higher floor means the burst carries less of the budget
        default = optimize_fatigue(problem_with(), mu=1.0)
        assert result.peak_power < default.peak_power

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_fatigue(problem_with(), mu=-1.0)
        with pytest.raises(ValueError):
            optimize_fatigue(problem_with(), mu=1.0, p_sustain=-0.2)


def _mpmath_optimum(mp, beta):
    """Reference (x_a*, t_f*, p_max*) at E* = 1.25, mu = 1 from the model equations.

    Written from the equations alone: the zero-gap boundary solves the
    arrival condition with the budget spent at t = 1; an interior optimum
    solves the Lagrange conditions of min beta t_f + (1 - beta) exposure
    subject to the budget and arrival constraints, with the multipliers
    eliminated by a 2x2 solve.  The smaller objective wins.
    """
    E, C, p_s, mu = mp.mpf("1.25"), mp.mpf("1.43"), mp.mpf("0.46"), mp.mpf(1)
    p_l = p_s
    rate, n_riders, omega, position = mp.mpf(2), 75, mp.mpf("0.5"), 5
    ratio = mp.expm1(-omega * position) / mp.expm1(-omega)
    exposure = lambda x: rate / n_riders * (x * ratio + 1 - x)
    exposure_slope = rate / n_riders * (ratio - 1)
    c3 = mp.cbrt(C)
    burst = lambda d: -mp.expm1(-mu * d) / mu
    amplitude = lambda x, d: (E - p_l * x - p_s * d) / burst(d)

    def distance(d, a):
        return mp.quad(lambda s: mp.cbrt(p_s + a * mp.exp(-mu * s)), [0, d])

    def distance_slope(d, a):
        return mp.quad(lambda s: mp.exp(-mu * s)
                       / (3 * mp.cbrt(p_s + a * mp.exp(-mu * s)) ** 2), [0, d])

    def duration(x):
        return mp.findroot(lambda d: x + distance(d, amplitude(x, d)) / c3 - 1,
                           1 - x)

    def lagrange_residual(x):
        d = duration(x)
        a = amplitude(x, d)
        p_end = p_s + a * mp.exp(-mu * d)
        # d/d(delta) and d/dA of the Lagrangian fix the two multipliers
        l_budget, l_arrival = mp.lu_solve(
            mp.matrix([[p_end, mp.cbrt(p_end)], [burst(d), distance_slope(d, a)]]),
            mp.matrix([-beta, 0]))
        return beta + (1 - beta) * exposure_slope + l_budget * p_l + l_arrival * c3

    x_zero = mp.findroot(
        lambda x: x + distance(1 - x, amplitude(x, 1 - x)) / c3 - 1, mp.mpf("0.2"))
    best = ((1 - beta) * exposure(x_zero), x_zero, mp.mpf(1),
            p_s + amplitude(x_zero, 1 - x_zero))
    if beta > 0:
        x = mp.findroot(lagrange_residual, mp.mpf("0.5"))
        d = duration(x)
        value = -beta * (1 - x - d) + (1 - beta) * exposure(x)
        if value < best[0]:
            best = (value, x, x + d, p_s + amplitude(x, d))
    return tuple(float(v) for v in best[1:])


class TestMpmathOracle:
    """The certified optimum and the closed forms against independent mpmath references."""

    @pytest.mark.parametrize("mu", [1e-9, 1e-3, 1.0, 400.0, 1e6])
    def test_speed_integral_matches_mpmath(self, mu):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        with mpmath.workdps(40):
            for _ in range(4):
                delta, p_s = rng.uniform(0.01, 1.0), rng.uniform(0.05, 2.0)
                p_max = p_s + 10.0 ** rng.uniform(-6.0, 1.5)
                amp = mpmath.mpf(p_max) - mpmath.mpf(p_s)
                decay = lambda s: mpmath.exp(-mu * s)
                speed = lambda s: mpmath.cbrt(p_s + amp * decay(s))
                # breakpoints at multiples of the decay length 1/mu
                points = ([0] + [mpmath.mpf(j) / mu for j in (1, 4, 16, 64)
                                 if j / mu < delta] + [delta])
                value = mpmath.quad(speed, points)
                slope = mpmath.quad(lambda s: decay(s) / (3 * speed(s) ** 2), points)
                assert _speed_integral(delta, p_max, p_s, mu) == pytest.approx(
                    float(value), rel=2e-15)
                assert _speed_integral_slope(delta, p_max, p_s, mu) == pytest.approx(
                    float(slope), rel=2e-15)

    @pytest.mark.parametrize("beta", ["0", "0.1", "0.5", "1"])
    def test_optimum_matches_mpmath(self, beta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            x_ref, t_ref, p_ref = _mpmath_optimum(mpmath, mpmath.mpf(beta))
        result = optimize_fatigue(
            problem_with(energy_budget=1.25, risk_index=float(beta)), mu=1.0)
        assert result.attack_position == pytest.approx(x_ref, abs=1e-11)
        assert result.finish_time == pytest.approx(t_ref, abs=1e-11)
        assert result.peak_power == pytest.approx(p_ref, abs=1e-11)
