import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from breakaway.crash import exposure_simple_attack
from breakaway.fatigue import (
    RESIDUAL_FLOOR,
    InfeasibleBudgetError,
    _X_CAP,
    _attack_solve,
    _burst_integral,
    _feasibility_boundary,
    _finish_time_slope,
    _speed_integral,
    _speed_integral_slope,
    optimize_fatigue,
    p_max_from_budget,
    reported_residual,
)
from breakaway.flat import StrategyProblem, optimal_attack
from breakaway.numerics import SolverSettings, integrate_adaptive


def energy_spent(t, t_a=0.5, p_max=4.0, mu=1.0, p_lurk=0.46, p_sustain=0.46):
    """Energy of the fatigue schedule by time t >= t_a, from the budget's closed form."""
    delta = t - t_a
    return p_lurk * t_a + p_sustain * delta + (p_max - p_sustain) * _burst_integral(delta, mu)


def burst_energy_reference(mpmath, delta, p_max, mu, p_sustain=0.46):
    """mpmath quadrature of the post-attack power over [0, delta], split at
    multiples of the decay length 1/mu."""
    power = lambda s: p_sustain + (mpmath.mpf(p_max) - p_sustain) * mpmath.exp(-mu * s)
    points = [0] + [mpmath.mpf(j) / mu for j in (1, 4, 16, 64)
                    if mu > 0.0 and j / mu < delta] + [delta]
    return mpmath.quad(power, points)


def position_after_attack(t, t_a, p_max, mu, p_s=0.46, cd_front=1.43):
    """Rider position at time t >= t_a when the attack starts at x = t_a."""
    return t_a + _speed_integral(t - t_a, p_max, p_s, mu) / cd_front ** (1.0 / 3.0)


def problem_with(**kw) -> StrategyProblem:
    base = dict(energy_budget=1.2, risk_index=0.8)
    base.update(kw)
    return StrategyProblem(**base)


class TestPowerSchedule:
    """The schedule as its closed forms hold it: the energy and the distance
    over a span are the integrals of the power and of its cube root."""

    def test_peak_at_attack(self):
        h = 1e-9
        assert (energy_spent(0.5 + h) - energy_spent(0.5)) / h == pytest.approx(
            4.0, rel=1e-6)
        assert _speed_integral(h, 4.0, 0.46, 1.0) / h == pytest.approx(
            4.0 ** (1.0 / 3.0), rel=1e-8)

    def test_decays_to_sustainable(self):
        assert energy_spent(41.0) - energy_spent(40.0) == pytest.approx(0.46, rel=1e-12)
        distance = (_speed_integral(41.0, 4.0, 0.46, 1.0)
                    - _speed_integral(40.0, 4.0, 0.46, 1.0))
        assert distance == pytest.approx(0.46 ** (1.0 / 3.0), rel=1e-12)

    def test_lurk_before_attack(self):
        # a later attack with the ride's length and burst unchanged costs
        # p_lurk per unit of the extra lurk
        p_max = p_max_from_budget(1.2, 0.5, 0.9, 0.46, 1.0, 0.46)
        later = p_max_from_budget(1.2 + 0.46 * 0.25, 0.75, 1.15, 0.46, 1.0, 0.46)
        assert later == pytest.approx(p_max, rel=1e-13)
        assert energy_spent(0.5, p_max=9.0) == pytest.approx(0.46 * 0.5, rel=1e-15)

    def test_no_fatigue_holds_peak(self):
        for delta in (0.4, 4.5):
            assert energy_spent(0.5 + delta, mu=0.0) == pytest.approx(
                0.46 * 0.5 + 4.0 * delta, rel=1e-14)
            assert _speed_integral(delta, 4.0, 0.46, 0.0) == pytest.approx(
                4.0 ** (1.0 / 3.0) * delta, rel=1e-15)

    def test_validation(self):
        # a negative rate would grow the burst without bound; the burst
        # integral alone would read it as mu = 0
        for mu in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mu must be non-negative"):
                p_max_from_budget(1.2, 0.5, 0.9, 0.46, mu, 0.46)

    @pytest.mark.parametrize("name", ["energy_budget", "x_attack", "t_finish",
                                      "p_sustain", "p_lurk"])
    def test_nan_names_the_argument(self, name):
        # NaN fails no comparison, so it would otherwise come back as a NaN power
        args = {"energy_budget": 1.2, "x_attack": 0.5, "t_finish": 0.9,
                "p_sustain": 0.46, "mu": 1.0, "p_lurk": 0.46, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            p_max_from_budget(**args)


class TestTotalEnergy:
    def test_no_burst(self):
        assert energy_spent(1.0, p_max=0.46) == pytest.approx(0.46, rel=1e-13)

    def test_reference_value(self):
        expected = 0.46 * 0.5 + 0.46 * 0.5 + 3.54 * (1.0 - math.exp(-0.5))
        assert energy_spent(1.0, mu=1.0) == pytest.approx(expected, rel=1e-13)

    def test_vanishing_fatigue_matches_constant_power(self):
        constant = 0.46 * 0.5 + 4.0 * 0.5
        assert energy_spent(1.0, mu=1e-12) == pytest.approx(constant, rel=1e-10)

    def test_matches_power_profile_closed_form(self):
        # the schedule's energy against the burst formula written out
        rng = np.random.default_rng(13)
        for _ in range(30):
            t_a = rng.uniform(0.05, 0.8)
            p_max, mu = rng.uniform(1.0, 9.0), rng.uniform(0.0, 9.0)
            t_f = t_a + rng.uniform(0.05, 0.9)
            delta = t_f - t_a
            burst = (p_max - 0.46) * (1.0 - math.exp(-mu * delta)) / mu
            expected = 0.46 * t_a + 0.46 * delta + burst
            assert energy_spent(t_f, t_a, p_max, mu) == pytest.approx(expected,
                                                                     rel=1e-12)

    def test_matches_quadrature_of_schedule(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2)
        for _ in range(25):
            t_a = rng.uniform(0.1, 0.8)
            p_max, mu = rng.uniform(1.0, 9.0), rng.uniform(0.0, 8.0)
            t_f = t_a + rng.uniform(0.05, 0.6)
            burst = burst_energy_reference(mpmath, t_f - t_a, p_max, mu)
            assert energy_spent(t_f, t_a, p_max, mu) == pytest.approx(
                0.46 * t_a + float(burst), rel=1e-13)


class TestBurstIntegral:
    """_burst_integral(delta, mu), the integral of exp(-mu s) over [0, delta]."""

    def test_small_rates_match_mpmath(self):
        # (1 - exp(-mu delta)) / mu loses digits to cancellation unless
        # written with expm1; an underflowing mu * delta is mu = 0
        mpmath = pytest.importorskip("mpmath")
        for mu in (1e-9, 1e-5, 1.0):
            for delta in (0.5, 1.0, 1.7):
                with mpmath.workdps(30):
                    exact = float(-mpmath.expm1(-mpmath.mpf(mu) * delta) / mu)
                assert _burst_integral(delta, mu) == pytest.approx(exact, rel=4.5e-16,
                                                                   abs=0.0)
        for mu in (1e-320, 5e-324, 0.0):
            assert _burst_integral(0.5, mu) == 0.5

    def test_large_rate(self):
        # exp(-mu s) underflows long before the finish at large mu
        mpmath = pytest.importorskip("mpmath")
        for mu in (400.0, 1e3, 1e6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p_max = p_max_from_budget(1.2, 0.9, 1.0, 0.46, mu, 0.46)
            assert _burst_integral(0.1, mu) == pytest.approx(
                -math.expm1(-mu * 0.1) / mu, rel=4.5e-16)
            burst = burst_energy_reference(mpmath, 0.1, p_max, mu)
            assert 0.46 * 0.9 + float(burst) == pytest.approx(1.2, rel=1e-12)

    def test_non_decreasing_and_additive(self):
        mu = 4.0
        values = [_burst_integral(d, mu) for d in np.linspace(0.0, 2.0, 50).tolist()]
        assert np.all(np.diff(values) >= 0.0)
        a, b = 0.77, 1.13
        assert _burst_integral(a + b, mu) == pytest.approx(
            _burst_integral(a, mu) + math.exp(-mu * a) * _burst_integral(b, mu),
            rel=1e-14)


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
        # the lurk plus an mpmath quadrature of the post-attack power spends
        # the budget
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        for _ in range(100):
            x_a = rng.uniform(0.0, 0.9)
            t_f = x_a + rng.uniform(0.05, 0.8)
            p_s = rng.uniform(0.2, 1.0)
            p_l = rng.uniform(0.2, 1.0)
            mu = rng.uniform(0.0, 10.0)
            budget = p_l * x_a + p_s * (t_f - x_a) + rng.uniform(0.0, 1.5)
            p_max = p_max_from_budget(budget, x_a, t_f, p_s, mu, p_lurk=p_l)
            burst = burst_energy_reference(mpmath, t_f - x_a, p_max, mu, p_s)
            assert p_l * x_a + float(burst) == pytest.approx(budget, rel=1e-10)

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
            delta, p_max = _attack_solve(x, budget, 0.46, 0.46, mu, 1.43, tight)
            h = 1e-6
            d_hi, _ = _attack_solve(x + h, budget, 0.46, 0.46, mu, 1.43, tight)
            d_lo, _ = _attack_solve(x - h, budget, 0.46, 0.46, mu, 1.43, tight)
            slope = _finish_time_slope(x, x + delta, p_max, 0.46, 0.46, mu, 1.43)
            t_hi, t_lo = (x + h) + d_hi, (x - h) + d_lo
            assert slope == pytest.approx((t_hi - t_lo) / (2.0 * h), rel=1e-7)


class TestFinishTime:
    """The ride time after the attack of the schedule that spends a budget,
    via _attack_solve."""

    def test_marginal_attack_finishes_with_peloton(self):
        # riding the front at 1.43 from the start spends 1.43 in unit time
        delta, p_max = _attack_solve(0.0, 1.43, 1.43, 0.46, 0.0, 1.43)
        assert delta == pytest.approx(1.0, abs=1e-10)
        assert p_max == pytest.approx(1.43, abs=1e-9)

    def test_constant_power_closed_form(self):
        # a constant 4.0 from x = 0.5 spends 4.0 per unit of the ride time
        ride = 0.5 * (1.43 / 4.0) ** (1.0 / 3.0)
        delta, p_max = _attack_solve(0.5, 0.46 * 0.5 + 4.0 * ride, 0.46, 0.46,
                                     0.0, 1.43)
        assert delta == pytest.approx(ride, abs=1e-10)
        assert p_max == pytest.approx(4.0, rel=1e-9)

    def test_monotone_in_peak_power(self):
        solved = [_attack_solve(0.5, budget, 0.46, 0.46, 1.0, 1.43)
                  for budget in (0.8, 1.2, 1.8)]
        times = [delta for delta, _ in solved]
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

    def test_budget_residual_checks_the_burst_integral(self, monkeypatch, capsys):
        # the residual is a quadrature of the power, so a burst integral 1e-6
        # too large, which the solver imposes exactly, cannot pass it
        import breakaway.fatigue as fatigue
        from breakaway.cli import main

        burst_integral = fatigue._burst_integral
        monkeypatch.setattr(fatigue, "_burst_integral",
                            lambda delta, mu: burst_integral(delta, mu) * (1.0 + 1e-6))
        result = optimize_fatigue(StrategyProblem(), mu=1.0)
        assert not result.converged
        assert result.budget_residual > 1e-8
        assert main(["fatigue"]) == 2
        header, row = [line.split(",") for line in capsys.readouterr().out.splitlines()
                       if not line.startswith("#")]
        printed = dict(zip(header, row))
        assert printed["converged"] == "false"
        assert float(printed["budget_residual"]) > 1e-8

    def test_matches_brute_force_nested_search(self):
        rng = np.random.default_rng(7)
        cases = [(problem_with(risk_index=0.7, energy_budget=1.3), 1.5)]
        cases += [(problem_with(risk_index=rng.uniform(0.3, 0.95),
                                energy_budget=rng.uniform(1.0, 1.6),
                                position=rng.uniform(2.0, 12.0)),
                   10 ** rng.uniform(-1.0, 1.0)) for _ in range(5)]
        xs = np.linspace(0.0, 1.0 - 1e-6, 41)
        for problem, mu in cases:
            beta, budget = problem.risk_index, problem.energy_budget
            best_x, best_val = None, np.inf
            for x in xs:
                solved = _attack_solve(x, budget, 0.46, 0.46, mu, 1.43)
                # an attack that loses to the peloton earns no credit
                if solved is None or x + solved[0] > 1.0:
                    continue
                value = -beta * (1.0 - (x + solved[0])) + (1.0 - beta) * exposure_simple_attack(
                    x, problem.position, problem.crash)
                if value < best_val:
                    best_x, best_val = x, value
            result = optimize_fatigue(problem, mu=mu)
            assert result.status == "ok" and result.converged
            assert abs(result.attack_position - best_x) <= xs[1] - xs[0]
            assert result.objective <= best_val + 1e-12

    def test_objective_is_convex_on_the_winning_domain(self):
        # optimize_fatigue decides its optimum from the end slopes of
        # dM/dx_a and one root between them, which needs the slope to be
        # non-decreasing from the zero-gap boundary to the cap
        exact = SolverSettings(abs_tol=1e-15)
        rng = np.random.default_rng(28)
        checked = 0
        while checked < 30:
            cd_lurk, cd_front = sorted(rng.uniform(0.2, 2.0, 2))
            problem = StrategyProblem(energy_budget=rng.uniform(0.5, 2.5),
                                      risk_index=rng.uniform(0.0, 1.0),
                                      position=rng.uniform(1.0, 20.0),
                                      cd_front=cd_front, cd_lurk=cd_lurk)
            mu = 10 ** rng.uniform(-2.0, math.log10(400.0))
            p_s = cd_lurk if rng.uniform() < 0.5 else rng.uniform(0.05, 2.0)
            budget, beta = problem.energy_budget, problem.risk_index

            def solve(x):
                return _attack_solve(x, budget, p_s, cd_lurk, mu, cd_front, exact)

            x_feas = _feasibility_boundary(budget, p_s, cd_lurk, cd_front)
            if x_feas is None or x_feas >= _X_CAP:
                continue
            at_feas, at_cap = solve(x_feas), solve(_X_CAP)
            if at_feas is not None and x_feas + at_feas[0] <= 1.0:
                x_zero = x_feas
            elif at_cap is None or _X_CAP + at_cap[0] > 1.0:
                continue  # no attack wins
            else:
                def lead(x):  # position at t = 1 less the line, budget spent at t = 1
                    p_max = p_max_from_budget(budget, x, 1.0, p_s, mu, cd_lurk)
                    return x + _speed_integral(1.0 - x, p_max, p_s, mu) / cd_front ** (1 / 3) - 1.0
                x_zero = brentq(lead, x_feas, _X_CAP, xtol=1e-15)
            exposure_slope = (exposure_simple_attack(1.0, problem.position, problem.crash)
                              - exposure_simple_attack(0.0, problem.position, problem.crash))
            slopes = []
            for x in np.linspace(x_zero, _X_CAP, 64).tolist():
                delta, p_max = solve(x)
                slopes.append(beta * _finish_time_slope(x, x + delta, p_max, p_s, cd_lurk,
                                                        mu, cd_front)
                              + (1.0 - beta) * exposure_slope)
            assert np.all(np.diff(slopes) >= 0.0), (problem, mu, p_s)
            checked += 1

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
        x_early = result.attack_position - 0.05
        earlier = _attack_solve(x_early, 1.2, 0.46, 0.46, 2.0, 1.43)
        assert earlier is None or 1.0 - (x_early + earlier[0]) < 0.0

    def test_zero_gap_boundary_is_exact(self):
        # the boundary optimum matches the peloton by construction
        result = optimize_fatigue(problem_with(risk_index=0.0, energy_budget=1.25),
                                  mu=1.0)
        assert result.finish_time == 1.0
        assert result.time_gap == 0.0
        assert result.budget_residual <= RESIDUAL_FLOOR
        assert result.arrival_residual <= RESIDUAL_FLOOR

    def test_slope_falling_at_the_cap_returns_the_cap(self, monkeypatch):
        # no measured problem has dM/dx_a <= 0 at the cap, so fake one: the
        # optimizer must return the cap exactly instead of seeking a root
        import breakaway.fatigue as fatigue
        monkeypatch.setattr(fatigue, "_finish_time_slope", lambda *args: -1.0)
        result = optimize_fatigue(problem_with(risk_index=1.0), mu=1.0)
        assert result.attack_position == _X_CAP
        assert result.time_gap > 0.0
        # the residuals integrate over the ride time after the attack itself,
        # not over t_finish - x, which keeps few digits of a 1.4e-9 ride
        assert result.converged

    def test_every_attack_solve_is_rounding_level(self, monkeypatch):
        # the solves that pick the boundary branch are the ones reported:
        # from the zero-gap root (p_sustain None) and from x_feas (2.0)
        import breakaway.fatigue as fatigue
        tiers, positions = [], []
        solve = fatigue._attack_solve

        def record(*args):
            tiers.append(args[6])
            positions[-1].append(args[0])
            return solve(*args)
        monkeypatch.setattr(fatigue, "_attack_solve", record)
        for p_sustain in (None, 2.0):
            positions.append([])
            optimize_fatigue(problem_with(energy_budget=1.25, risk_index=0.5), mu=1.0,
                             p_sustain=p_sustain)
        assert set(tiers) == {SolverSettings(abs_tol=1e-15)}
        # each position once: the branch test's x_feas and _X_CAP points and
        # Brent's last iterate are not solved again for their slope or value
        assert all(len(set(xs)) == len(xs) for xs in positions)
        assert len(tiers) == 22

    def test_iterations_stay_bounded(self):
        result = optimize_fatigue(problem_with(energy_budget=1.25, risk_index=0.5),
                                  mu=1.0)
        assert result.iterations <= 40

    def test_residual_floor(self):
        assert reported_residual(2.2e-16) == 0.0
        assert reported_residual(RESIDUAL_FLOOR) == 0.0
        assert reported_residual(3e-12) == 3e-12
        assert math.isnan(reported_residual(math.nan))

    def test_post_attack_speed_monotone_decreasing(self):
        result = optimize_fatigue(problem_with(), mu=3.0)
        t_a, p_max = result.attack_position, result.peak_power
        ts = np.linspace(t_a, result.finish_time, 64).tolist()
        powers = [0.46 + (p_max - 0.46) * math.exp(-3.0 * (t - t_a)) for t in ts]
        speeds = (np.array(powers) / 1.43) ** (1.0 / 3.0)
        assert np.all(np.diff(speeds) <= 1e-15)
        floor = (0.46 / 1.43) ** (1.0 / 3.0)
        assert speeds[-1] >= floor - 1e-12

    def test_no_win_on_tiny_budget(self):
        result = optimize_fatigue(problem_with(energy_budget=0.3), mu=1.0)
        assert result.status == "no_win"
        assert result.attack_position is None
        assert result.time_gap == 0.0

    @pytest.mark.parametrize("budget", [1e8, 1e9, 1e13, 1e22, 1e23, 1e40, 1e60])
    def test_huge_budget_attacks_at_the_start(self, budget):
        # the ride time shrinks like 1/sqrt(budget), below any bracket end
        # proportional to the budget, and the budget residual is relative
        problem = problem_with(energy_budget=budget)
        result = optimize_fatigue(problem, mu=1.0)
        assert result.status == "ok" and result.converged
        assert result.attack_position == 0.0
        flat_finish = 1.0 - optimal_attack(problem).time_gap
        assert result.finish_time == pytest.approx(flat_finish, rel=1e-3)
        if budget >= 1e13:  # a burst at the start: the ride time is sqrt(cd_front / E)
            burst = math.sqrt(problem.cd_front / budget)
            assert result.finish_time == pytest.approx(burst, rel=1e-10, abs=0.0)

    def test_custom_sustainable_power(self):
        result = optimize_fatigue(problem_with(), mu=1.0, p_sustain=0.8)
        assert result.converged
        # a higher floor means the burst carries less of the budget
        default = optimize_fatigue(problem_with(), mu=1.0)
        assert result.peak_power < default.peak_power

    def test_validation(self):
        # NaN fails each check with its own message, not as a solver failure
        for mu in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mu must be non-negative"):
                optimize_fatigue(problem_with(), mu=mu)
        for p_sustain in (-0.2, math.nan):
            with pytest.raises(ValueError, match="positive sustainable power"):
                optimize_fatigue(problem_with(), mu=1.0, p_sustain=p_sustain)


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
