import math

import numpy as np
import pytest

from breakaway.crash import (
    CrashModel,
    PositionTrace,
    exposure,
    exposure_simple_attack,
    involvement_given_crash,
    monte_carlo_exposure,
    propagation_probability,
)

MODEL = CrashModel()  # omega 0.5, intensity 2, 75 riders


def involvement_brute(position, omega, n_riders):
    """Independent oracle: explicit sum over integer start ranks."""
    return sum(math.exp(-omega * (position - k))
               for k in range(1, int(position) + 1)) / n_riders


def exposure_brute(trace, model, n_grid=200_001):
    """Independent oracle: midpoint rule over the course."""
    xs = (np.arange(n_grid) + 0.5) / n_grid
    h = involvement_given_crash(trace.position_at(xs), model.omega,
                                model.n_riders)
    return model.intensity * float(np.mean(h))


class TestPropagation:
    def test_start_rider_always_involved(self):
        assert propagation_probability(5, 5, 0.5) == pytest.approx(1.0)

    def test_riders_ahead_spared(self):
        assert propagation_probability(3, 5, 0.5) == 0.0

    def test_two_back(self):
        assert propagation_probability(7, 5, 0.5) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_vectorized(self):
        out = propagation_probability(np.array([4.0, 5.0, 6.0]), 5.0, 1.0)
        assert out == pytest.approx([0.0, 1.0, math.exp(-1.0)])


class TestInvolvement:
    def test_front_rider(self):
        assert involvement_given_crash(1, 0.5, 75) == pytest.approx(1.0 / 75.0)

    def test_position_five_matches_brute_sum(self):
        value = involvement_given_crash(5, 0.5, 75)
        assert value == pytest.approx(involvement_brute(5, 0.5, 75), rel=1e-12)
        assert value == pytest.approx(0.03110, abs=5e-5)

    def test_strong_decay_limit(self):
        for i in (1, 5, 40):
            assert involvement_given_crash(i, 60.0, 75) == pytest.approx(
                1.0 / 75.0, rel=1e-12)

    def test_monotone_in_position_and_omega(self):
        # keep omega * i small enough that the increments are representable
        rng = np.random.default_rng(5)
        for _ in range(200):
            i = rng.uniform(1.0, 30.0)
            omega = rng.uniform(0.05, 1.0)
            n = int(rng.integers(10, 200))
            h = involvement_given_crash(i, omega, n)
            assert involvement_given_crash(i + 0.5, omega, n) > h
            if i > 1.0:
                assert involvement_given_crash(i, omega * 1.2, n) < h
            assert 1.0 / n - 1e-15 <= h <= i / n + 1e-15

    def test_brute_match_on_integers(self):
        for i in range(1, 30, 3):
            assert involvement_given_crash(i, 0.7, 50) == pytest.approx(
                involvement_brute(i, 0.7, 50), rel=1e-12)


class TestTraces:
    def test_constant(self):
        trace = PositionTrace.constant(5)
        assert trace.position_at(0.3) == 5.0

    def test_simple_attack_lookup(self):
        trace = PositionTrace.simple_attack(5, 0.5)
        assert trace.position_at(0.49) == 5.0
        assert trace.position_at(0.5) == 1.0
        assert trace.position_at(np.array([0.0, 0.75])) == pytest.approx([5.0, 1.0])

    def test_degenerate_attacks(self):
        assert PositionTrace.simple_attack(5, 0.0).positions == (1.0,)
        assert PositionTrace.simple_attack(5, 1.0).positions == (5.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionTrace((0.0, 0.5), (1.0, 2.0))
        with pytest.raises(ValueError):
            PositionTrace((0.0, 0.5, 1.0), (1.0, 0.5))
        with pytest.raises(ValueError):
            PositionTrace.simple_attack(5, 1.5)


class TestExposure:
    def test_front_all_race(self):
        assert exposure(PositionTrace.constant(1), MODEL) == pytest.approx(
            MODEL.intensity / MODEL.n_riders)

    def test_simple_attack_against_brute_force(self):
        # the midpoint oracle carries O(1/n) error at the trace discontinuity
        trace = PositionTrace.simple_attack(5, 0.5)
        value = exposure(trace, MODEL)
        assert value == pytest.approx(exposure_brute(trace, MODEL), rel=1e-5)
        assert value == pytest.approx(0.04444, abs=5e-5)

    def test_never_attacking(self):
        trace = PositionTrace.simple_attack(5, 1.0)
        value = exposure(trace, MODEL)
        expected = MODEL.intensity * involvement_given_crash(5, 0.5, 75)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.06221, abs=5e-5)

    def test_matches_formula(self):
        for x_a in (0.0, 0.3, 0.5, 1.0):
            trace = PositionTrace.simple_attack(5, x_a)
            assert exposure(trace, MODEL) == pytest.approx(
                exposure_simple_attack(x_a, 5, MODEL), rel=1e-13)

    def test_front_rider_independent_of_attack(self):
        values = [exposure_simple_attack(x, 1, MODEL) for x in (0.0, 0.4, 1.0)]
        assert values == pytest.approx([MODEL.intensity / 75.0] * 3)

    def test_linear_in_intensity(self):
        trace = PositionTrace.simple_attack(7, 0.4)
        one = exposure(trace, CrashModel(intensity=1.0))
        three = exposure(trace, CrashModel(intensity=3.0))
        assert three == pytest.approx(3.0 * one, rel=1e-13)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cuts = np.sort(rng.uniform(0.05, 0.95, size=3))
            bounds = (0.0, *cuts, 1.0)
            base = rng.uniform(1.0, 20.0, size=4)
            deeper = base + rng.uniform(0.0, 5.0, size=4)
            shallow = exposure(PositionTrace(bounds, tuple(base)), MODEL)
            deep = exposure(PositionTrace(bounds, tuple(deeper)), MODEL)
            assert deep >= shallow - 1e-15

    def test_strong_decay_limit_any_trace(self):
        model = CrashModel(omega=60.0)
        trace = PositionTrace((0.0, 0.2, 0.7, 1.0), (12.0, 3.0, 30.0))
        assert exposure(trace, model) == pytest.approx(
            model.intensity / model.n_riders, rel=1e-10)

    def test_out_of_range_attack(self):
        with pytest.raises(ValueError):
            exposure_simple_attack(1.2, 5, MODEL)


class TestExposureGeneral:
    def test_reduces_to_uniform_exponential(self):
        # an explicit exponential kernel takes the general path
        kernel = lambda position, start: propagation_probability(position, start, 0.5)
        general = CrashModel(kernel=kernel)
        trace = PositionTrace.simple_attack(5, 0.37)
        assert exposure(trace, general) == pytest.approx(
            exposure(trace, MODEL), rel=1e-12)

    def test_point_mass_at_front(self):
        weights = tuple([1.0] + [0.0] * 74)
        model = CrashModel(start_distribution=weights)
        trace = PositionTrace.simple_attack(5, 0.5)
        # crash always starts at rank 1: involvement is the kernel itself
        expected = model.intensity * (
            0.5 * math.exp(-0.5 * 4.0) + 0.5 * math.exp(0.0))
        assert exposure(trace, model) == pytest.approx(expected, rel=1e-12)

    def test_point_mass_behind_rider(self):
        weights = tuple([0.0] * 74 + [1.0])
        model = CrashModel(start_distribution=weights)
        trace = PositionTrace.constant(5)
        assert exposure(trace, model) == 0.0

    def test_custom_kernel(self):
        def certain_involvement(position, start):
            position, start = np.broadcast_arrays(np.asarray(position),
                                                  np.asarray(start))
            return np.where(position >= start, 1.0, 0.0)

        model = CrashModel(kernel=certain_involvement)
        trace = PositionTrace.constant(75)
        assert exposure(trace, model) == pytest.approx(model.intensity)

    def test_callable_intensity(self):
        model = CrashModel(intensity=lambda x: 2.0 + 2.0 * x)
        trace = PositionTrace.simple_attack(5, 0.5)
        h5 = involvement_given_crash(5, 0.5, 75)
        h1 = involvement_given_crash(1, 0.5, 75)
        # piecewise-linear intensity integrates exactly per segment
        expected = h5 * (2.0 * 0.5 + 0.25) + h1 * (2.0 * 0.5 + 1.0 - 0.25)
        assert exposure(trace, model) == pytest.approx(expected, rel=1e-10)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            CrashModel(start_distribution=tuple([0.5] * 75))
        with pytest.raises(ValueError):
            CrashModel(start_distribution=(1.0,))

    def test_kernel_contract_enforced(self):
        with pytest.raises(ValueError, match="kernel"):
            CrashModel(kernel=lambda position, start: 0.5 * np.ones_like(
                np.broadcast_arrays(np.asarray(position), np.asarray(start))[0]))


class TestMonteCarlo:
    def test_zero_intensity(self):
        trace = PositionTrace.simple_attack(5, 0.5)
        estimate, _ = monte_carlo_exposure(trace, CrashModel(intensity=0.0),
                                           10_000, seed=1)
        assert estimate == 0.0

    def test_agrees_with_analytic(self):
        trace = PositionTrace.simple_attack(5, 0.5)
        estimate, stderr = monte_carlo_exposure(trace, MODEL, 100_000, seed=42)
        assert abs(estimate - exposure(trace, MODEL)) < 4.0 * stderr

    def test_always_involved_kernel(self):
        def certain(position, start):
            position, start = np.broadcast_arrays(np.asarray(position),
                                                  np.asarray(start))
            return np.where(position >= start, 1.0, 0.0)

        model = CrashModel(intensity=1.5, kernel=certain)
        trace = PositionTrace.constant(75)
        estimate, stderr = monte_carlo_exposure(trace, model, 100_000, seed=3)
        assert abs(estimate - 1.5) < 4.0 * max(stderr, 1e-12)

    def test_deterministic_for_seed(self):
        trace = PositionTrace.simple_attack(5, 0.5)
        a = monte_carlo_exposure(trace, MODEL, 50_000, seed=7)
        b = monte_carlo_exposure(trace, MODEL, 50_000, seed=7)
        assert a == b
        c = monte_carlo_exposure(trace, MODEL, 50_000, seed=8)
        assert a != c

    def test_callable_intensity_thinning(self):
        model = CrashModel(intensity=lambda x: 2.0 + 2.0 * x)
        trace = PositionTrace.simple_attack(5, 0.5)
        analytic = exposure(trace, model)
        estimate, stderr = monte_carlo_exposure(trace, model, 200_000, seed=11)
        assert abs(estimate - analytic) < 5.0 * stderr

    def test_custom_start_distribution(self):
        weights = np.linspace(1.0, 3.0, 75)
        weights /= weights.sum()
        model = CrashModel(start_distribution=tuple(weights))
        trace = PositionTrace.simple_attack(9, 0.6)
        analytic = exposure(trace, model)
        estimate, stderr = monte_carlo_exposure(trace, model, 200_000, seed=5)
        assert abs(estimate - analytic) < 4.0 * stderr

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_exposure(PositionTrace.constant(1), MODEL, 0, seed=0)
