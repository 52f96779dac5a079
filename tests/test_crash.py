import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from breakaway import crash
from breakaway.crash import (
    CrashModel,
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


def exposure_brute(x_attack, position, model, n_grid=200_001):
    """Independent oracle: midpoint rule over the course."""
    xs = (np.arange(n_grid) + 0.5) / n_grid
    # the trace takes two values, so H is evaluated at each as a float
    in_pack = involvement_given_crash(position, model.omega, model.n_riders)
    front = involvement_given_crash(1.0, model.omega, model.n_riders)
    h = np.where(xs < x_attack, in_pack, front)
    return model.intensity * float(np.mean(h))


class TestPropagation:
    def test_start_rider_always_involved(self):
        out = propagation_probability(np.array([5.0]), np.array([5.0]), 0.5)
        assert out == pytest.approx([1.0])

    def test_riders_ahead_spared(self):
        out = propagation_probability(np.array([3.0]), np.array([5.0]), 0.5)
        assert out.tolist() == [0.0]

    def test_two_back(self):
        out = propagation_probability(np.array([7.0]), np.array([5.0]), 0.5)
        assert out == pytest.approx([math.exp(-1.0)], rel=1e-14)

    def test_vectorized(self):
        out = propagation_probability(np.array([4.0, 5.0, 6.0]), np.array(5.0), 1.0)
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
            n = int(rng.integers(31, 200))  # i + 0.5 stays in the pack
            h = involvement_given_crash(i, omega, n)
            assert involvement_given_crash(i + 0.5, omega, n) > h
            if i > 1.0:
                assert involvement_given_crash(i, omega * 1.2, n) < h
            assert 1.0 / n - 1e-15 <= h <= i / n + 1e-15

    def test_validation(self):
        for position in (0.5, math.nan):
            with pytest.raises(ValueError, match="position must be >= 1"):
                involvement_given_crash(position, 0.5, 75)
        for omega in (0.0, math.nan):
            with pytest.raises(ValueError, match="omega must be positive"):
                involvement_given_crash(5.0, omega, 75)
        with pytest.raises(ValueError, match="n_riders must be at least 1"):
            involvement_given_crash(5.0, 0.5, 0)

    def test_brute_match_on_integers(self):
        for i in range(1, 30, 3):
            assert involvement_given_crash(i, 0.7, 50) == pytest.approx(
                involvement_brute(i, 0.7, 50), rel=1e-12)


class TestTraces:
    """The lurk-then-attack trace as the Monte Carlo estimator draws it."""

    def test_degenerate_attacks(self):
        # attacking at the start rides the whole course at the front, where
        # the attack point no longer matters
        front = monte_carlo_exposure(0.0, 5, 2_000, 3, MODEL)
        assert monte_carlo_exposure(0.6, 1, 2_000, 3, MODEL) == front
        assert monte_carlo_exposure(1.0, 1, 2_000, 3, MODEL) == front

    def test_validation(self):
        for x_attack, position, trials in ((-0.1, 5, 10), (1.5, 5, 10),
                                           (0.5, 0.5, 10), (0.5, 5, 0)):
            with pytest.raises(ValueError):
                monte_carlo_exposure(x_attack, position, trials, 0, MODEL)


class TestExposure:
    def test_front_all_race(self):
        # attacking at the start rides the whole course at the front
        assert exposure_simple_attack(0.0, 5, MODEL) == pytest.approx(
            MODEL.intensity / MODEL.n_riders)

    def test_simple_attack_against_brute_force(self):
        # the midpoint oracle carries O(1/n) error at the trace discontinuity
        value = exposure_simple_attack(0.5, 5, MODEL)
        assert value == pytest.approx(exposure_brute(0.5, 5, MODEL), rel=1e-5)
        assert value == pytest.approx(0.04444, abs=5e-5)

    def test_never_attacking(self):
        value = exposure_simple_attack(1.0, 5, MODEL)
        expected = MODEL.intensity * involvement_given_crash(5, 0.5, 75)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.06221, abs=5e-5)

    def test_matches_brute_force_grid(self):
        for model in (MODEL, CrashModel(omega=0.15, intensity=3.0, n_riders=120)):
            for x_a in (0.0, 0.13, 0.37, 0.5, 0.81, 1.0):
                for position in (1.0, 2.5, 5.0, 20.0, 74.0):
                    # one midpoint cell straddles the attack point
                    jump = model.intensity * (
                        involvement_given_crash(position, model.omega, model.n_riders)
                        - involvement_given_crash(1.0, model.omega, model.n_riders))
                    assert exposure_simple_attack(x_a, position, model) == pytest.approx(
                        exposure_brute(x_a, position, model), rel=1e-12,
                        abs=jump / 200_001)

    def test_front_rider_independent_of_attack(self):
        values = [exposure_simple_attack(x, 1, MODEL) for x in (0.0, 0.4, 1.0)]
        assert values == pytest.approx([MODEL.intensity / 75.0] * 3)

    def test_linear_in_intensity(self):
        one = exposure_simple_attack(0.4, 7, CrashModel(intensity=1.0))
        three = exposure_simple_attack(0.4, 7, CrashModel(intensity=3.0))
        assert three == pytest.approx(3.0 * one, rel=1e-13)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x_a = rng.uniform(0.0, 1.0)
            base = rng.uniform(1.0, 20.0)
            deeper = base + rng.uniform(0.0, 5.0)
            shallow = exposure_simple_attack(x_a, base, MODEL)
            deep = exposure_simple_attack(x_a, deeper, MODEL)
            assert deep >= shallow - 1e-15

    def test_strong_decay_limit_any_trace(self):
        model = CrashModel(omega=60.0)
        for x_a in (0.0, 0.2, 0.7, 1.0):
            for position in (3.0, 12.0, 30.0):
                assert exposure_simple_attack(x_a, position, model) == pytest.approx(
                    model.intensity / model.n_riders, rel=1e-10)

    def test_out_of_range_attack(self):
        with pytest.raises(ValueError):
            exposure_simple_attack(1.2, 5, MODEL)

    def test_position_below_the_front_rejected(self):
        for position in (0.5, -3.0, math.nan):
            with pytest.raises(ValueError, match="position must be >= 1"):
                exposure_simple_attack(0.5, position, MODEL)

    def test_position_behind_the_pack_rejected(self):
        # no start rank lies deeper than n_riders, so H(i) holds no rider there
        for model, position in ((MODEL, 75.5), (MODEL, 120.25), (MODEL, math.inf),
                                (CrashModel(n_riders=1), 3.5)):
            with pytest.raises(ValueError, match="at most n_riders"):
                involvement_given_crash(position, model.omega, model.n_riders)
            with pytest.raises(ValueError, match="at most n_riders"):
                exposure_simple_attack(0.5, position, model)
            with pytest.raises(ValueError, match="at most n_riders"):
                monte_carlo_exposure(0.5, position, 100, 0, model)
        assert exposure_simple_attack(0.5, 75.0, MODEL) > 0.0

    def test_model_validation(self):
        for bad, message in (({"omega": 0.0}, "omega must be positive"),
                             ({"omega": math.nan}, "omega must be positive"),
                             ({"intensity": -1.0}, "intensity must be non-negative"),
                             ({"intensity": math.nan}, "intensity must be non-negative"),
                             ({"n_riders": 0}, "n_riders must be at least 1")):
            with pytest.raises(ValueError, match=message):
                CrashModel(**bad)


class TestMonteCarlo:
    def test_zero_intensity(self):
        estimate, _ = monte_carlo_exposure(0.5, 5, 10_000, 1,
                                           CrashModel(intensity=0.0))
        assert estimate == 0.0

    def test_agrees_with_analytic(self):
        estimate, stderr = monte_carlo_exposure(0.5, 5, 100_000, 42, MODEL)
        analytic = exposure_simple_attack(0.5, 5, MODEL)
        assert abs(estimate - analytic) < 4.0 * stderr

    def test_deterministic_for_seed(self):
        a = monte_carlo_exposure(0.5, 5, 50_000, 7, MODEL)
        b = monte_carlo_exposure(0.5, 5, 50_000, 7, MODEL)
        assert a == b
        c = monte_carlo_exposure(0.5, 5, 50_000, 8, MODEL)
        assert a != c

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_exposure(0.5, 1, 0, 0, MODEL)


class TestMonteCarloPinned:
    """Exact draws of the estimator, so any reordering of the random stream
    shows.  20,003 trials leave a remainder over the 16 substreams."""

    OTHER = CrashModel(omega=0.2, intensity=3.5, n_riders=40)
    PINNED = [
        (MODEL, 5.0, 0.0, (0.026196070589411587, 0.0011381385189314227)),
        (MODEL, 5.0, 0.37, (0.04039394090886367, 0.0014117032205724976)),
        (MODEL, 9.5, 0.37, (0.036994450832375146, 0.0013568713879188287)),
        (MODEL, 5.0, 1.0, (0.0647402889566565, 0.0017936273279303215)),
        (OTHER, 5.0, 0.0, (0.0866370044493326, 0.0020907061844195347)),
        (OTHER, 9.5, 0.37, (0.18832175173723942, 0.0030588626321746307)),
        (OTHER, 9.5, 1.0, (0.3645953107033945, 0.004257990500795756)),
    ]

    @pytest.mark.parametrize("model, position, x_attack, expected", PINNED)
    def test_exact_floats(self, model, position, x_attack, expected):
        assert monte_carlo_exposure(x_attack, position, 20_003, 2024,
                                    model) == expected


def dense_reference(x_attack, position, trials, seed, model):
    """The pile-up process as first written: a Poisson crash count per
    trial, and every crash drawn and tested, however deep it starts.  It
    shares the substreams but not the draws, so it is a statistical oracle."""
    children = np.random.SeedSequence(seed).spawn(16)
    base, extra = divmod(trials, 16)
    sum_x = 0.0
    sum_x2 = 0.0
    for c, child in enumerate(children):
        n = base + (1 if c < extra else 0)
        if n == 0:
            continue
        rng = np.random.default_rng(child)
        counts = rng.poisson(model.intensity, size=n)
        total = int(counts.sum())
        if total == 0:
            continue
        x = rng.uniform(0.0, 1.0, size=total)
        starts = rng.integers(1, model.n_riders + 1, size=total).astype(float)
        p_inv = propagation_probability(np.where(x < x_attack, position, 1.0),
                                       starts, model.omega)
        hits = rng.uniform(0.0, 1.0, size=total) < p_inv
        trial_idx = np.repeat(np.arange(n), counts)
        per_trial = np.bincount(trial_idx[hits], minlength=n).astype(float)
        sum_x += float(per_trial.sum())
        sum_x2 += float((per_trial**2).sum())
    return _mean_and_stderr(sum_x, sum_x2, trials)


def bookkeeping_reference(x_attack, position, trials, seed, model):
    """The estimator's draws from the same generator calls, with every crash
    tested and every hit counted into its trial one at a time in Python."""
    children = np.random.SeedSequence(seed).spawn(16)
    base, extra = divmod(trials, 16)
    sum_x = 0
    sum_x2 = 0
    for c, child in enumerate(children):
        n = base + (1 if c < extra else 0)
        if n == 0:
            continue
        rng = np.random.default_rng(child)
        # rank `position` before the attack, the front after it
        reach = int(position) if x_attack > 0.0 else 1
        near = rng.poisson(n * model.intensity * reach / model.n_riders)
        starts = rng.integers(1, reach + 1, size=near).tolist()
        xs = rng.uniform(0.0, 1.0, size=near).tolist()
        us = rng.uniform(0.0, 1.0, size=near).tolist()
        hits = 0
        for start, x, u in zip(starts, xs, us):
            rank = position if x < x_attack else 1.0
            if rank >= start and u < math.exp(-model.omega * (rank - start)):
                hits += 1
        per_trial = Counter(rng.integers(0, n, size=hits).tolist())
        sum_x += sum(per_trial.values())
        sum_x2 += sum(count * count for count in per_trial.values())
    return _mean_and_stderr(sum_x, sum_x2, trials)


def _mean_and_stderr(sum_x, sum_x2, trials):
    mean = sum_x / trials
    if trials > 1:
        var = max(0.0, (sum_x2 - trials * mean**2) / (trials - 1))
        return mean, math.sqrt(var / trials)
    return mean, math.inf


def _oracle_cases():
    """Edge cases, then seeded random (model, position, x_attack, trials, seed)."""
    cases = [
        (MODEL, 1.0, 0.5, 20_003, 1),            # the front rider
        (MODEL, 5.5, 0.5, 20_003, 2),            # a non-integer position
        (MODEL, 75.0, 0.5, 5_000, 3),            # position at n_riders
        (MODEL, 74.75, 0.3, 5_000, 4),           # between the last two ranks
        (CrashModel(n_riders=1), 1.0, 0.5, 5_000, 6),
        (MODEL, 5.0, 0.0, 5_000, 8),
        (MODEL, 5.0, 1.0, 5_000, 9),
        (CrashModel(intensity=0.0), 5.0, 0.5, 5_000, 10),
        (CrashModel(intensity=0.01), 5.0, 0.5, 20, 11),  # most chunks draw no crash
    ]
    cases += [(MODEL, 5.0, 0.5, trials, 12 + trials) for trials in (1, 2, 7, 15, 16, 17, 33)]
    rng = np.random.default_rng(30)
    while len(cases) < 320:
        n_riders = int(rng.choice([1, 2, 75, int(rng.integers(1, 200))]))
        model = CrashModel(omega=float(rng.choice([0.5, rng.uniform(0.01, 3.0), 60.0])),
                           intensity=float(rng.choice([0.0, 2.0, rng.uniform(0.0, 8.0)])),
                           n_riders=n_riders)
        # no deeper than the last start rank, n_riders
        position = float(rng.choice([1.0, min(5.0, n_riders), rng.uniform(1.0, n_riders),
                                     n_riders, max(1.0, n_riders - 0.5)]))
        x_attack = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        trials = int(rng.choice([int(rng.integers(1, 16)), int(rng.integers(16, 4_000))]))
        cases.append((model, position, x_attack, trials, int(rng.integers(0, 2**32))))
    return cases


class TestMonteCarloOracle:
    """The estimator against its bookkeeping reference, bit for bit, and
    against the dense reference in distribution."""

    def test_bitwise_equal_to_the_bookkeeping_reference(self):
        cases = _oracle_cases()
        assert len(cases) >= 300
        for model, position, x_attack, trials, seed in cases:
            got = monte_carlo_exposure(x_attack, position, trials, seed, model)
            assert got == bookkeeping_reference(x_attack, position, trials, seed, model), (
                model, position, x_attack, trials, seed)

    @pytest.mark.parametrize("model, position, x_attack", [
        (MODEL, 1.0, 0.5),                       # the front rider
        (CrashModel(n_riders=1), 1.0, 0.5),      # a peloton of one
        (MODEL, 75.0, 0.5),                      # position at n_riders
        (CrashModel(omega=0.1, n_riders=20), 20.0, 0.8),
        (MODEL, 5.0, 0.0),                       # attacking at the start
        (MODEL, 5.0, 1.0),                       # never attacking
        (CrashModel(intensity=0.0), 5.0, 0.5),
    ])
    def test_agrees_with_the_dense_reference(self, model, position, x_attack):
        # independent streams: the difference has the two errors combined
        mean, stderr = monte_carlo_exposure(x_attack, position, 200_000, 77, model)
        dense_mean, dense_stderr = dense_reference(x_attack, position, 200_000, 78, model)
        assert abs(mean - dense_mean) <= 4.0 * math.hypot(stderr, dense_stderr)

    @pytest.mark.parametrize("model, position", [(MODEL, 5.0), (MODEL, 75.0),
                                                 (CrashModel(intensity=7.0), 30.0)])
    def test_per_trial_counts_are_poisson(self, model, position):
        # a trial's hits are Poisson, so their variance equals their mean;
        # hits crowded into few trials, or spread evenly, would show here
        trials = 1_000_000
        mean, stderr = monte_carlo_exposure(0.5, position, trials, 5, model)
        assert stderr**2 * trials / mean == pytest.approx(1.0, abs=0.03)

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="position must be >= 1"):
            monte_carlo_exposure(0.5, math.nan, 100, 0, MODEL)


class TestMonteCarloThreads:
    ARGS = (0.37, 9.5, 20_003, 2024, MODEL)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_same_result_on_any_worker_count(self, workers, monkeypatch):
        # more threads than cores, switching often: a lost sum would show
        expected = bookkeeping_reference(*self.ARGS)
        monkeypatch.setattr(crash, "_MC_WORKERS", workers)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert monte_carlo_exposure(*self.ARGS) == expected
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        failure = MemoryError("chunk 1")
        chunk = crash._chunk
        hooked = []
        failed_on = []

        def failing(child, n, *args):
            if child.spawn_key == (1,):  # an odd chunk: the helper thread's
                failed_on.append(threading.current_thread())
                raise failure
            return chunk(child, n, *args)
        monkeypatch.setattr(crash, "_chunk", failing)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            monte_carlo_exposure(*self.ARGS)
        assert info.value is failure
        assert failed_on and failed_on[0] is not threading.current_thread()
        assert hooked == []
        assert threading.active_count() == before
