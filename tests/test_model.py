import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from breakaway.fatigue import _burst_integral, p_max_from_budget
from breakaway.flat import CD_FRONT_CALIBRATED
from breakaway.microstructure import DragParams, drag_at_depth, relative_drag_behind_front
from breakaway.numerics import solve_cubic_real

DRAG = DragParams()
CD_AVG = DRAG.cd_max / CD_FRONT_CALIBRATED  # the default model.cd_avg


def drafting_drag(position, cd_avg=CD_AVG):
    """Normalized drag at drafting position i (1 is the front, depth i - 1)."""
    return relative_drag_behind_front(1.0 - position, DRAG, cd_avg)


def quasi_steady_speed(power, drag):
    """Flat-course quasi-steady speed: the root of drag v^3 = power."""
    return solve_cubic_real(drag, 0.0, -power)[-1]


def profile_energy(t, p_lurk, attack_time, p_max, p_sustain=0.0, mu=0.0):
    """Energy of the power profile by time t, from the fatigue budget's closed
    form: p_lurk until attack_time, then p_sustain + (p_max - p_sustain)
    exp(-mu s) at s after it; mu = 0 holds p_max."""
    lurk = p_lurk * min(t, attack_time)
    if t <= attack_time:
        return lurk
    delta = t - attack_time
    return lurk + p_sustain * delta + (p_max - p_sustain) * _burst_integral(delta, mu)


def profile_power(t, p_lurk, attack_time, p_max, p_sustain=0.0, mu=0.0):
    """The profile's power at time t, written out."""
    if t < attack_time:
        return p_lurk
    return p_sustain + (p_max - p_sustain) * math.exp(-mu * (t - attack_time))


class TestDragLaw:
    def test_front_of_peloton(self):
        assert drag_at_depth(0.0, DRAG) == pytest.approx(0.9)

    def test_deep_draft_limit(self):
        assert drag_at_depth(200.0, DRAG) == pytest.approx(0.05, abs=1e-12)

    def test_depth_four(self):
        expected = 0.05 + 0.85 * math.exp(-1.0)
        assert drag_at_depth(4.0, DRAG) == pytest.approx(expected, rel=1e-14)

    def test_ahead_of_peloton_full_drag(self):
        assert drag_at_depth(-3.0, DRAG) == pytest.approx(0.9)

    def test_monotone_non_increasing(self):
        depths = np.linspace(0.0, 40.0, 500).tolist()
        values = [drag_at_depth(d, DRAG) for d in depths]
        assert np.all(np.diff(values) <= 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DragParams(cd_max=0.1, cd_min=0.2)
        with pytest.raises(ValueError):
            DragParams(decay=0.0)
        with pytest.raises(ValueError, match="decay must be positive"):
            DragParams(decay=math.nan)
        with pytest.raises(ValueError, match="need 0 < cd_min < cd_max"):
            DragParams(cd_min=math.nan)

    def test_scalar_path_bit_identical(self):
        # the drag kernels of the ODE right-hand sides are their law's float
        # expression bit for bit, with each exp within one ulp of mpmath's;
        # a NaN passes
        mpmath = pytest.importorskip("mpmath")

        exps = {}

        def exp_within_ulp(k):
            """exp(x) from mpmath, moved k ulps (k in -1, 0, 1), never below 0."""
            def exp(x):
                if x not in exps:
                    with mpmath.workdps(40):
                        e = float(mpmath.exp(x))
                    exps[x] = (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))
                return exps[x][k + 1]
            return exp

        def drag_reference(depth, drag, exp):
            if depth < 0.0:
                return drag.cd_max
            return drag.cd_min + (drag.cd_max - drag.cd_min) * exp(-drag.decay * depth)

        def assert_law(got, law):
            wants = [law(exp_within_ulp(k)) for k in (-1, 0, 1)]
            if math.isnan(wants[1]):
                assert math.isnan(got)
            else:
                assert struct.pack("<d", got) in {struct.pack("<d", w) for w in wants}

        rng = np.random.default_rng(11)
        depths = [0.0, -0.0, math.nan, -1e-300, 1e-300, -1e4, 1e4,
                  *rng.uniform(-10.0, 60.0, 400).tolist()]
        for _ in range(20):
            cd_min, cd_max = sorted(rng.uniform(0.01, 2.0, 2).tolist())
            drag = DragParams(cd_max, cd_min, float(rng.uniform(0.01, 3.0)))
            cd_avg = float(rng.uniform(0.2, 1.5))
            for d in depths:
                law = lambda exp: drag_reference(d, drag, exp)
                assert_law(drag_at_depth(d, drag), law)
                assert_law(drag_at_depth(np.float64(d), drag), law)
                z = -d
                law = lambda exp: drag_reference(-z, drag, exp) / cd_avg
                assert_law(relative_drag_behind_front(z, drag, cd_avg), law)
                assert_law(relative_drag_behind_front(np.float64(z), drag, cd_avg), law)


class TestDraftingDrag:
    def test_front_rider_calibrated(self):
        # the default normalization puts the front rider exactly at 1.43
        assert drafting_drag(1) == pytest.approx(
            CD_FRONT_CALIBRATED, rel=1e-14)

    def test_position_five_formula_value(self):
        # the drag law itself puts position 5 at ~0.576; the standard lurking
        # power 0.46 enters as an independent calibration input downstream
        expected = (0.05 + 0.85 * math.exp(-1.0)) / CD_AVG
        assert drafting_drag(5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.5763, abs=5e-4)

    def test_average_equals_max_gives_unit_front(self):
        assert drafting_drag(1, cd_avg=0.9) == pytest.approx(1.0)

    def test_front_dominates_all_positions(self):
        positions = np.linspace(1.0, 40.0, 100).tolist()
        values = [drafting_drag(p) for p in positions]
        assert np.all(np.array(values) <= drafting_drag(1) + 1e-15)


class TestQuasiSteadySpeed:
    def test_reference_state(self):
        assert quasi_steady_speed(1.0, 1.0) == pytest.approx(1.0)

    def test_marginal_attack(self):
        assert quasi_steady_speed(1.43, 1.43) == pytest.approx(1.0)

    def test_cube_root(self):
        assert quasi_steady_speed(2.86, 1.43) == pytest.approx(2.0 ** (1.0 / 3.0),
                                                               rel=1e-14)

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.1, 5.0, 200)
        c = rng.uniform(0.2, 2.0, 200)
        for pk, ck in zip(p.tolist(), c.tolist()):
            base = quasi_steady_speed(pk, ck)
            assert quasi_steady_speed(pk * 1.1, ck) > base
            assert quasi_steady_speed(pk, ck * 1.1) < base


class TestPowerProfile:
    """The breakaway's power profile, a lurk and then the attack, as
    fatigue's closed forms hold it; mu = 0 is a constant attack power."""

    def test_unit_energy(self):
        assert profile_energy(1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)
        assert p_max_from_budget(1.0, 0.0, 1.0, 0.46, 0.0, 1.0) == pytest.approx(1.0)

    def test_step_attack_energy(self):
        assert profile_energy(1.0, 0.46, 0.5, 1.43) == pytest.approx(0.23 + 0.715,
                                                                     rel=1e-14)
        assert p_max_from_budget(0.23 + 0.715, 0.5, 1.0, 0.46, 0.0, 0.46) == \
            pytest.approx(1.43, rel=1e-14)

    def test_power_lookup(self):
        # the power at t is the rate of spend just after t; the profile is
        # linear on each side of the attack, so a forward difference is exact
        # but for rounding
        h = 1e-6

        def power_at(t):
            return (profile_energy(t + h, 0.46, 0.5, 1.43)
                    - profile_energy(t, 0.46, 0.5, 1.43)) / h

        assert power_at(0.2) == pytest.approx(0.46)
        assert power_at(0.9) == pytest.approx(1.43)
        ts = [0.0, 0.499, 0.5, 0.75]
        assert [power_at(t) for t in ts] == pytest.approx([0.46, 0.46, 1.43, 1.43])

    def test_fatigue_profile_matches_quadrature(self):
        args = (0.46, 0.4, 4.0, 0.46, 2.5)
        for t in (0.2, 0.4, 0.9, 1.7):
            # split the reference at the power jump to keep quad accurate
            ref = sum(quad(profile_power, a, b, args=args, epsabs=1e-13,
                           epsrel=1e-13)[0]
                      for a, b in ((0.0, min(t, 0.4)), (min(t, 0.4), t)))
            assert profile_energy(t, *args) == pytest.approx(ref, rel=1e-10)
