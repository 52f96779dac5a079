import math
import struct

import numpy as np
import pytest

from breakaway.flat import StrategyProblem, attack_power, time_gap_from_position
from breakaway.model import PowerProfile, ScaleSet
from breakaway.numerics import (
    RiderNeverFinishesError,
    SolverSettings,
    StallError,
    solve_cubic_real,
)
from breakaway.terrain import (
    CourseFileError,
    CourseProfile,
    _pchip_coefficients,
    demo_profile,
    load_course_table,
    simulate_breakaway,
    simulate_peloton,
)

FLAT = CourseProfile.flat()
SCALES = ScaleSet(inertia=0.005, gravity_ratio=40.0)


def _quasi_steady_root(drag, slope_term, power):
    """The quasi-steady speed as terrain takes it: the cubic's largest root."""
    return solve_cubic_real(drag, slope_term, -power)[-1]


class TestProfiles:
    def test_flat_steepness(self):
        assert FLAT.steepness(0.3) == 0.0
        assert all(FLAT.steepness(x) == 0.0 for x in np.linspace(0, 1, 11).tolist())

    def test_constant_grade_from_table(self):
        profile = CourseProfile.from_table([0.0, 0.5, 1.0], [0.0, 0.025, 0.05])
        xs = np.linspace(0.05, 0.95, 9).tolist()
        assert [profile.steepness(x) for x in xs] == pytest.approx(
            [math.atan(0.05)] * 9, rel=1e-9)

    def test_sinusoid_derivative(self):
        amp = 0.003
        profile = CourseProfile.from_sinusoids(sin_amps=(amp,))
        assert profile.steepness(0.0) == pytest.approx(
            math.atan(2.0 * math.pi * amp), rel=1e-12)
        # finite-difference cross-check of the analytic slope
        def height(x):
            return amp * math.sin(2.0 * math.pi * x)
        h = 1e-7
        for x in np.linspace(0.1, 0.9, 7).tolist():
            fd = (height(x + h) - height(x - h)) / (2.0 * h)
            assert profile.slope(x) == pytest.approx(fd, abs=1e-6)

    def test_table_derivative_matches_interpolant(self):
        from scipy.interpolate import PchipInterpolator

        xs = np.linspace(0.0, 1.0, 21)
        hs = 0.004 * np.sin(2.0 * np.pi * xs)
        profile = CourseProfile.from_table(xs, hs)
        height = PchipInterpolator(xs, hs)
        h = 1e-7
        for x in np.linspace(0.05, 0.95, 13).tolist():
            fd = (height(x + h) - height(x - h)) / (2.0 * h)
            assert profile.slope(x) == pytest.approx(fd, abs=1e-6)


def _table_course(n):
    rng = np.random.default_rng(n)
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    hs = rng.uniform(-0.01, 0.01, n)
    return xs, hs, CourseProfile.from_table(xs, hs)


def _sinusoid_slope(sin_amps, cos_amps, x, total=np.sum):
    """The slope of a sinusoid course as numpy arrays sum it."""
    a = np.asarray(sin_amps, dtype=float)
    b = np.asarray(cos_amps, dtype=float)
    ka = 2.0 * np.pi * np.arange(1, a.size + 1)
    kb = 2.0 * np.pi * np.arange(1, b.size + 1)
    x = np.asarray(x, dtype=float)[..., None]
    out = total(a * ka * np.cos(ka * x), axis=-1)
    out -= total(b * kb * np.sin(kb * x), axis=-1)
    return out


def _sum_in_order(terms, axis):
    return np.cumsum(terms, axis=axis)[..., -1]


class TestScalarFastPath:
    """The float steepness is arctan, to one ulp, of the array slope's bits."""

    @pytest.mark.parametrize("name", [
        "flat", "demo", "harmonics", "many-harmonics",
        "table-2", "table-3", "table-5", "table-11", "table-40",
    ])
    def test_steepness_bit_identical(self, name):
        mpmath = pytest.importorskip("mpmath")
        knots = []
        if name == "flat":
            profile, reference = FLAT, lambda x: np.zeros(np.shape(x))
        elif name == "demo":
            profile = demo_profile()
            reference = lambda x: _sinusoid_slope((0.006, 0.0), (0.0, 0.004), x)
        elif name.startswith("table"):
            from scipy.interpolate import PchipInterpolator

            knots, hs, profile = _table_course(int(name.split("-")[1]))
            reference = PchipInterpolator(knots, hs).derivative()
        else:
            n = 7 if name == "harmonics" else 12
            amps = (0.004 / np.arange(1, n + 1), -0.003 / np.arange(1, n - 1) ** 2)
            profile = CourseProfile.from_sinusoids(*amps)
            # past seven terms numpy sums pairwise; the course slope sums in order
            total = np.sum if n < 8 else _sum_in_order
            reference = lambda x: _sinusoid_slope(*amps, x, total)
        xs = [-0.0, 0.0, 1.0, -1e-9, 1.0 + 1e-9, -0.05, 1.05, *knots,
              *np.random.default_rng(7).uniform(0.0, 1.0, 2000)]
        for x in map(float, xs):
            slope = float(reference(np.array(x)))
            with mpmath.workdps(40):
                # atan keeps the sign of a zero, which mpmath has not
                want = slope if slope == 0.0 else float(mpmath.atan(slope))
            wants = {want} if want == 0.0 else {
                math.nextafter(want, -math.inf), want, math.nextafter(want, math.inf)}
            for got in (profile.steepness(x), profile.steepness(np.float64(x))):
                assert struct.pack("<d", got) in {struct.pack("<d", w) for w in wants}


class TestPchipMatchesScipy:
    """A course table's PCHIP pieces are SciPy's PchipInterpolator's, bit for bit."""

    @staticmethod
    def tables(count):
        rng = np.random.default_rng(1980)
        for k in range(count):
            n = 2 if k % 4 == 0 else int(rng.integers(3, 25))
            xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
            if k % 4 == 1:    # runs of equal heights: flat segments
                hs = np.round(rng.uniform(-0.01, 0.01, n), 2)
            elif k % 4 == 2:  # a monotone climb: no sign changes
                hs = np.cumsum(rng.uniform(0.0, 0.01, n))
            else:             # random heights: sign changes
                hs = rng.normal(0.0, 0.01, n)
            yield xs, hs

    def test_coefficients_equal_scipy(self):
        from scipy.interpolate import PchipInterpolator

        flat = sign_changes = 0
        for xs, hs in self.tables(2000):
            chords = np.diff(hs)
            flat += bool(np.any(chords == 0.0))
            sign_changes += bool(np.any(chords[1:] * chords[:-1] < 0.0))
            cubic, quadratic = _pchip_coefficients(xs, hs)
            interp = PchipInterpolator(xs, hs)
            assert np.array(cubic).tobytes() == interp.c[::-1].tobytes()
            assert np.array(quadratic).tobytes() == interp.derivative().c[::-1].tobytes()
        assert flat > 400 and sign_changes > 400

    def test_slopes_equal_scipy(self):
        from scipy.interpolate import PchipInterpolator

        xx = np.concatenate(([-0.05, 1.05], np.random.default_rng(3).uniform(0, 1, 50)))
        for xs, hs in self.tables(200):
            profile = CourseProfile.from_table(xs, hs)
            grid = np.concatenate((xx, xs))
            reference = PchipInterpolator(xs, hs).derivative()(grid)
            assert struct.pack(f"<{grid.size}d", *map(profile.slope, grid.tolist())) \
                == reference.tobytes()


class TestCourseFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "course.txt"
        path.write_text(text)
        return path

    @staticmethod
    def assert_course(profile, xs, hs):
        """The file's course has the slope of the table (xs, hs)."""
        reference = CourseProfile.from_table(xs, hs)
        for x in np.linspace(-0.05, 1.05, 23).tolist():
            assert profile.slope(x) == reference.slope(x)

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, "x h\n0 0\n0.5 0.004\n1.0 0\n")
        profile = load_course_table(path)
        assert profile.label == str(path)
        self.assert_course(profile, [0.0, 0.5, 1.0], [0.0, 0.004, 0.0])

    def test_comments_and_commas(self, tmp_path):
        path = self.write(tmp_path, "# elevation table\n0,0\n0.5,0.01\n1,0\n")
        self.assert_course(load_course_table(path), [0.0, 0.5, 1.0], [0.0, 0.01, 0.0])

    def test_bad_line_reports_number(self, tmp_path):
        path = self.write(tmp_path, "0 0\n0.5 oops\n1 0\n")
        with pytest.raises(CourseFileError, match="line 2"):
            load_course_table(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "0 0\n0.5 0.1 9\n1 0\n")
        with pytest.raises(CourseFileError, match="line 2"):
            load_course_table(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 0\n0.5 0.1\n0.4 0.2\n1 0\n")
        with pytest.raises(CourseFileError, match="increase"):
            load_course_table(path)

    def test_span_required(self, tmp_path):
        path = self.write(tmp_path, "0.1 0\n0.5 0.1\n1 0\n")
        with pytest.raises(CourseFileError, match="span"):
            load_course_table(path)


class TestQuasiSteadyRoot:
    def test_flat_unit(self):
        assert _quasi_steady_root(1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_matches_polynomial_roots(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            drag = rng.uniform(0.3, 2.0)
            slope_term = rng.uniform(-5.0, 5.0)
            power = rng.uniform(0.05, 6.0)
            v = _quasi_steady_root(drag, slope_term, power)
            ref = np.roots([drag, 0.0, slope_term, -power])
            real = sorted(r.real for r in ref if abs(r.imag) < 1e-9)
            assert v == pytest.approx(max(real), rel=1e-9)
            assert v > 0.0

    def test_coasting_downhill(self):
        # no pedaling on a descent: drag balances gravity
        v = _quasi_steady_root(1.0, -2.0, 0.0)
        assert v == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestPeloton:
    def test_flat_quasi_steady_unit_time(self):
        traj = simulate_peloton(FLAT, SCALES, quasi_steady=True)
        assert traj.finish_time == pytest.approx(1.0, abs=1e-12)
        assert traj.cumulative_energy[-1] == pytest.approx(1.0, abs=1e-12)

    def test_flat_full_dynamics_near_unit_time(self):
        traj = simulate_peloton(FLAT, SCALES)
        assert traj.finish_time == pytest.approx(1.0, abs=1e-2)
        assert abs(traj.positions[-1] - 1.0) < 1e-9

    def test_constant_grade_against_cubic(self):
        grade = 0.05
        profile = CourseProfile.from_table([0.0, 1.0], [0.0, grade])
        slope_term = 40.0 * math.sin(math.atan(grade))
        v = float(_quasi_steady_root(1.0, slope_term, 1.0))
        traj = simulate_peloton(profile, SCALES, quasi_steady=True)
        assert traj.finish_time == pytest.approx(1.0 / v, rel=1e-8)

    def test_full_vs_quasi_steady_on_hills(self):
        demo = demo_profile()
        qs = simulate_peloton(demo, SCALES, quasi_steady=True)
        full = simulate_peloton(demo, SCALES)
        assert full.finish_time == pytest.approx(qs.finish_time, abs=5e-2)

    def test_positions_non_decreasing(self):
        traj = simulate_peloton(demo_profile(), SCALES)
        assert np.all(np.diff(traj.positions) >= -1e-12)


class TestLurkingPower:
    """The power series of a rider who stays in the pack (attack=None)."""

    @staticmethod
    def lurking_power(profile, cd_lurk):
        run = simulate_breakaway(0.5, None, profile, SCALES, cd_lurk=cd_lurk,
                                 quasi_steady=True)
        return run.rider.powers

    def test_flat_equals_drag_ratio(self):
        series = self.lurking_power(FLAT, 0.46)
        assert series == pytest.approx(np.full_like(series, 0.46))

    def test_front_rider_pays_full_drag(self):
        series = self.lurking_power(FLAT, 1.43)
        assert series == pytest.approx(np.full_like(series, 1.43))
        assert np.all(series > 1.0)

    def test_clamped_on_fast_descents(self):
        series = self.lurking_power(demo_profile(), 0.46)
        assert np.all(series >= 0.0)
        assert np.any(series == 0.0)


class TestBreakaway:
    def test_flat_reduction_quasi_steady(self):
        problem = StrategyProblem(energy_budget=1.2)
        x_a = 0.5
        power = attack_power(x_a, problem)
        run = simulate_breakaway(x_a, power, FLAT, SCALES, quasi_steady=True)
        assert run.time_gap == pytest.approx(
            time_gap_from_position(x_a, problem), abs=1e-6)
        assert run.rider_energy == pytest.approx(1.2, abs=1e-6)

    def test_flat_reduction_small_inertia(self):
        problem = StrategyProblem(energy_budget=1.2)
        x_a = 0.4
        power = attack_power(x_a, problem)
        run = simulate_breakaway(x_a, power, FLAT, ScaleSet(inertia=1e-4))
        assert run.time_gap == pytest.approx(
            time_gap_from_position(x_a, problem), abs=1e-4)

    def test_event_localization(self):
        run = simulate_breakaway(0.5, 3.6, demo_profile(), SCALES)
        assert abs(run.rider.positions[-1] - 1.0) < 1e-9
        assert abs(run.peloton.positions[-1] - 1.0) < 1e-9

    def test_no_attack_stays_with_group(self):
        run = simulate_breakaway(0.5, None, demo_profile(), SCALES,
                                 quasi_steady=True)
        assert run.time_gap == 0.0
        assert run.rider.finish_time == run.peloton.finish_time

    def test_demo_breakaway_wins(self):
        run = simulate_breakaway(0.5, 3.6, demo_profile(), SCALES)
        assert run.time_gap > 0.0
        assert run.rider.finish_time < run.peloton.finish_time

    def test_rider_faster_on_flat_peloton_faster_downhill(self):
        demo = demo_profile()
        run = simulate_breakaway(0.5, 3.6, demo, SCALES)
        xs = np.linspace(0.0, 1.0, 2001)
        steepest = min(xs.tolist(), key=demo.slope)
        assert steepest > 0.5   # the big descent comes after the attack
        v_rider = np.interp(steepest, run.rider.positions, run.rider.velocities)
        v_pel = np.interp(steepest, run.peloton.positions,
                          run.peloton.velocities)
        assert v_pel > v_rider
        # near the end of the (flat-ish) final approach the rider is faster
        v_rider_flat = np.interp(0.99, run.rider.positions, run.rider.velocities)
        v_pel_flat = np.interp(0.99, run.peloton.positions,
                               run.peloton.velocities)
        assert v_rider_flat > v_pel_flat

    def test_descent_group_advantage_algebra(self):
        # where gravity beats drag, the sheltered group out-descends a solo
        # rider of equal power: compare the two speed cubics directly
        slope_term = -3.0
        v_group = _quasi_steady_root(1.0, slope_term, 1.0)
        v_solo = _quasi_steady_root(1.43, slope_term, 1.0)
        assert v_group > v_solo

    def test_energy_audit(self):
        run = simulate_breakaway(0.5, 3.6, demo_profile(), SCALES)
        for traj in (run.rider, run.peloton):
            trapz = np.trapezoid(traj.powers, traj.times)
            assert trapz == pytest.approx(traj.cumulative_energy[-1], abs=1e-6)

    def test_refinement_convergence(self):
        tight = SolverSettings(abs_tol=1e-12, rel_tol=1e-10)
        tighter = SolverSettings(abs_tol=1e-13, rel_tol=1e-11)
        a = simulate_breakaway(0.5, 3.6, demo_profile(), SCALES, settings=tight)
        b = simulate_breakaway(0.5, 3.6, demo_profile(), SCALES,
                               settings=tighter)
        assert abs(a.rider.finish_time - b.rider.finish_time) < 1e-7

    def test_fatigue_profile_attack(self):
        attack = PowerProfile(0.46, 0.0, 5.0, 0.46, 3.0)
        run = simulate_breakaway(0.5, attack, FLAT, SCALES, quasi_steady=True)
        assert run.rider.finish_time < run.peloton.finish_time + 1.0
        # the attack-side sample at the junction carries the full peak power
        k = int(np.searchsorted(run.rider.times, run.attack_time, side="left"))
        post = run.rider.powers[k + 1:]
        assert post[0] == pytest.approx(5.0, rel=1e-12)
        assert np.all(np.diff(post) <= 1e-12)

    def test_stall_on_powerless_climb(self):
        climb = CourseProfile.from_table([0.0, 1.0], [0.0, 0.05])
        with pytest.raises(StallError):
            simulate_breakaway(0.5, 0.0, climb, SCALES, quasi_steady=True)

    def test_crawl_never_finishes(self):
        with pytest.raises(RiderNeverFinishesError):
            simulate_breakaway(0.5, 1e-6, FLAT, SCALES, method="bdf")

    @pytest.mark.parametrize("inertia, method", [
        (5e-4, "auto"),   # auto picks BDF below inertia 1e-3
        (0.005, "rk45"),
    ])
    def test_unit_rider_ties_peloton(self, inertia, method):
        # the peloton is the rider at unit power, drag and mass: exact tie
        scales = ScaleSet(inertia=inertia, gravity_ratio=40.0)
        run = simulate_breakaway(0.0, 1.0, demo_profile(), scales,
                                 cd_front=1.0, mass_ratio=1.0, method=method)
        assert run.time_gap == 0.0
        assert run.rider.finish_time == run.peloton.finish_time

    def test_bad_attack_position(self):
        with pytest.raises(ValueError):
            simulate_breakaway(1.0, 3.6, FLAT, SCALES)
