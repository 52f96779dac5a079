import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from breakaway import terrain
from breakaway.flat import StrategyProblem, attack_power, time_gap_from_position
from breakaway.numerics import (
    SolverSettings,
    StallError,
    StiffnessError,
    ToleranceError,
    solve_cubic_real,
)
from breakaway.terrain import (
    CourseFileError,
    CourseProfile,
    _pchip_coefficients,
    demo_profile,
    load_course_table,
    simulate_breakaway,
)

FLAT = CourseProfile.flat()
QUASI_STEADY = 0.0   # the inertia of the quasi-steady limit
# the course table of the perfbench validate workload at seed 101
TABLE_COURSE = CourseProfile.from_table(
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    [0.0, -0.000298546, 0.002329763, 0.005329763, 0.005381263, 0.002672042,
     0.000539437, 0.001013606, 0.002362193, 0.001895791, 0.0])


def _peloton(profile, inertia=0.005):
    """The peloton's trajectory, from a rider who never attacks."""
    return simulate_breakaway(0.0, None, profile, inertia=inertia).peloton


def _series(traj, n=2049):
    """Times, speeds, powers and energies at n even positions to the finish."""
    return list(zip(*traj.sample(np.linspace(0.0, 1.0, n).tolist())))


def _at_finish(traj):
    """Time, speed, power and energy at the finish line."""
    return traj.sample([1.0])[0]


def _lurk_energy_oracle(peloton, positions, cd_lurk=0.46, mass_ratio=1.0):
    """Cumulative lurk energy at sorted positions from 0: QUADPACK over x of
    the clamped lurk power divided by the peloton's dense speed, cut at the
    positions and at the clamp's roots, each bracketed on a 4,097-point scan
    and found by brentq."""
    def raw(v):
        return mass_ratio + (cd_lurk - mass_ratio) * v ** 3

    def speed(x):
        return peloton.sample([x])[0][1]

    scan = np.linspace(0.0, positions[-1], 4097)
    clamped = raw(np.array([row[1] for row in peloton.sample(scan.tolist())])) < 0.0
    roots = [brentq(lambda x: raw(speed(x)), scan[k], scan[k + 1], xtol=1e-15)
             for k in np.flatnonzero(clamped[1:] != clamped[:-1])]
    cuts = sorted({*positions, *roots})
    energy, total = {cuts[0]: 0.0}, 0.0
    for a, b in zip(cuts, cuts[1:]):
        total += quad(lambda x: max(raw(speed(x)), 0.0) / speed(x), a, b,
                      epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        energy[b] = total
    return [energy[x] for x in positions]


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
            [math.sin(math.atan(0.05))] * 9, rel=1e-9)

    def test_sinusoid_derivative(self):
        profile = demo_profile()
        assert profile.steepness(0.0) == pytest.approx(
            math.sin(math.atan(2.0 * math.pi * 0.006)), rel=1e-12)
        # finite-difference cross-check of the analytic slope
        def height(x):
            return 0.006 * math.sin(2.0 * math.pi * x) + 0.004 * (math.cos(4.0 * math.pi * x) - 1.0)
        assert height(0.0) == 0.0
        h = 1e-7
        for x in np.linspace(0.1, 0.9, 7).tolist():
            fd = (height(x + h) - height(x - h)) / (2.0 * h)
            assert profile.slope(x) == pytest.approx(fd, abs=1e-6)

    def test_demo_slope_is_the_two_term_sum_bit_for_bit(self):
        # the general harmonic sum the demo course was once built by: sin
        # amplitudes (0.006, 0) and cos amplitudes (0, 0.004), each nonzero
        # term a_k 2 pi k times cos or sin(2 pi k x), summed in order from 0.0
        ks = (2.0 * math.pi * 1, 2.0 * math.pi * 2)

        def summed(x):
            x, up, down = float(x), 0.0, 0.0
            for a, k in zip((0.006, 0.0), ks):
                if a != 0.0:
                    up += a * k * math.cos(k * x)
            for b, k in zip((0.0, 0.004), ks):
                if b != 0.0:
                    down += b * k * math.sin(k * x)
            return up - down

        profile = demo_profile()
        rng = np.random.default_rng(36)
        xs = [-0.0, 0.0, 1.0, 0.25, 0.5, 0.75, -1e-300, 5e-324, 1.0 - 2.0 ** -53,
              -0.05, 1.05, -3.7, 12.25, 1e6,
              *rng.uniform(0.0, 1.0, 10000), *rng.uniform(-2.0, 3.0, 1000)]
        for x in [*map(float, xs), *map(np.float64, xs[:200])]:
            s = summed(x)
            assert profile.slope(x).hex() == s.hex()
            assert profile.steepness(x).hex() == (s / math.hypot(1.0, s)).hex()

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


def _sinusoid_slope(sin_amps, cos_amps, x):
    """The slope of a sinusoid course as numpy arrays sum it."""
    a = np.asarray(sin_amps, dtype=float)
    b = np.asarray(cos_amps, dtype=float)
    ka = 2.0 * np.pi * np.arange(1, a.size + 1)
    kb = 2.0 * np.pi * np.arange(1, b.size + 1)
    x = np.asarray(x, dtype=float)[..., None]
    out = np.sum(a * ka * np.cos(ka * x), axis=-1)
    out -= np.sum(b * kb * np.sin(kb * x), axis=-1)
    return out


class TestScalarFastPath:
    """The float steepness is sin(arctan), to one ulp, of the array slope's bits."""

    @pytest.mark.parametrize("name", [
        "flat", "demo", "table-2", "table-3", "table-5", "table-11", "table-40",
    ])
    def test_steepness_bit_identical(self, name):
        mpmath = pytest.importorskip("mpmath")
        knots = []
        if name == "flat":
            profile, reference = FLAT, lambda x: np.zeros(np.shape(x))
        elif name == "demo":
            profile = demo_profile()
            reference = lambda x: _sinusoid_slope((0.006, 0.0), (0.0, 0.004), x)
        else:
            from scipy.interpolate import PchipInterpolator

            knots, hs, profile = _table_course(int(name.split("-")[1]))
            reference = PchipInterpolator(knots, hs).derivative()
        xs = [-0.0, 0.0, 1.0, -1e-9, 1.0 + 1e-9, -0.05, 1.05, *knots,
              *np.random.default_rng(7).uniform(0.0, 1.0, 2000)]
        for x in map(float, xs):
            slope = float(reference(np.array(x)))
            with mpmath.workdps(40):
                # a zero slope keeps its sign, which mpmath has not
                want = slope if slope == 0.0 else float(slope / mpmath.sqrt(1 + mpmath.mpf(slope) ** 2))
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
            quadratic = _pchip_coefficients(xs, hs)
            interp = PchipInterpolator(xs, hs)
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

    @pytest.mark.parametrize("head", ["# my course\n", "\n  \n", "# a\n\n# b\n"])
    def test_header_after_comments_and_blank_lines(self, tmp_path, head):
        path = self.write(tmp_path, head + "x h\n0 0\n0.5 0.01\n1 0\n")
        self.assert_course(load_course_table(path), [0.0, 0.5, 1.0], [0.0, 0.01, 0.0])

    @pytest.mark.parametrize("text, line", [
        ("# my course\n0 0\nx h\n0.5 0.01\n1 0\n", 3),   # after data
        ("# my course\nx h\nx h\n0 0\n1 0\n", 3),       # a second header
    ])
    def test_header_only_before_data(self, tmp_path, text, line):
        path = self.write(tmp_path, text)
        with pytest.raises(CourseFileError, match=f"line {line}: not numeric"):
            load_course_table(path)

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
        traj = _peloton(FLAT, QUASI_STEADY)
        assert traj.finish_time == pytest.approx(1.0, abs=1e-12)
        assert _at_finish(traj)[3] == pytest.approx(1.0, abs=1e-12)

    def test_flat_full_dynamics_near_unit_time(self):
        traj = _peloton(FLAT)
        assert traj.finish_time == pytest.approx(1.0, abs=1e-2)
        assert _at_finish(traj)[0] == traj.finish_time

    def test_constant_grade_against_cubic(self):
        grade = 0.05
        profile = CourseProfile.from_table([0.0, 1.0], [0.0, grade])
        slope_term = 40.0 * math.sin(math.atan(grade))
        v = float(_quasi_steady_root(1.0, slope_term, 1.0))
        traj = _peloton(profile, QUASI_STEADY)
        assert traj.finish_time == pytest.approx(1.0 / v, rel=1e-8)

    def test_full_vs_quasi_steady_on_hills(self):
        demo = demo_profile()
        qs = _peloton(demo, QUASI_STEADY)
        full = _peloton(demo)
        assert full.finish_time == pytest.approx(qs.finish_time, abs=5e-2)

    def test_positions_non_decreasing(self):
        # the times at increasing positions increase: the peloton never turns
        times, _, _, _ = _series(_peloton(demo_profile()))
        assert np.all(np.diff(times) > 0.0)


class TestLurkingPower:
    """The power series of a rider who stays in the pack (attack=None)."""

    @staticmethod
    def lurking_power(profile, cd_lurk):
        run = simulate_breakaway(0.5, None, profile, inertia=QUASI_STEADY,
                                 cd_lurk=cd_lurk)
        return np.array(_series(run.rider)[2])

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
        run = simulate_breakaway(x_a, power, FLAT, inertia=QUASI_STEADY)
        assert run.time_gap == pytest.approx(
            time_gap_from_position(x_a, problem), abs=1e-6)
        assert run.rider_energy == pytest.approx(1.2, abs=1e-6)

    def test_flat_reduction_small_inertia(self):
        problem = StrategyProblem(energy_budget=1.2)
        x_a = 0.4
        power = attack_power(x_a, problem)
        run = simulate_breakaway(x_a, power, FLAT, inertia=1e-4)
        assert run.time_gap == pytest.approx(
            time_gap_from_position(x_a, problem), abs=1e-4)

    def test_event_localization(self):
        # the finish is the end of the march: the row at x = 1 is the finish
        run = simulate_breakaway(0.5, 3.6, demo_profile())
        assert _at_finish(run.rider)[0] == run.rider.finish_time
        assert _at_finish(run.peloton)[0] == run.peloton.finish_time

    def test_no_attack_stays_with_group(self):
        run = simulate_breakaway(0.5, None, demo_profile(), inertia=QUASI_STEADY)
        assert run.time_gap == 0.0
        assert run.rider.finish_time == run.peloton.finish_time

    def test_demo_breakaway_wins(self):
        run = simulate_breakaway(0.5, 3.6, demo_profile())
        assert run.time_gap > 0.0
        assert run.rider.finish_time < run.peloton.finish_time

    def test_rider_faster_on_flat_peloton_faster_downhill(self):
        demo = demo_profile()
        run = simulate_breakaway(0.5, 3.6, demo)
        xs = np.linspace(0.0, 1.0, 2001)
        steepest = min(xs.tolist(), key=demo.slope)
        assert steepest > 0.5   # the big descent comes after the attack
        (_, v_rider, _, _), (_, v_rider_flat, _, _) = run.rider.sample([steepest, 0.99])
        (_, v_pel, _, _), (_, v_pel_flat, _, _) = run.peloton.sample([steepest, 0.99])
        assert v_pel > v_rider
        # near the end of the (flat-ish) final approach the rider is faster
        assert v_rider_flat > v_pel_flat

    def test_descent_group_advantage_algebra(self):
        # where gravity beats drag, the sheltered group out-descends a solo
        # rider of equal power: compare the two speed cubics directly
        slope_term = -3.0
        v_group = _quasi_steady_root(1.0, slope_term, 1.0)
        v_solo = _quasi_steady_root(1.43, slope_term, 1.0)
        assert v_group > v_solo

    @pytest.mark.parametrize("course, inertia, attack", [
        ("demo", 0.005, 3.6),           # RK45
        ("demo", 5e-4, 3.6),            # BDF
        ("demo", QUASI_STEADY, 3.6),
        ("table", 0.005, 3.6),
        ("table", 5e-4, 3.6),
        ("table", QUASI_STEADY, 3.6),
        ("demo", 0.005, None),          # lurks to the finish
    ])
    def test_energy_audit(self, course, inertia, attack):
        # the lurk energy of the work-energy identity against QUADPACK of the
        # clamped lurk power m + (C - m) v^3 over the peloton's dense speed,
        # split at the clamp's roots; at x_attack = 0.5 the demo lurk phase
        # holds three switches and the table's one
        profile = demo_profile() if course == "demo" else TABLE_COURSE
        run = simulate_breakaway(0.5, attack, profile, inertia=inertia)
        positions = np.linspace(0.0, 1.0 if attack is None else 0.5, 65).tolist()
        reference = _lurk_energy_oracle(run.peloton, positions)
        energies = [row[3] for row in run.rider.sample(positions)]
        assert energies == pytest.approx(reference, rel=0.0, abs=1e-9)
        post = 0.0 if attack is None else attack * (run.rider.finish_time - run.attack_time)
        assert run.rider_energy == pytest.approx(reference[-1] + post, rel=0.0, abs=1e-9)

    def test_refinement_convergence(self):
        tight = SolverSettings(abs_tol=1e-12, rel_tol=1e-10)
        tighter = SolverSettings(abs_tol=1e-13, rel_tol=1e-11)
        a = simulate_breakaway(0.5, 3.6, demo_profile(), settings=tight)
        b = simulate_breakaway(0.5, 3.6, demo_profile(), settings=tighter)
        assert abs(a.rider.finish_time - b.rider.finish_time) < 1e-7

    @pytest.mark.parametrize("inertia", [QUASI_STEADY, 1e-6, 5e-4])
    def test_stall_on_powerless_climb(self, inertia):
        climb = CourseProfile.from_table([0.0, 1.0], [0.0, 0.05])
        with pytest.raises(StallError):
            simulate_breakaway(0.5, 0.0, climb, inertia=inertia)

    def test_crawl_finishes(self):
        # marched in distance a crawl ends.  On the flat the speed law has a
        # closed form in xi: C v^3 = p - (p - C v0^3) exp(-3 C xi / eps), from
        # the peloton's unit speed, so the ride time is a quadrature
        p, cd, eps = 1e-6, 1.43, 0.005
        run = simulate_breakaway(0.5, p, FLAT, inertia=eps)

        def pace(xi):
            return ((p - (p - cd) * math.exp(-3.0 * cd * xi / eps)) / cd) ** (-1.0 / 3.0)
        ride = sum(quad(pace, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                   for a, b in [(0.0, 0.01), (0.01, 0.05), (0.05, 0.5)])
        assert ride > 50.0   # about 0.5 / (p / cd)^(1/3)
        assert run.rider.finish_time - run.attack_time == pytest.approx(ride, rel=1e-8)

    def test_stiffness_error_names_no_method_knob(self):
        # a collapsed solve names the ride and the integrator, not a knob
        exploding = lambda t, a, b: (a ** 3 * 1e8, 0.0)
        with pytest.raises(StiffnessError, match="^peloton RK45: Required step") as info:
            terrain.ode_solve_with_events(exploding, [1.0], (0.0, 10.0), name="peloton")
        assert "method" not in str(info.value)

    def test_budget_is_the_rides(self, monkeypatch):
        # the solve restarts at 39 knots: its 40 intervals of about 700 rhs
        # evaluations each overrun together a budget that none reaches alone
        monkeypatch.setattr("breakaway.ode._MAX_RHS_EVALS", 2_000)
        xs = np.linspace(0.0, 1.0, 41)
        course = CourseProfile.from_table(xs, 0.004 * np.sin(2.0 * np.pi * xs))
        with pytest.raises(ToleranceError, match="^peloton RK45: solve over its budget of 2000 "):
            simulate_breakaway(0.5, 3.6, course)

    @pytest.mark.parametrize("inertia", [5e-4, 0.005, QUASI_STEADY])
    def test_one_solve_per_ride(self, inertia, monkeypatch):
        # the peloton's and the rider's, each restarted at the knots ahead
        calls = []
        solve = terrain.ode_solve_with_events

        def record(*args, **kwargs):
            calls.append((kwargs["name"], sorted(k for k in kwargs["breaks"] if k > 0.0)))
            return solve(*args, **kwargs)
        monkeypatch.setattr(terrain, "ode_solve_with_events", record)
        xs = np.linspace(0.0, 1.0, 41)
        course = CourseProfile.from_table(xs, 0.004 * np.sin(2.0 * np.pi * xs))
        simulate_breakaway(0.45, 3.6, course, inertia=inertia)
        knots = course.knots
        assert len(knots) == 39
        assert calls == [("peloton", list(knots)),
                         ("rider", [k - 0.45 for k in knots if k > 0.45])]

    def test_settings_read_at_the_call(self, monkeypatch):
        # tightening the module's SIM_SETTINGS tightens the next ride
        evals = []
        solve = terrain.ode_solve_with_events

        def record(*args, **kwargs):
            sol = solve(*args, **kwargs)
            evals.append(sol.nfev)
            return sol
        monkeypatch.setattr(terrain, "ode_solve_with_events", record)
        simulate_breakaway(0.45, 3.6, FLAT)
        default = sum(evals)
        evals.clear()
        monkeypatch.setattr(terrain, "SIM_SETTINGS", SolverSettings(abs_tol=1e-14, rel_tol=1e-12))
        simulate_breakaway(0.45, 3.6, FLAT)
        assert sum(evals) > default

    @pytest.mark.parametrize("inertia, method", [
        (5e-4, "bdf"),
        (0.005, "rk45"),
    ])
    def test_unit_rider_ties_peloton(self, inertia, method, monkeypatch):
        # the peloton is the rider at unit power, drag and mass: exact tie
        methods = []
        solve = terrain.ode_solve_with_events

        def record(*args, **kwargs):
            methods.append("rk45" if kwargs["jac"] is None else "bdf")
            return solve(*args, **kwargs)
        monkeypatch.setattr(terrain, "ode_solve_with_events", record)
        run = simulate_breakaway(0.0, 1.0, demo_profile(), inertia=inertia,
                                 gravity_ratio=40.0, cd_front=1.0, mass_ratio=1.0)
        assert methods == [method, method]
        assert run.time_gap == 0.0
        assert run.rider.finish_time == run.peloton.finish_time

    def test_bad_attack_position(self):
        with pytest.raises(ValueError):
            simulate_breakaway(1.0, 3.6, FLAT)

    @pytest.mark.parametrize("inertia", [-1e-3, -math.inf, math.nan])
    def test_bad_inertia(self, inertia):
        with pytest.raises(ValueError, match="inertia"):
            simulate_breakaway(0.5, 3.6, FLAT, inertia=inertia)

    def test_zero_inertia_is_the_quasi_steady_limit(self, monkeypatch):
        # the quasi-steady state is the position alone, the full state (x, v)
        calls = []
        solve = terrain.ode_solve_with_events

        def record(rhs, y0, *args, **kwargs):
            calls.append((len(y0), kwargs["settings"]))
            return solve(rhs, y0, *args, **kwargs)
        monkeypatch.setattr(terrain, "ode_solve_with_events", record)
        for inertia in (0.0, 0.005):
            simulate_breakaway(0.5, 3.6, demo_profile(), inertia=inertia)
        quasi, full = SolverSettings(abs_tol=1e-14, rel_tol=1e-12), terrain.SIM_SETTINGS
        assert calls == [(1, quasi), (1, quasi), (2, full), (2, full)]

    def test_quasi_steady_march_reads_settings(self, monkeypatch):
        # both marches at the caller's settings, each tolerance over 100
        calls = []
        solve = terrain.ode_solve_with_events

        def record(rhs, y0, *args, **kwargs):
            calls.append(kwargs["settings"])
            return solve(rhs, y0, *args, **kwargs)
        monkeypatch.setattr(terrain, "ode_solve_with_events", record)
        settings = SolverSettings(abs_tol=1e-9, rel_tol=1e-7, max_iterations=150)
        simulate_breakaway(0.5, 3.6, demo_profile(), inertia=0.0, settings=settings)
        assert calls == [SolverSettings(1e-9 / 100.0, 1e-7 / 100.0, 150)] * 2

    @pytest.mark.parametrize("inertia", [0.0, 0.005])
    def test_post_attack_energy_is_closed_form(self, inertia):
        attack = 3.6
        run = simulate_breakaway(0.5, attack, demo_profile(), inertia=inertia)
        rider, t_a = run.rider, run.attack_time
        t_lurk, _, _, e_attack = rider.sample([0.5])[0]   # the lurk side of the attack
        assert t_lurk == t_a
        ride = np.linspace(0.5, 1.0, 33).tolist()[1:]
        for t, _, power, e in rider.sample(ride):
            assert power == attack
            assert e == pytest.approx(e_attack + attack * (t - t_a), rel=1e-15)
        assert run.rider_energy == pytest.approx(
            e_attack + attack * (rider.finish_time - t_a), rel=1e-15)


class TestDistanceMarch:
    """Rides marched in distance, one solve per knot interval, hold their
    digits against independent references."""

    # the course table of the perfbench terrain workload at seed 102, and the
    # attack of its table-rk45-1 ride: a march whose steps straddle the
    # knots, where h'' jumps, misjudges its error there (8.2e-10 here)
    SEED_102 = ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                [0.0, -0.001471201, -0.001782071, -0.001919421, -0.003262112,
                 -0.005076338, -0.005101252, -0.002579279, 0.000420721, 0.001321525, 0.0])

    def test_table_ride_holds_against_a_tighter_run(self):
        course = CourseProfile.from_table(*self.SEED_102)
        times = [simulate_breakaway(0.642225, 3.88445, course, settings=settings).rider.finish_time
                 for settings in (terrain.SIM_SETTINGS, SolverSettings(abs_tol=1e-15, rel_tol=1e-13))]
        assert times[0] == pytest.approx(times[1], rel=5e-12, abs=0.0)

    @staticmethod
    def quasi_steady_time(profile, gamma=40.0):
        """mpmath.quad of 1/V(x) over [0, 1], split at the knots, at 20
        digits; V is the largest root of f(V) = V^3 + gamma sin(theta) V - 1,
        by Newton from above all roots, where f is convex and rising, and the
        slope is the course's own float."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            def pace(x):
                s = mpmath.mpf(profile.slope(float(x)))
                a = gamma * s / mpmath.sqrt(1 + s * s)
                v, step = 2 + mpmath.sqrt(abs(a)), 1
                while abs(step) > mpmath.mpf(10) ** -18 * v:
                    step = (v ** 3 + a * v - 1) / (3 * v ** 2 + a)
                    v -= step
                return 1 / v
            return float(mpmath.quad(pace, [0, *profile.knots, 1]))

    @pytest.mark.parametrize("course", ["demo", "table"])
    def test_quasi_steady_peloton_matches_mpmath(self, course):
        profile = demo_profile() if course == "demo" else TABLE_COURSE
        peloton = _peloton(profile, QUASI_STEADY)
        assert abs(peloton.finish_time - self.quasi_steady_time(profile)) < 1e-12
