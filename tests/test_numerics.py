import bisect
import math

import numpy as np
import pytest
from scipy import integrate, optimize

import breakaway.microstructure as microstructure
import breakaway.numerics as numerics
import breakaway.ode as ode
import breakaway.terrain as terrain
from breakaway.model import DragParams
from breakaway.numerics import (
    DEFAULT_SETTINGS,
    BracketError,
    SolverSettings,
    StallError,
    StiffnessError,
    ToleranceError,
    find_root_bracketed,
    integrate_adaptive,
    solve_cubic_real,
)
from breakaway.ode import ode_solve_with_events


def cubic_residual(a3, a1, a0, y):
    return a3 * y**3 + a1 * y + a0


class TestCubic:
    def test_three_real_roots(self):
        roots = solve_cubic_real(1.0, -1.0, 0.0)
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)

    def test_single_real_root(self):
        roots = solve_cubic_real(1.0, 1.0, -2.0)
        assert roots == pytest.approx([1.0], abs=1e-14)

    def test_linear_degenerate(self):
        assert solve_cubic_real(0.0, 2.0, -1.0) == pytest.approx([0.5])
        assert solve_cubic_real(0.0, 0.0, 3.0) == []

    def test_double_root(self):
        # (y - 1)^2 (y + 2) = y^3 - 3y + 2
        roots = solve_cubic_real(1.0, -3.0, 2.0)
        assert min(roots) == pytest.approx(-2.0, abs=1e-12)
        assert max(roots) == pytest.approx(1.0, abs=1e-8)

    def test_random_draws_residuals_and_roots(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            a3 = rng.uniform(-2, 2)
            if abs(a3) < 1e-3:
                a3 = 1.0
            a1 = rng.uniform(-3, 3)
            a0 = rng.uniform(-3, 3)
            roots = solve_cubic_real(a3, a1, a0)
            assert roots, "an odd-degree polynomial always has a real root"
            scale = max(1.0, abs(a1), abs(a0))
            for y in roots:
                assert abs(cubic_residual(a3, a1, a0, y)) < 1e-12 * scale * max(1.0, abs(y) ** 3)
            # every root reported by the reference solver is matched
            ref = np.roots([a3, 0.0, a1, a0])
            ref_real = sorted(r.real for r in ref if abs(r.imag) < 1e-9)
            for target in ref_real:
                assert min(abs(target - y) for y in roots) < 1e-6 * max(1.0, abs(target))


class TestRootFinding:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_cube_root_of_two(self):
        root = find_root_bracketed(lambda x: x**3 - 2.0, 1.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_matches_scipy_brentq_bit_for_bit(self):
        # the port takes SciPy's iterates: the same float root from the
        # same number of evaluations of f, over four function families
        families = (
            lambda c: lambda x: x**3 - c,
            lambda c: lambda x: math.exp(x) - 1.0 - c,
            lambda c: lambda x: math.atan(c * (x - 0.3)),
            lambda c: lambda x: math.cos(x) - c * x,
        )
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 2_000:
            f = families[checked % len(families)](float(rng.uniform(0.05, 3.0)))
            lo, hi = float(rng.uniform(-2.0, 0.2)), float(rng.uniform(0.35, 4.0))
            if f(lo) * f(hi) >= 0.0:
                continue
            abs_tol = 10.0 ** rng.uniform(-15.0, -10.0)
            calls = []

            def counted(x):
                calls.append(x)
                return f(x)

            root = find_root_bracketed(counted, lo, hi, SolverSettings(abs_tol=abs_tol))
            ref, r = optimize.brentq(f, lo, hi, xtol=abs_tol,
                                     rtol=4.0 * np.finfo(float).eps,
                                     maxiter=200, full_output=True)
            assert type(root) is float
            assert root == ref, (checked, lo, hi, abs_tol)
            assert len(calls) == r.function_calls
            checked += 1

    def test_tiny_values_of_one_sign_are_no_bracket(self):
        # 1e-200 * 1e-200 underflows to 0; the signs still agree
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: 1e-200, 0.0, 1.0)

    def test_nan_at_an_end_is_no_bracket(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0)

    def test_nan_at_an_iterate(self):
        f = lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan
        with pytest.raises(ToleranceError):
            find_root_bracketed(f, 0.0, 1.0)

    def test_iteration_budget(self):
        settings = SolverSettings(abs_tol=1e-15, max_iterations=3)
        with pytest.raises(ToleranceError):
            find_root_bracketed(lambda x: math.atan(50.0 * (x - 0.3)), 0.0, 1.0,
                                settings)


class TestQuadrature:
    def test_constant(self):
        value, err = integrate_adaptive(lambda t: 1.0, 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert err >= 0.0

    def test_exponential(self):
        value, err = integrate_adaptive(lambda t: math.exp(-t), 0.0, 1.0)
        exact = 1.0 - math.exp(-1.0)
        assert value == pytest.approx(exact, abs=1e-12)
        # error estimate honest to within a factor of 10
        assert abs(value - exact) <= 10.0 * max(err, 1e-15)

    def test_smooth_oscillatory_estimate(self):
        value, err = integrate_adaptive(lambda t: math.sin(10.0 * t), 0.0, 1.0)
        exact = (1.0 - math.cos(10.0)) / 10.0
        assert abs(value - exact) <= 10.0 * max(err, 1e-15)

    @pytest.mark.parametrize("name, f, a, b", [
        ("exp", lambda t: math.exp(-3.0 * t), 0.0, 2.0),
        ("oscillatory", lambda t: math.cos(40.0 * t) * t, 0.0, 1.5),
        ("runge", lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0),
        ("sqrt", lambda t: math.sqrt(t), 0.0, 1.0),
        ("reversed", lambda t: math.log1p(t), 1.0, 0.0),
    ])
    def test_agrees_with_quadpack(self, name, f, a, b):
        settings = SolverSettings()
        value, err = integrate_adaptive(f, a, b, settings)
        ref, _ = integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-14, limit=500)
        assert abs(value - ref) <= max(settings.abs_tol, settings.rel_tol * abs(ref))
        assert abs(value - ref) <= 10.0 * max(err, 1e-15)

    @pytest.mark.parametrize("mu", [0.3, 30.0, 400.0, 1e5])
    def test_fatigue_integrand_agrees_with_quadpack(self, mu):
        # the arrival-residual integrand: speed after the attack, p_max = 1.9
        p_s, amplitude, span = 0.8, 1.1, 0.55
        f = lambda s: np.cbrt(p_s + amplitude * np.exp(-mu * s))
        settings = SolverSettings()
        value, _ = integrate_adaptive(f, 0.0, span, settings)
        ref, _ = integrate.quad(f, 0.0, span, epsabs=1e-14, epsrel=1e-14, limit=500)
        assert type(value) is float
        assert abs(value - ref) <= max(settings.abs_tol, settings.rel_tol * abs(ref))


class TestOdeEvents:
    def test_unit_slope_event(self):
        sol = ode_solve_with_events(lambda t, a, b: (1.0, 0.0), [0.0], (0.0, 5.0),
                                    events=((0, 1.0, 0),))
        assert sol.event == 0
        assert sol.t[-1] == pytest.approx(1.0, abs=1e-10)

    def test_decay_event(self):
        sol = ode_solve_with_events(lambda t, a, b: (-a, 0.0), [1.0], (0.0, 5.0),
                                    events=((0, math.exp(-1.0), 0),))
        assert sol.event == 0
        assert sol.t[-1] == pytest.approx(1.0, abs=1e-8)

    # at the rides' tolerances, so the end times meet the references' rel 1e-9
    TIGHT = SolverSettings(abs_tol=1e-12, rel_tol=1e-10)

    @pytest.mark.parametrize("direction, end", [
        (-1, 5 * math.pi / 6),   # the rising crossing at pi/6 is skipped
        (1, math.pi / 6),
        (0, math.pi / 6),
    ])
    def test_direction_selects_the_crossing(self, direction, end):
        # y = sin t crosses 0.5 rising at pi/6 and falling at 5 pi/6
        rhs, events = lambda t, a, b: (math.cos(t), 0.0), ((0, 0.5, direction),)
        sol = ode_solve_with_events(rhs, [0.0], (0.0, 10.0), events, self.TIGHT)
        assert sol.event == 0
        assert sol.t[-1] == pytest.approx(end, rel=1e-9)
        assert_solve_agrees(sol, rhs, [0.0], (0.0, 10.0), events, self.TIGHT)

    def test_earliest_event_ends_the_solve(self):
        rhs, events = lambda t, a, b: (math.cos(t), 0.0), ((0, 0.9, 0), (0, 0.5, 0))
        sol = ode_solve_with_events(rhs, [0.0], (0.0, 10.0), events, self.TIGHT)
        assert sol.event == 1
        assert sol.t[-1] == pytest.approx(math.pi / 6, rel=1e-9)
        assert_solve_agrees(sol, rhs, [0.0], (0.0, 10.0), events, self.TIGHT)

    @pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)])
    def test_t_span_must_increase(self, t_span):
        with pytest.raises(ValueError, match="t_span must increase"):
            ode_solve_with_events(lambda t, a, b: (1.0, 0.0), [0.0], t_span)

    def test_observed_order_at_least_four(self):
        # one step over (0, h): halving h should cut its error by at least 2^4
        def run(h):
            settings = SolverSettings(abs_tol=1e-3, rel_tol=1e-3)
            sol = ode_solve_with_events(lambda t, a, b: (a, 0.0), [1.0], (0.0, h),
                                        settings=settings)
            assert len(sol.t) == 2
            return abs(sol.y[0][-1] - math.exp(h))

        e1, e2 = run(0.1), run(0.05)
        order = math.log2(e1 / e2)
        assert order >= 4.0

    def test_integrator_failure_raises(self):
        def exploding(t, a, b):
            return a ** 3 * 1e8, 0.0
        with pytest.raises(StiffnessError):
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))

    def test_bdf_mode_handles_stiff_decay(self):
        sol = ode_solve_with_events(lambda t, a, b: (-1e6 * (a - 1.0), 0.0), [0.0],
                                    (0.0, 1.0), jac=lambda t, a, b: [[-1e6]])
        assert sol.y[0][-1] == pytest.approx(1.0, abs=1e-6)


def as_scipy(f, n):
    """f in the package's convention, f(t, a, b) with b 0.0 for one state,
    as solve_ivp's f(t, y) on n states: the n rates, or the Jacobian's n x n
    block."""
    def scipy_f(t, y):
        out = np.asarray(f(t, *y, *[0.0] * (2 - n)), dtype=float)
        return out[(slice(n),) * out.ndim]
    return scipy_f


def terminal_events(events):
    """The package's events (i, level, direction) as solve_ivp's: terminal
    callables of state i less the level, with that direction."""
    terminal = []
    for i, level, direction in events:
        def crossing(t, y, i=i, level=level):
            return y[i] - level
        crossing.terminal, crossing.direction = True, direction
        terminal.append(crossing)
    return terminal or None


# Work-count bounds against SciPy's run of the same method.  Each loop runs
# SciPy's algorithm, but a last-bit difference flips a step decision now and
# then, and the counts drift apart from there.  BDF: SciPy against itself
# under numpy's second SIMD dispatch, on 40 rides over 20 random table
# courses at inertia 3e-4 to 8e-4, moved nfev by up to 2.7%, steps 2.0%,
# njev 24% and nlu 10%; the own loop against SciPy, on the same rides, 3.2%,
# 1.9%, 17% and 9.6%.  RK45: the own loop takes SciPy's steps on the demo
# rides, the microstructure solves and the knot intervals of the seeded
# table courses 1-5.  Each bound also allows 2 counts, for the few Jacobians
# of a short ride.
WORK_BOUNDS = {"RK45": {"nfev": 0.03, "steps": 0.03, "njev": 0.0, "nlu": 0.0},
               "BDF": {"nfev": 0.04, "steps": 0.04, "njev": 0.25, "nlu": 0.25}}


def assert_solve_agrees(result, rhs, y0, t_span, events=(), settings=DEFAULT_SETTINGS,
                        jac=None, breaks=()):
    """result, the own loop's solve, against solve_ivp's run of the same
    method (RK45 without jac, BDF with it) and its Radau at rtol 1e-13, one
    interval between breaks at a time, from result's state at its start:
    the same terminal event, or none, the end or event time to rel 1e-9,
    each interval's steps and the summed work within WORK_BOUNDS, and the
    dense solution through every step end and held beyond the first and the
    last."""
    method = "RK45" if jac is None else "BDF"
    rhs, given = as_scipy(rhs, len(y0)), {} if jac is None else {"jac": as_scipy(jac, len(y0))}
    t, y = np.asarray(result.t), np.asarray(result.y)
    cuts = sorted({float(b) for b in breaks if t_span[0] < b < t_span[1]})
    intervals = [(a, b) for a, b in zip([t_span[0], *cuts], [*cuts, t_span[1]])
                 if a == t_span[0] or a < t[-1]]
    theirs = dict.fromkeys(("nfev", "njev", "nlu"), 0)
    for k, (a, b) in enumerate(intervals):
        last = k == len(intervals) - 1
        start = np.asarray(y0, dtype=float) if k == 0 else y[:, np.flatnonzero(t == a)[0]]
        refs = [integrate.solve_ivp(rhs, (a, b), start, method=m, rtol=rtol,
                                    atol=settings.abs_tol, events=terminal_events(events),
                                    **given)
                for m, rtol in ((method, settings.rel_tol), ("Radau", 1e-13))]
        end = t[-1] if last else b
        for ref in refs:
            assert ref.status >= 0
            fired = [i for i, te in enumerate(ref.t_events or ()) if te.size]
            assert fired == ([] if result.event is None or not last else [result.event])
            assert end == pytest.approx(ref.t[-1], rel=1e-9, abs=0.0)
        same = refs[0]
        steps = np.count_nonzero((t >= a) & (t <= end))
        assert abs(steps - same.t.size) <= max(WORK_BOUNDS[method]["steps"] * same.t.size, 2), \
            ("steps", a, steps, same.t.size)
        for name in theirs:
            theirs[name] += getattr(same, name)
    for name, work in theirs.items():
        mine = getattr(result, name)
        assert abs(mine - work) <= max(WORK_BOUNDS[method][name] * work, 2), (name, mine, work)
    # the dense solution passes through every step end, on a list of times
    # and one time at a time.  It meets a step end only to rounding: a step
    # end takes its own step's polynomial, BDF's of rescaled differences, on
    # the replayed rides within 0.001% of the error scale for BDF and 0.05%
    # for RK45's quartics
    scale = settings.abs_tol + settings.rel_tol * np.abs(y)
    for dense in (np.array(result.sol(result.t)), np.array([result.sol(s) for s in t]).T):
        assert (np.abs(dense - y) <= 0.02 * scale).all()
    assert result.sol(t[0] - 1.0) == result.sol(t[0])
    assert result.sol(t[-1] + 1.0) == result.sol(t[-1])


def assert_jacobian_matches_rhs(jac, rhs, t, y):
    """jac is a central difference of rhs at (t, y), entry by entry, to rel
    1e-6 of the entry or of the Jacobian's largest entry."""
    jac, rhs = as_scipy(jac, len(y)), as_scipy(rhs, len(y))
    J = jac(t, y)
    y = np.asarray(y, dtype=float)
    columns = []
    for j in range(y.size):
        h = 1e-6 * max(1.0, abs(y[j]))
        up, down = y.copy(), y.copy()
        up[j] += h
        down[j] -= h
        columns.append((np.asarray(rhs(t, up)) - np.asarray(rhs(t, down))) / (up[j] - down[j]))
    np.testing.assert_allclose(J, np.column_stack(columns), rtol=1e-6,
                               atol=1e-6 * np.abs(J).max())


def replay(monkeypatch, module, run, expected=()):
    """Run, then check every solve it made against solve_ivp by
    assert_solve_agrees; returns their methods and names.

    Each BDF solve's jac is also checked against its rhs at y0 and at the
    last step's state, which the replay cannot do: SciPy gets the same jac.
    expected: an exception type run is to raise, after its solves are made.
    """
    calls = []
    original = module.ode_solve_with_events

    def record(rhs, y0, t_span, events=(), settings=DEFAULT_SETTINGS, jac=None, breaks=(),
               name="ODE"):
        result = original(rhs, y0, t_span, events, settings, jac, breaks, name)
        calls.append((name, result, rhs, y0, t_span, events, settings, jac, breaks))
        return result
    monkeypatch.setattr(module, "ode_solve_with_events", record)
    if expected:
        with pytest.raises(expected):
            run()
    else:
        run()
    methods = []
    for name, result, rhs, *problem, jac, breaks in calls:
        assert_solve_agrees(result, rhs, *problem, jac, breaks)
        if jac is not None:
            for k in (0, -1):
                assert_jacobian_matches_rhs(jac, rhs, result.t[k], np.asarray(result.y)[:, k])
        methods.append(f"{name} {'rk45' if jac is None else 'bdf'}")
    return methods


def seeded_course(seed):
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]))
    return rng, terrain.CourseProfile.from_table(xs, rng.normal(0.0, 0.004, 9))


class TestRk45MatchesScipy:
    """The own Dormand-Prince loop agrees with SciPy's RK45 and Radau
    (assert_solve_agrees)."""

    def test_terrain_rides(self, monkeypatch):
        rng, course = seeded_course(1)
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        def run():
            for inertia in (0.02, 0.0):   # full dynamics, then quasi-steady
                terrain.simulate_breakaway(x_attack, power, course, inertia=inertia,
                                           gravity_ratio=40.0)
        # one solve per ride, each interval between the course's 7 knots (5
        # of them after the attack) replayed.  The full-dynamics peloton
        # bounds |dv'/dv| / v at 52,268 on this course
        assert replay(monkeypatch, terrain, run) == ["peloton bdf", "rider rk45",
                                                     "peloton rk45", "rider rk45"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_microstructure_solves(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        drag = DragParams()
        onset = lambda: microstructure.attack_onset(
            rng.uniform(1e-3, 1e-2), rng.uniform(3.0, 12.0), rng.uniform(3.5, 5.0),
            drag, 1.0, gamma_ratio=rng.uniform(1.0, 8.0), n_samples=65)
        # the leading-order passage layer, the full attack, the finite-inertia
        # passage layer and the relaxation
        assert replay(monkeypatch, microstructure, onset) == [
            "passage rk45", "full rk45", "passage rk45", "relaxation rk45"]

    def test_stiffness_error_text(self):
        exploding = lambda t, a, b: (a ** 3 * 1e8, 0.0)
        ref = integrate.solve_ivp(as_scipy(exploding, 1), (0.0, 10.0), [1.0], rtol=1e-8,
                                  atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))
        assert str(info.value) == f"ODE RK45: {ref.message}"

    def test_rk45_takes_at_most_two_states(self):
        rhs = lambda t, a, b: (-a, -b)
        with pytest.raises(ValueError, match="two states"):
            ode_solve_with_events(rhs, [1.0, 1.0, 1.0], (0.0, 1.0))


class TestBdfMatchesScipy:
    """The own BDF loop agrees with SciPy's BDF and Radau (assert_solve_agrees)."""

    @pytest.mark.parametrize("inertia", [4e-4, 5e-4, 6e-4])
    def test_demo_rides(self, monkeypatch, inertia):
        # both rides are stiff enough for BDF: the peloton, then the rider
        run = lambda: terrain.simulate_breakaway(0.55, 3.4, terrain.demo_profile(),
                                                 inertia=inertia, gravity_ratio=40.0)
        assert replay(monkeypatch, terrain, run) == ["peloton bdf", "rider bdf"]

    def test_table_ride(self, monkeypatch):
        rng, course = seeded_course(3)
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        run = lambda: terrain.simulate_breakaway(x_attack, power, course, inertia=5e-4,
                                                 gravity_ratio=40.0)
        # one solve per ride, each interval between the 7 knots (4 of them
        # after the attack) replayed
        assert replay(monkeypatch, terrain, run) == ["peloton bdf", "rider bdf"]

    @pytest.mark.parametrize("power, course, failure", [
        (0.0, terrain.CourseProfile.from_table([0.0, 1.0], [0.0, 0.05]), StallError),
    ])
    def test_failed_rides(self, monkeypatch, power, course, failure):
        # the powerless rider's steps collapse as dtau/dx = 1/v grows without
        # bound, so only the peloton's solve returns
        run = lambda: terrain.simulate_breakaway(0.5, power, course, inertia=5e-4,
                                                 gravity_ratio=40.0)
        assert replay(monkeypatch, terrain, run, failure) == ["peloton bdf"]

    def test_stiff_decay(self):
        rhs = lambda t, a, b: (-1e6 * (a - 1.0), 0.0)
        jac = lambda t, a, b: [[-1e6]]
        sol = ode_solve_with_events(rhs, [0.0], (0.0, 1.0), jac=jac)
        assert_solve_agrees(sol, rhs, [0.0], (0.0, 1.0), jac=jac)
        # y = 1 - exp(-1e6 t)
        exact = -np.expm1(-1e6 * np.asarray(sol.t))
        assert (np.abs(sol.y[0] - exact) <= 1e-6).all()

    def test_stiffness_error_text(self):
        exploding = lambda t, a, b: (a ** 3 * 1e8, 0.0)
        jac = lambda t, a, b: [[3e8 * a ** 2]]
        ref = integrate.solve_ivp(as_scipy(exploding, 1), (0.0, 10.0), [1.0], method="BDF",
                                  jac=as_scipy(jac, 1), rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0), jac=jac)
        assert str(info.value) == f"ODE BDF: {ref.message}"

    def test_ndf_coefficients_are_scipys(self):
        # a wrong kappa still makes a convergent method, which the ride
        # checks above can miss
        solver = integrate.BDF(lambda t, y: -y, 0.0, [1.0], 1.0)
        assert list(ode._BDF_GAMMA) == solver.gamma.tolist()
        assert list(ode._BDF_ALPHA) == solver.alpha.tolist()
        assert list(ode._BDF_ERROR_CONST) == solver.error_const.tolist()

    @pytest.mark.parametrize("n", [1, 2])
    def test_newton_solve_agrees_with_lapack(self, n):
        # the closed-form elimination against LAPACK's LU, to rounding of
        # the order of cond(A); one state is the first of two, the second 0
        rng = np.random.default_rng(n)
        for _ in range(10000):
            J = np.zeros((2, 2))
            J[:n, :n] = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 6.0), (n, n))
            c = 10.0 ** rng.uniform(-9.0, -1.0)
            b = np.zeros(2)
            b[:n] = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 0.0)
            A = np.identity(n) - c * J[:n, :n]
            expected = np.linalg.solve(A, b[:n])
            x = np.array(ode._newton_solver(c, J.ravel().tolist())(*b.tolist()))
            error = np.linalg.norm(x[:n] - expected)
            assert error <= 1e-12 * np.linalg.cond(A) * np.linalg.norm(expected)
            assert x[n:].tolist() == [0.0] * (2 - n)

    def test_singular_newton_matrix_fails_the_iteration(self, monkeypatch):
        # A = I - c J = [[1, 2], [2, 4]]: the zero pivot gives NaN, where
        # SciPy's lu_factor warns and lu_solve divides by it
        solve = ode._newton_solver(1.0, [0.0, -2.0, -2.0, -3.0])
        assert all(math.isnan(x) for x in solve(1.0, 0.5))
        # so Newton fails, and the step is retried on a fresh Jacobian: the
        # ride makes one factorization and one Jacobian more, and ends the same
        rhs = lambda t, a, b: (b, -1e4 * (b + a - 1.0))
        jac = lambda t, a, b: [[0.0, 1.0], [-1e4, -1e4]]
        clean = ode_solve_with_events(rhs, [0.0, 0.0], (0.0, 1.0), jac=jac)
        factor, calls = ode._newton_solver, []

        def singular_first(c, J):
            calls.append(c)
            # I - 1 * I is the zero matrix
            return factor(*((1.0, [1.0, 0.0, 0.0, 1.0]) if len(calls) == 1 else (c, J)))
        monkeypatch.setattr(ode, "_newton_solver", singular_first)
        retried = ode_solve_with_events(rhs, [0.0, 0.0], (0.0, 1.0), jac=jac)
        assert (retried.nlu, retried.njev) == (clean.nlu + 1, clean.njev + 1)
        assert np.asarray(retried.t).tobytes() == np.asarray(clean.t).tobytes()
        assert np.asarray(retried.y).tobytes() == np.asarray(clean.y).tobytes()

    def test_bdf_takes_at_most_two_states(self):
        rhs = lambda t, a, b: (-a, -b)
        with pytest.raises(ValueError, match="two states"):
            ode_solve_with_events(rhs, [1.0, 1.0, 1.0], (0.0, 1.0),
                                  jac=lambda t, a, b: -np.identity(3))


class TestBreaks:
    """A solve restarted at its breaks is the chained solves between them,
    bit for bit."""

    BREAKS = [1.5, 4.0, 7.25]

    @staticmethod
    def stiffness(t):
        # the spring constant jumps at each break, so rhs kinks there
        return 10.0 ** (1 + bisect.bisect_right(TestBreaks.BREAKS, t))

    def rhs(self, t, a, b):
        return b, -self.stiffness(t) * (a - 1.0) - 3.0 * b

    def jac(self, t, a, b):
        return [[0.0, 1.0], [-self.stiffness(t), -3.0]]

    @pytest.mark.parametrize("stiff", [False, True])
    def test_equals_the_chained_solves(self, stiff):
        jac = self.jac if stiff else None
        span = (0.0, 10.0)
        chained, y0 = [], [0.0, 0.0]
        for a, b in zip([span[0], *self.BREAKS], [*self.BREAKS, span[1]]):
            chained.append(ode_solve_with_events(self.rhs, y0, (a, b), jac=jac))
            y0 = [y[-1] for y in chained[-1].y]
        sol = ode_solve_with_events(self.rhs, [0.0, 0.0], span, jac=jac, breaks=self.BREAKS)
        assert sol.t == [chained[0].t[0]] + [t for part in chained for t in part.t[1:]]
        for i in (0, 1):
            assert sol.y[i] == [chained[0].y[i][0]] + [v for part in chained for v in part.y[i][1:]]
        for name in ("nfev", "njev", "nlu"):
            assert getattr(sol, name) == sum(getattr(part, name) for part in chained)
        # a time on a break takes the earlier interval's last step
        for part in chained:
            a, b = part.t[0], part.t[-1]
            for s in (a, b, *np.linspace(a, b, 7)[1:-1].tolist(), *part.t[1:-1]):
                if s > a or a == span[0]:
                    assert sol.sol(s) == part.sol(s), s
        # breaks at or outside t_span, and repeats, change nothing
        again = ode_solve_with_events(self.rhs, [0.0, 0.0], span, jac=jac,
                                      breaks=[10.0, 7.25, -1.0, 0.0, 4.0, 12.0, 1.5, 4.0])
        assert (again.t, again.y, again.nfev, again.njev, again.nlu) == (
            sol.t, sol.y, sol.nfev, sol.njev, sol.nlu)

    def test_one_budget_across_breaks(self, monkeypatch):
        spent = ode_solve_with_events(self.rhs, [0.0, 0.0], (0.0, 10.0),
                                      breaks=self.BREAKS).nfev
        # each interval takes less than the whole solve's budget
        monkeypatch.setattr(ode, "_MAX_RHS_EVALS", spent - 1)
        with pytest.raises(ToleranceError,
                           match=f"^spring RK45: solve over its budget of {spent - 1} rhs"):
            ode_solve_with_events(self.rhs, [0.0, 0.0], (0.0, 10.0), breaks=self.BREAKS,
                                  name="spring")


class TestWorkCount:
    """The loops count each rhs evaluation, and stop before one would pass
    the work budget."""

    BREAKS = TestBreaks.BREAKS

    @staticmethod
    def problem(n, stiff):
        """A counting rhs on n states, its calls, and the solve's jac."""
        calls, spring = [], TestBreaks()

        def rhs(t, a, b):
            calls.append(t)
            return spring.rhs(t, a, b) if n == 2 else (-spring.stiffness(t) * (a - 1.0), 0.0)

        def jac(t, a, b):
            return spring.jac(t, a, b) if n == 2 else [[-spring.stiffness(t)]]
        return rhs, calls, jac if stiff else None

    # one state rises past 1 - 1e-8 near t = 1.54 and the spring falls
    # through 0.99 after its overshoot near t = 1.65: both past the first break
    EVENTS = {1: ((0, 1.0 - 1e-8, 1),), 2: ((0, 0.99, -1),)}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stiff", [False, True])
    @pytest.mark.parametrize("with_event", [False, True])
    def test_nfev_counts_every_call(self, n, stiff, with_event):
        rhs, calls, jac = self.problem(n, stiff)
        events = self.EVENTS[n] if with_event else ()
        sol = ode_solve_with_events(rhs, [0.0] * n, (0.0, 10.0), events, jac=jac,
                                    breaks=self.BREAKS)
        assert sol.event == (0 if with_event else None)
        assert sol.t[-1] > self.BREAKS[0]
        assert len(calls) == sol.nfev
        assert sol.njev > 0 if stiff else (sol.njev, sol.nlu) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stiff", [False, True])
    @pytest.mark.parametrize("budget", [1, 2, 7, 333])
    def test_budget_stops_before_it_is_passed(self, monkeypatch, n, stiff, budget):
        rhs, calls, jac = self.problem(n, stiff)
        monkeypatch.setattr(ode, "_MAX_RHS_EVALS", budget)
        method = "BDF" if stiff else "RK45"
        with pytest.raises(ToleranceError) as info:
            ode_solve_with_events(rhs, [0.0] * n, (0.0, 10.0), jac=jac, breaks=self.BREAKS,
                                  name="spring")
        assert str(info.value) == f"spring {method}: solve over its budget of {budget} rhs evaluations"
        assert len(calls) <= budget


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(rel_tol=-1e-8)
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=0)
    for bad in ({"abs_tol": math.nan}, {"rel_tol": math.nan}):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            SolverSettings(**bad)
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        SolverSettings(max_iterations=math.nan)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 1.0, 1), (0.0, 1.0, 2), (0.0, 1.0, 3), (0.0, 1.0, 128), (0.0, 1.0, 256),
    (0.3, 7.1, 1), (0.3, 7.1, 2), (0.3, 7.1, 3), (0.3, 7.1, 128), (0.3, 7.1, 256),
    (-0.0, 1.0, 1),                      # numpy's 0 * (hi - lo) + lo is +0.0
    (2.5, 2.5, 5),                       # lo == hi
    (1.0, -3.0, 7), (0.9, 0.2, 256),     # lo > hi
    (0.0, 5e-324, 4), (5e-324, 2e-323, 5), (-1e-320, 1e-320, 9),  # subnormal
    (1e308, 1.7e308, 9), (-1e308, 1e308, 5), (-1e308, 1e308, 1),  # near overflow
    (0.5, 2.0, 16), (0.0, 1.0, 21), (0.3, 400.0, 24), (50, 51, 4),  # sweeps
])
def test_linspace_is_numpys_bit_for_bit(lo, hi, n):
    with np.errstate(all="ignore"):  # hi - lo overflows to inf near 1e308
        expected = np.linspace(lo, hi, n).tolist()
    points = numerics.linspace(lo, hi, n)
    assert {type(x) for x in points} <= {float}
    assert _hex(points) == _hex(expected)


def test_kernels_are_bit_deterministic():
    rng = np.random.default_rng(99)
    coeffs = rng.uniform(-2, 2, size=(50, 3))
    first = [solve_cubic_real(*c) for c in coeffs]
    second = [solve_cubic_real(*c) for c in coeffs]
    assert first == second
    f = lambda x: math.sin(3.0 * x) + 0.5 * x
    assert integrate_adaptive(f, 0.0, 2.0) == integrate_adaptive(f, 0.0, 2.0)


def test_tolerance_error_on_nasty_integrand():
    # an integrable singularity with a tight budget triggers the failure path
    settings = SolverSettings(abs_tol=1e-13, rel_tol=1e-13, max_iterations=2)
    with pytest.raises(ToleranceError):
        integrate_adaptive(lambda t: abs(t - 1.0 / 3.0) ** -0.9, 0.0, 1.0,
                           settings)
