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
    RiderNeverFinishesError,
    SolverSettings,
    StallError,
    StiffnessError,
    ToleranceError,
    find_root_bracketed,
    integrate_adaptive,
    minimize_scalar,
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
        def hit(t, y):
            return y[0] - 1.0
        sol = ode_solve_with_events(lambda t, y: [1.0], [0.0], (0.0, 5.0),
                                    events=(hit,))
        assert sol.t_events[0][0] == pytest.approx(1.0, abs=1e-10)

    def test_decay_event(self):
        def hit(t, y):
            return y[0] - math.exp(-1.0)
        sol = ode_solve_with_events(lambda t, y: [-y[0]], [1.0], (0.0, 5.0),
                                    events=(hit,))
        assert sol.t_events[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_observed_order_at_least_four(self):
        # one step over (0, h): halving h should cut its error by at least 2^4
        def run(h):
            settings = SolverSettings(abs_tol=1e-3, rel_tol=1e-3)
            sol = ode_solve_with_events(lambda t, y: [y[0]], [1.0], (0.0, h),
                                        settings=settings)
            assert len(sol.t) == 2
            return abs(sol.y[0][-1] - math.exp(h))

        e1, e2 = run(0.1), run(0.05)
        order = math.log2(e1 / e2)
        assert order >= 4.0

    def test_integrator_failure_raises(self):
        def exploding(t, y):
            return [y[0] ** 3 * 1e8]
        with pytest.raises(StiffnessError):
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))

    def test_bdf_mode_handles_stiff_decay(self):
        sol = ode_solve_with_events(lambda t, y: [-1e6 * (y[0] - 1.0)], [0.0],
                                    (0.0, 1.0), jac=lambda t, y: [[-1e6]])
        assert sol.y[0][-1] == pytest.approx(1.0, abs=1e-6)


def terminal_events(events):
    """The events for solve_ivp: every event of the package's loops is
    terminal, and solve_ivp's must be told."""
    terminal = []
    for event in events:
        def marked(t, y, event=event):
            return event(t, y)
        marked.terminal = True
        marked.direction = getattr(event, "direction", 0)
        terminal.append(marked)
    return terminal or None


# Work-count bounds against SciPy's run of the same method.  Each loop runs
# SciPy's algorithm, but a last-bit difference flips a step decision now and
# then, and the counts drift apart from there.  BDF: SciPy against itself
# under numpy's second SIMD dispatch, on 40 rides over 20 random table
# courses at inertia 3e-4 to 8e-4, moved nfev by up to 2.7%, steps 2.0%,
# njev 24% and nlu 10%; the own loop against SciPy, on the same rides, 3.2%,
# 1.9%, 17% and 9.6%.  RK45: the own loop takes SciPy's steps on the demo
# rides and the microstructure solves, and on the seeded table course of
# TestRk45MatchesScipy::test_terrain_rides its steps differ by up to 2.4%
# and its nfev by 0.7% (both loops step across the PCHIP kinks).  Each bound
# also allows 2 counts, for the few Jacobians of a short ride.
WORK_BOUNDS = {"RK45": {"nfev": 0.03, "steps": 0.03, "njev": 0.0, "nlu": 0.0},
               "BDF": {"nfev": 0.04, "steps": 0.04, "njev": 0.25, "nlu": 0.25}}


def assert_solve_agrees(result, rhs, y0, t_span, events=(), settings=DEFAULT_SETTINGS,
                        jac=None):
    """result, the own loop's solve, against solve_ivp's run of the same
    method (RK45 without jac, BDF with it) and its Radau at rtol 1e-13: the
    same status and terminal event, the end and event times to rel 1e-9, the
    work within WORK_BOUNDS, and the dense solution through every step end
    and held beyond the first and the last."""
    method = "RK45" if jac is None else "BDF"
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    given = {} if jac is None else {"jac": jac}
    same = integrate.solve_ivp(rhs, t_span, y0, method=method, rtol=settings.rel_tol,
                               atol=settings.abs_tol, events=terminal_events(events), **given)
    radau = integrate.solve_ivp(rhs, t_span, y0, method="Radau", rtol=1e-13,
                                atol=settings.abs_tol, events=terminal_events(events), **given)
    t, y = np.asarray(result.t), np.asarray(result.y)
    t_events = [np.asarray(te) for te in result.t_events]
    for ref in (same, radau):
        assert (result.status, result.success) == (ref.status, True)
        assert [te.size for te in t_events] == [te.size for te in ref.t_events or ()]
        assert t[-1] == pytest.approx(ref.t[-1], rel=1e-9, abs=0.0)
        for mine, theirs in zip(t_events, ref.t_events or ()):
            np.testing.assert_allclose(mine, theirs, rtol=1e-9, atol=0.0)
    counts = {"nfev": (result.nfev, same.nfev), "steps": (t.size, same.t.size),
              "njev": (result.njev, same.njev), "nlu": (result.nlu, same.nlu)}
    for name, (mine, theirs) in counts.items():
        bound = max(WORK_BOUNDS[method][name] * theirs, 2)
        assert abs(mine - theirs) <= bound, (name, mine, theirs)
    # the dense solution passes through every step end, on a list of times
    # and one time at a time.  It meets a step end only to rounding: a BDF
    # step end takes the next step's polynomial, of rescaled differences, at
    # most 0.6% of the error scale on the rides of WORK_BOUNDS, SciPy's too;
    # RK45's quartics end within 0.05% of it on the solves above
    scale = settings.abs_tol + settings.rel_tol * np.abs(y)
    for dense in (np.array(result.sol(result.t)), np.array([result.sol(s) for s in t]).T):
        assert (np.abs(dense - y) <= 0.02 * scale).all()
    assert result.sol(t[0] - 1.0) == result.sol(t[0])
    assert result.sol(t[-1] + 1.0) == result.sol(t[-1])


def assert_jacobian_matches_rhs(jac, rhs, t, y):
    """jac(t, y) is a central difference of rhs, entry by entry, to rel 1e-6
    of the entry or of the Jacobian's largest entry."""
    J = np.asarray(jac(t, y), dtype=float)
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
    assert_solve_agrees; returns their methods.

    Each BDF solve's jac is also checked against its rhs at y0 and at the
    last step's state, which the replay cannot do: SciPy gets the same jac.
    expected: an exception type run is to raise, after its solves are made.
    """
    calls = []
    original = module.ode_solve_with_events

    def record(rhs, y0, t_span, events=(), settings=DEFAULT_SETTINGS, jac=None):
        result = original(rhs, y0, t_span, events, settings, jac)
        calls.append((result, rhs, y0, t_span, events, settings, jac))
        return result
    monkeypatch.setattr(module, "ode_solve_with_events", record)
    if expected:
        with pytest.raises(expected):
            run()
    else:
        run()
    for result, *problem in calls:
        assert_solve_agrees(result, *problem)
        rhs, jac = problem[0], problem[-1]
        if jac is not None:
            for k in (0, -1):
                assert_jacobian_matches_rhs(jac, rhs, result.t[k], np.asarray(result.y)[:, k])
    return ["rk45" if problem[-1] is None else "bdf" for problem in calls]


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
        # the full-dynamics peloton bounds |dv'/dv| at 5,153 on this course
        assert replay(monkeypatch, terrain, run) == ["bdf"] + ["rk45"] * 3

    @pytest.mark.parametrize("seed", [1, 2])
    def test_microstructure_solves(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        drag = DragParams()
        onset = lambda: microstructure.attack_onset(
            rng.uniform(1e-3, 1e-2), rng.uniform(3.0, 12.0), rng.uniform(3.5, 5.0),
            drag, 1.0, gamma_ratio=rng.uniform(1.0, 8.0), n_samples=65)
        # the passage layer twice (leading order, finite inertia), the full
        # attack and the relaxation
        assert replay(monkeypatch, microstructure, onset) == ["rk45"] * 4

    def test_stiffness_error_text(self):
        exploding = lambda t, y: [y[0] ** 3 * 1e8]
        ref = integrate.solve_ivp(exploding, (0.0, 10.0), [1.0], rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))
        assert str(info.value) == ref.message

    def test_rk45_takes_at_most_two_states(self):
        rhs = lambda t, y: [-y[0], -y[1], -y[2]]
        with pytest.raises(ValueError, match="two states"):
            ode_solve_with_events(rhs, [1.0, 1.0, 1.0], (0.0, 1.0))


class TestBdfMatchesScipy:
    """The own BDF loop agrees with SciPy's BDF and Radau (assert_solve_agrees)."""

    @pytest.mark.parametrize("inertia", [4e-4, 5e-4, 6e-4])
    def test_demo_rides(self, monkeypatch, inertia):
        # both rides are stiff enough for BDF: the peloton, then the rider
        run = lambda: terrain.simulate_breakaway(0.55, 3.4, terrain.demo_profile(),
                                                 inertia=inertia, gravity_ratio=40.0)
        assert replay(monkeypatch, terrain, run) == ["bdf"] * 2

    def test_table_ride(self, monkeypatch):
        rng, course = seeded_course(3)
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        run = lambda: terrain.simulate_breakaway(x_attack, power, course, inertia=5e-4,
                                                 gravity_ratio=40.0)
        assert replay(monkeypatch, terrain, run) == ["bdf"] * 2

    @pytest.mark.parametrize("power, course, failure", [
        # the crawl runs to the end of t_span; the powerless climb stalls
        (1e-6, terrain.CourseProfile.flat(), RiderNeverFinishesError),
        (0.0, terrain.CourseProfile.from_table([0.0, 1.0], [0.0, 0.05]), StallError),
    ])
    def test_failed_rides(self, monkeypatch, power, course, failure):
        # the crawl, at speed 0.009 on the flat, is stiff only at tiny inertia
        inertia = 1e-6 if failure is RiderNeverFinishesError else 5e-4
        run = lambda: terrain.simulate_breakaway(0.5, power, course, inertia=inertia,
                                                 gravity_ratio=40.0)
        assert replay(monkeypatch, terrain, run, failure) == ["bdf"] * 2

    def test_stiff_decay(self):
        rhs = lambda t, y: [-1e6 * (y[0] - 1.0)]
        jac = lambda t, y: [[-1e6]]
        sol = ode_solve_with_events(rhs, [0.0], (0.0, 1.0), jac=jac)
        assert_solve_agrees(sol, rhs, [0.0], (0.0, 1.0), jac=jac)
        # y = 1 - exp(-1e6 t)
        exact = -np.expm1(-1e6 * np.asarray(sol.t))
        assert (np.abs(sol.y[0] - exact) <= 1e-6).all()

    def test_stiffness_error_text(self):
        exploding = lambda t, y: [y[0] ** 3 * 1e8]
        jac = lambda t, y: [[3e8 * y[0] ** 2]]
        ref = integrate.solve_ivp(exploding, (0.0, 10.0), [1.0], method="BDF",
                                  jac=jac, rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0), jac=jac)
        assert str(info.value) == ref.message

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
        rhs = lambda t, y: [y[1], -1e4 * (y[1] + y[0] - 1.0)]
        jac = lambda t, y: [[0.0, 1.0], [-1e4, -1e4]]
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
        rhs = lambda t, y: [-y[0], -y[1], -y[2]]
        with pytest.raises(ValueError, match="two states"):
            ode_solve_with_events(rhs, [1.0, 1.0, 1.0], (0.0, 1.0),
                                  jac=lambda t, y: -np.identity(3))


class TestMinimizeScalar:
    def test_parabola(self):
        x, fx = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_constant_ties_to_lo(self):
        x, fx = minimize_scalar(lambda x: 2.5, 0.2, 0.9)
        assert x == 0.2
        assert fx == 2.5

    def test_kinked_function(self):
        x, _ = minimize_scalar(lambda x: abs(x - 0.4), 0.0, 1.0)
        assert x == pytest.approx(0.4, abs=1e-8)

    def test_derivative_refinement_reaches_rounding_level(self):
        # value-only golden section stops near sqrt(eps); the root of the
        # derivative does not
        f = lambda x: math.cosh(x - 0.3) - 0.2 * x
        df = lambda x: math.sinh(x - 0.3) - 0.2
        exact = 0.3 + math.asinh(0.2)
        settings = SolverSettings(abs_tol=1e-15)
        x, fx = minimize_scalar(f, 0.0, 1.0, settings, df=df)
        assert x == pytest.approx(exact, abs=1e-15)
        assert fx == f(x)

    def test_derivative_keeps_grid_ends_exact(self):
        x, fx = minimize_scalar(lambda x: x * x, 0.25, 1.0, df=lambda x: 2.0 * x)
        assert (x, fx) == (0.25, 0.0625)
        x, _ = minimize_scalar(lambda x: -x, 0.0, 0.7, df=lambda x: -1.0)
        assert x == 0.7

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 1.0, 0.0)

    def test_grid_points_are_floats(self):
        seen = []
        minimize_scalar(lambda x: seen.append(x) or (x - 0.3) ** 2, 0.0, 1.0)
        assert {type(x) for x in seen} == {float}

    def test_first_nan_wins_as_in_argmin(self):
        # a smaller value comes first, but np.argmin picks the first NaN
        f = lambda x: math.nan if x >= 0.5 else (x - 0.2) ** 2
        xs = numerics.linspace(0.0, 1.0, 11)
        assert int(np.argmin([f(x) for x in xs])) == 5
        x, fx = minimize_scalar(f, 0.0, 1.0, grid_points=11)
        assert x == xs[5] == 0.5
        assert math.isnan(fx)


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
    assert minimize_scalar(f, 0.0, 2.0) == minimize_scalar(f, 0.0, 2.0)
    assert integrate_adaptive(f, 0.0, 2.0) == integrate_adaptive(f, 0.0, 2.0)


def test_tolerance_error_on_nasty_integrand():
    # an integrable singularity with a tight budget triggers the failure path
    settings = SolverSettings(abs_tol=1e-13, rel_tol=1e-13, max_iterations=2)
    with pytest.raises(ToleranceError):
        integrate_adaptive(lambda t: abs(t - 1.0 / 3.0) ** -0.9, 0.0, 1.0,
                           settings)
