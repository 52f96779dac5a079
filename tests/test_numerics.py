import math

import numpy as np
import pytest
from scipy import integrate, linalg, optimize

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


def assert_solve_ivp_equal(result, rhs, y0, t_span, events=(),
                           settings=DEFAULT_SETTINGS, jac=None):
    """result is solve_ivp's run of the same problem, bit for bit: RK45, or
    BDF given the same jac."""
    terminal = []
    for event in events:
        # every event of the package's loops is terminal; solve_ivp's must be told
        def marked(t, y, event=event):
            return event(t, y)
        marked.terminal = True
        marked.direction = getattr(event, "direction", 0)
        terminal.append(marked)
    options = {"method": "RK45"} if jac is None else {"method": "BDF", "jac": jac}
    ref = integrate.solve_ivp(rhs, t_span, np.atleast_1d(np.asarray(y0, dtype=float)),
                              events=terminal or None, rtol=settings.rel_tol,
                              atol=settings.abs_tol, dense_output=True, **options)
    assert (result.nfev, result.njev, result.nlu, result.status, result.success) \
        == (ref.nfev, ref.njev, ref.nlu, ref.status, True)
    assert result.t.tobytes() == ref.t.tobytes()
    assert result.y.tobytes() == ref.y.tobytes()
    for mine, theirs in zip(result.t_events, ref.t_events or ()):
        assert mine.tobytes() == theirs.tobytes()
    for mine, theirs in zip(result.y_events, ref.y_events or ()):
        assert mine.tobytes() == theirs.tobytes()
    # step boundaries, mid-steps and a point past the last step, unsorted
    t = ref.t
    probes = np.concatenate(((t[:-1] + t[1:]) / 2, t, [t[-1] + 0.1 * (t[-1] - t[0])]))
    assert result.sol(probes).tobytes() == ref.sol(probes).tobytes()
    # one at a time: every step time (a boundary takes RK45's earlier step
    # and BDF's later one) and a sample of the mid-steps
    for x in t.tolist() + probes[:t.size - 1:max(1, t.size // 40)].tolist() + [probes[-1]]:
        assert result.sol(x).tobytes() == ref.sol(x).tobytes()


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
    """Run, then check every solve it made against solve_ivp; returns their methods.

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
        assert_solve_ivp_equal(result, *problem)
        rhs, jac = problem[0], problem[-1]
        if jac is not None:
            for k in (0, -1):
                assert_jacobian_matches_rhs(jac, rhs, result.t[k], result.y[:, k])
    return ["rk45" if problem[-1] is None else "bdf" for problem in calls]


def seeded_course(seed):
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]))
    return rng, terrain.CourseProfile.from_table(xs, rng.normal(0.0, 0.004, 9))


class TestRk45MatchesScipy:
    """The own Dormand-Prince loop is SciPy's RK45, float for float."""

    def test_terrain_rides(self, monkeypatch):
        rng, course = seeded_course(1)
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        def run():
            for inertia in (0.02, 0.0):   # full dynamics, then quasi-steady
                terrain.simulate_breakaway(x_attack, power, course, inertia=inertia,
                                           gravity_ratio=40.0, n_samples=65)
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


class TestBdfMatchesScipy:
    """The own BDF loop is SciPy's BDF, float for float, counts included."""

    @pytest.mark.parametrize("inertia", [4e-4, 5e-4, 6e-4])
    def test_demo_rides(self, monkeypatch, inertia):
        # both rides are stiff enough for BDF: the peloton, then the rider
        run = lambda: terrain.simulate_breakaway(0.55, 3.4, terrain.demo_profile(),
                                                 inertia=inertia, gravity_ratio=40.0,
                                                 n_samples=65)
        assert replay(monkeypatch, terrain, run) == ["bdf"] * 2

    def test_table_ride(self, monkeypatch):
        rng, course = seeded_course(3)
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        run = lambda: terrain.simulate_breakaway(x_attack, power, course, inertia=5e-4,
                                                 gravity_ratio=40.0, n_samples=65)
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
        assert_solve_ivp_equal(sol, rhs, [0.0], (0.0, 1.0), jac=jac)

    def test_stiffness_error_text(self):
        exploding = lambda t, y: [y[0] ** 3 * 1e8]
        jac = lambda t, y: [[3e8 * y[0] ** 2]]
        ref = integrate.solve_ivp(exploding, (0.0, 10.0), [1.0], method="BDF",
                                  jac=jac, rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0), jac=jac)
        assert str(info.value) == ref.message

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_solve_is_lapacks_lu(self, n):
        # the Newton solve is np.linalg.solve where SciPy factors and solves
        # with scipy.linalg; both must run the same LAPACK arithmetic
        rng = np.random.default_rng(n)
        for _ in range(10000):
            J = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 6.0), (n, n))
            A = np.identity(n) - 10.0 ** rng.uniform(-9.0, -1.0) * J
            b = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 0.0)
            expected = linalg.lu_solve(linalg.lu_factor(A), b)
            assert ode._lu_solve(A, b).tobytes() == expected.tobytes()

    def test_singular_newton_matrix_fails_the_iteration(self):
        # SciPy warns and divides by the zero pivot; either way no finite
        # Newton update comes out, so the step is retried
        A, b = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.5])
        with pytest.warns(linalg.LinAlgWarning):
            expected = linalg.lu_solve(linalg.lu_factor(A), b)
        assert not np.isfinite(expected).all()
        assert np.isnan(ode._lu_solve(A, b)).all()


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
