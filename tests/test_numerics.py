import math

import numpy as np
import pytest
from scipy import integrate, optimize

import breakaway.microstructure as microstructure
import breakaway.terrain as terrain
from breakaway.model import DragParams, ScaleSet
from breakaway.numerics import (
    DEFAULT_SETTINGS,
    BracketError,
    SolverSettings,
    StiffnessError,
    ToleranceError,
    find_root_bracketed,
    integrate_adaptive,
    minimize_scalar,
    ode_solve_with_events,
    solve_cubic_real,
)


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
        hit.terminal = True
        sol = ode_solve_with_events(lambda t, y: [1.0], [0.0], (0.0, 5.0),
                                    events=(hit,))
        assert sol.t_events[0][0] == pytest.approx(1.0, abs=1e-10)

    def test_decay_event(self):
        def hit(t, y):
            return y[0] - math.exp(-1.0)
        hit.terminal = True
        sol = ode_solve_with_events(lambda t, y: [-y[0]], [1.0], (0.0, 5.0),
                                    events=(hit,))
        assert sol.t_events[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_observed_order_at_least_four(self):
        # force near-fixed steps with loose tolerances and a max_step cap
        def run(h):
            settings = SolverSettings(abs_tol=1e6, rel_tol=1e6)
            sol = ode_solve_with_events(lambda t, y: [y[0]], [1.0], (0.0, 1.0),
                                        settings=settings, max_step=h,
                                        dense_output=False)
            return abs(sol.y[0][-1] - math.e)

    # halving the step should cut the error by at least 2^4
        e1, e2 = run(0.1), run(0.05)
        order = math.log2(e1 / e2)
        assert order >= 4.0

    def test_bad_method(self):
        with pytest.raises(ValueError):
            ode_solve_with_events(lambda t, y: [0.0], [0.0], (0.0, 1.0),
                                  method="euler")

    def test_integrator_failure_raises(self):
        def exploding(t, y):
            return [y[0] ** 3 * 1e8]
        with pytest.raises(StiffnessError):
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))

    def test_bdf_mode_handles_stiff_decay(self):
        sol = ode_solve_with_events(lambda t, y: [-1e6 * (y[0] - 1.0)], [0.0],
                                    (0.0, 1.0), method="bdf")
        assert sol.y[0][-1] == pytest.approx(1.0, abs=1e-6)


def assert_solve_ivp_equal(result, rhs, y0, t_span, events=(),
                           settings=DEFAULT_SETTINGS, max_step=math.inf):
    """result is solve_ivp's RK45 run of the same problem, bit for bit."""
    ref = integrate.solve_ivp(rhs, t_span, np.atleast_1d(np.asarray(y0, dtype=float)),
                              method="RK45", events=list(events) or None,
                              rtol=settings.rel_tol, atol=settings.abs_tol,
                              dense_output=True, max_step=max_step)
    assert (result.nfev, result.status, result.success) == (ref.nfev, ref.status, True)
    assert (result.njev, result.nlu) == (0, 0)
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
    for x in probes[::max(1, probes.size // 40)].tolist() + [t[0], t[-1], probes[-1]]:
        assert result.sol(x).tobytes() == ref.sol(x).tobytes()
    return ref


class TestRk45MatchesScipy:
    """The own Dormand-Prince loop is SciPy's RK45, float for float."""

    @staticmethod
    def replay(monkeypatch, module, run):
        """Run, then check every RK45 solve it made against solve_ivp."""
        calls = []
        original = module.ode_solve_with_events

        def record(rhs, y0, t_span, events=(), settings=DEFAULT_SETTINGS,
                   method="rk45"):
            result = original(rhs, y0, t_span, events, settings, method)
            calls.append((result, rhs, y0, t_span, events, settings))
            return result
        monkeypatch.setattr(module, "ode_solve_with_events", record)
        run()
        for result, *problem in calls:
            assert_solve_ivp_equal(result, *problem)
        return len(calls)

    def test_terrain_rides(self, monkeypatch):
        rng = np.random.default_rng(1)
        xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]))
        course = terrain.CourseProfile.from_table(xs, rng.normal(0.0, 0.004, 9))
        x_attack, power = rng.uniform(0.3, 0.7), rng.uniform(3.0, 4.0)
        scales = ScaleSet(inertia=0.02, gravity_ratio=40.0)

        def run():
            for quasi_steady in (False, True):
                terrain.simulate_breakaway(x_attack, power, course, scales,
                                           quasi_steady=quasi_steady, n_samples=65)
        assert self.replay(monkeypatch, terrain, run) == 4

    @pytest.mark.parametrize("seed", [1, 2])
    def test_microstructure_solves(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        drag = DragParams()
        onset = lambda: microstructure.attack_onset(
            rng.uniform(1e-3, 1e-2), rng.uniform(3.0, 12.0), rng.uniform(3.5, 5.0),
            drag, 1.0, gamma_ratio=rng.uniform(1.0, 8.0), n_samples=65)
        # the passage layer twice (leading order, finite inertia), the full
        # attack and the relaxation
        assert self.replay(monkeypatch, microstructure, onset) == 4

    def test_max_step(self):
        def ground(t, y):
            return y[0]
        ground.terminal = True
        ground.direction = -1.0
        rhs = lambda t, y: [y[1], -y[0] - 0.1 * y[1]]
        result = ode_solve_with_events(rhs, [1.0, 0.0], (0.0, 20.0), events=(ground,),
                                       max_step=0.05)
        ref = assert_solve_ivp_equal(result, rhs, [1.0, 0.0], (0.0, 20.0),
                                     events=(ground,), max_step=0.05)
        assert np.max(np.diff(ref.t)) < 0.05 + 1e-15 and ref.status == 1

    def test_stiffness_error_text(self):
        exploding = lambda t, y: [y[0] ** 3 * 1e8]
        ref = integrate.solve_ivp(exploding, (0.0, 10.0), [1.0], rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(StiffnessError) as info:
            ode_solve_with_events(exploding, [1.0], (0.0, 10.0))
        assert str(info.value) == ref.message + " (consider method='bdf')"


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
