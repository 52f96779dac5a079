"""ODE integration with terminal events: the package's own RK45 and BDF.

A Dormand-Prince 5(4) loop (Dormand & Prince 1980) ports SciPy 1.17's RK45
with the same numpy operations on the same shapes in the same order: the
same steps, evaluations, events and dense output, bit for bit, whose last
bits may differ between numpy builds (BLAS).  Stiff runs of one or two
states take SciPy's variable-order BDF (the NDF scheme of Shampine &
Reichelt 1997) on the caller's analytic Jacobian, on Python floats with its
2x2 Newton systems in closed form: no SciPy bit for bit, but bits that
follow neither numpy's CPU dispatch nor LAPACK.  Nothing here
differentiates a function; events are rooted by numerics' Brent port.
Only terrain and microstructure import this module, and with it numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np

from .numerics import (DEFAULT_SETTINGS, NumericsError, SolverSettings, StiffnessError,
                       find_root_bracketed)

__all__ = ["OdeResult", "ode_solve_with_events"]

_EPS = sys.float_info.epsilon

# Dormand-Prince 5(4) as SciPy's RK45 holds it: nodes, stage matrix, 5th-order
# weights, error weights and Shampine's (1986) quartic dense-output matrix
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_RK45_STAGES = tuple((s, _RK45_A[s, :s], _RK45_C[s]) for s in range(1, 6))
# The NDF coefficients of SciPy's BDF (Shampine & Reichelt 1997): kappa, the
# backward-difference sums gamma, alpha = (1 - kappa) gamma and the error
# constants, by order
_BDF_MAX_ORDER = 5
_BDF_NEWTON_MAXITER = 4
_BDF_KAPPA = (0.0, -0.1850, -1/9, -0.0823, -0.0415, 0.0)
_BDF_GAMMA = (0.0, *itertools.accumulate(1 / k for k in range(1, _BDF_MAX_ORDER + 1)))
_BDF_ALPHA = tuple((1 - kappa) * gamma for kappa, gamma in zip(_BDF_KAPPA, _BDF_GAMMA))
_BDF_ERROR_CONST = tuple(kappa * gamma + 1 / k for k, (kappa, gamma)
                         in enumerate(zip(_BDF_KAPPA, _BDF_GAMMA), 1))
# U[i][j]: Shampine & Reichelt's matrix R that rescales the differences, at
# factor 1; its leading (order + 1) square serves each order
_BDF_U = tuple(tuple(math.prod((k - 1 - j) / k for k in range(1, i + 1))
                     for j in range(_BDF_MAX_ORDER + 1)) for i in range(_BDF_MAX_ORDER + 1))
# SciPy locates an event with brentq at xtol = rtol = 4 eps, maxiter 100
_EVENT_SETTINGS = SolverSettings(abs_tol=4.0 * _EPS, max_iterations=100)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class OdeResult(SimpleNamespace):
    """An integration, with the fields of solve_ivp's result callers read.

    t and y: the step times and states; sol: the dense solution; t_events
    and y_events: per event, its crossing times and states; nfev: rhs
    evaluations; njev and nlu: Jacobians and Newton-matrix factorizations
    (BDF; 0 for RK45); status: 0 at the end of t_span, 1 at a terminal
    event; success is True.
    """


class _Rk45Step:
    """The quartic interpolant of one accepted step (SciPy's RkDenseOutput)."""

    __slots__ = ("t_old", "h", "Q", "y_old")

    def __init__(self, t_old, t, y_old, Q):
        self.t_old, self.h, self.y_old, self.Q = t_old, t - t_old, y_old, Q

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = self.h * np.dot(self.Q, np.cumprod(np.tile(x, 4)))
            y += self.y_old
        else:
            y = self.h * np.dot(self.Q, np.cumprod(np.tile(x, (4, 1)), axis=0))
            y += self.y_old[:, None]
        return y


class _DenseSolution:
    """Piecewise interpolant over the steps, as SciPy's OdeSolution.

    A time on a step boundary takes the earlier step for side "left" and the
    later one for "right"; times outside the steps take the first or the
    last one.
    """

    def __init__(self, ts, steps, side):
        self.ts, self.steps, self.side = ts, steps, side

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self.steps) - 1
        if t.ndim == 0:
            k = np.searchsorted(self.ts, t, side=self.side)
            return self.steps[min(max(k - 1, 0), last)](t)
        # one interpolant call per run of points in one step, in time order
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.clip(np.searchsorted(self.ts, t_sorted, side=self.side) - 1, 0, last)
        ys, start = [], 0
        for k, group in itertools.groupby(segments.tolist()):
            end = start + len(list(group))
            ys.append(self.steps[k](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]


def _rms(x):
    """SciPy's RMS norm of an error or scale vector."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, order, rtol, atol):
    """SciPy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4) for
    a method whose local error goes as h**(order + 1)."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    with np.errstate(over="ignore"):  # an overflowing norm raises below
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    if not math.isfinite(d1):
        raise NumericsError("the derivative overflows the error scale at the start")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval)


def _rk45_steps(fun, t, y, f, h_abs, t_bound, rtol, atol):
    """SciPy 1.17's RK45 steps: yields (t, y, interpolant) per accepted step."""
    K = np.empty((7, y.size))
    # views into K on the stages so far: the shapes and strides SciPy's take
    stages = [(s, K[:s].T, a, c) for s, a, c in _RK45_STAGES]
    K_stages, K_all = K[:-1].T, K.T
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(_TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            K[0] = f
            for s, K_s, a, c in stages:
                dy = np.dot(K_s, a) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K_stages, _RK45_B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K_all, _RK45_E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        yield t, y, _Rk45Step(t_old, t, y_old, K_all.dot(_RK45_P))


def _bdf_interpolant(t, h, n, D0, D1):
    """SciPy's BdfDenseOutput on floats: the polynomial of the differences
    D0, D1 at the step h ending at t; its first n states at x or an array."""
    def at(x):
        p, y0, y1 = 1.0, D0[0], D1[0]
        for j in range(1, len(D0)):
            p *= (x - (t - h * (j - 1))) / (h * j)
            y0, y1 = y0 + D0[j] * p, y1 + D1[j] * p
        return y0, y1

    def interpolant(x):
        y = np.array([at(s) for s in np.atleast_1d(x).astype(float).tolist()]).T[:n]
        return y[:, 0] if np.ndim(x) == 0 else y
    return interpolant


def _rescale_differences(D0, D1, order, factor):
    """Rescale the differences in place for the step times factor: D becomes
    U^T (R^T D), R Shampine & Reichelt's matrix at factor and U at 1."""
    m = order + 1
    R = [[1.0] * m]
    for i in range(1, m):
        R.append([r * ((i - 1 - factor * j) / i) for j, r in enumerate(R[-1])])
    for D in (D0, D1):
        E = [D[0]] * m
        for i in range(1, m):
            E = [e + r * D[i] for e, r in zip(E, R[i])]
        D[:m] = [E[0]] * m
        for j in range(1, m):
            D[:m] = [d + u * E[j] for d, u in zip(D[:m], _BDF_U[j])]


def _newton_solver(c, J):
    """b -> x with A x = b, A = I - c J for J = (j00, j01, j10, j11), by
    elimination with the partial pivoting of LAPACK's getrf.  A zero pivot
    gives NaN, so Newton fails and the step is retried, as in SciPy."""
    a00, a01, a10, a11 = 1.0 - c * J[0], -c * J[1], -c * J[2], 1.0 - c * J[3]
    swap = abs(a10) > abs(a00)
    if swap:
        a00, a01, a10, a11 = a10, a11, a00, a01
    l = a10 / a00 if a00 != 0.0 else math.nan
    u11 = a11 - l * a01
    if a00 == 0.0 or u11 == 0.0:
        a00 = u11 = math.nan

    def solve(b0, b1):
        b0, b1 = (b1, b0) if swap else (b0, b1)
        x1 = (b1 - l * b0) / u11
        return (b0 - a01 * x1) / a00, x1
    return solve


def _bdf_steps(rhs, jac, counts, t, y, f, h_abs, t_bound, rtol, atol):
    """SciPy 1.17's BDF algorithm (variable-order NDF, quasi-constant step)
    on Python floats, on the Jacobian jac(t, y): yields (t, y, interpolant)
    per accepted step, the interpolant built after the step's order and size
    update.  One state rides as the first of two, the second held at 0."""
    n = len(y)

    def jacobian(t, y0, y1):
        counts.njev += 1
        return np.pad(np.reshape(jac(t, [y0, y1][:n]), (n, n)), (0, 2 - n)).ravel().tolist()

    def norm(a, b, weight=1.0):  # the RMS norm of (a, b) weight / scale
        a, b = weight * a / scale0, weight * b / scale1
        return math.sqrt((a * a + b * b) / n)

    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    (y0, y1), (f0, f1) = ((v.tolist() + [0.0])[:2] for v in (y, f))
    J = jacobian(t, y0, y1)
    # the backward differences of each state, by order, two rows to spare
    D0, D1 = ([v, df * h_abs] + [0.0] * (_BDF_MAX_ORDER + 1) for v, df in ((y0, f0), (y1, f1)))
    order, n_equal_steps, solve = 1, 0, None
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            _rescale_differences(D0, D1, order, min_step / h_abs)
            h_abs, n_equal_steps = min_step, 0
        alpha, current_jac = _BDF_ALPHA[order], False
        while True:
            if h_abs < min_step:
                raise StiffnessError(_TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
                _rescale_differences(D0, D1, order, (t_new - t) / h_abs)
                n_equal_steps, solve = 0, None
            h_abs = t_new - t
            # the prediction and psi, the differences' part of the corrector
            p0, p1, psi0, psi1 = D0[0], D1[0], 0.0, 0.0
            for i in range(1, order + 1):
                p0, p1 = p0 + D0[i], p1 + D1[i]
                psi0, psi1 = psi0 + D0[i] * _BDF_GAMMA[i], psi1 + D1[i] * _BDF_GAMMA[i]
            psi0, psi1, c = psi0 / alpha, psi1 / alpha, h_abs / alpha
            scale0, scale1 = atol + rtol * abs(p0), atol + rtol * abs(p1)
            while True:
                if solve is None:
                    counts.nlu += 1
                    solve = _newton_solver(c, J)
                # SciPy's solve_bdf_system: Newton on the corrector from the
                # prediction, with the iteration matrix A = I - c J
                y0, y1, d0, d1, converged = p0, p1, 0.0, 0.0, False
                for k in range(_BDF_NEWTON_MAXITER):
                    counts.nfev += 1
                    f = rhs(t_new, [y0, y1][:n])
                    f0, f1 = float(f[0]), float(f[1]) if n == 2 else 0.0
                    if not (math.isfinite(f0) and math.isfinite(f1)):
                        break
                    dy0, dy1 = solve(c * f0 - psi0 - d0, c * f1 - psi1 - d1)
                    dy_norm = norm(dy0, dy1)
                    rate = dy_norm / dy_norm_old if k else None
                    if k and (rate >= 1 or rate ** (_BDF_NEWTON_MAXITER - k)
                              / (1 - rate) * dy_norm > newton_tol):
                        break
                    y0, y1, d0, d1 = y0 + dy0, y1 + dy1, d0 + dy0, d1 + dy1
                    if dy_norm == 0 or k and rate / (1 - rate) * dy_norm < newton_tol:
                        converged = True
                        break
                    dy_norm_old = dy_norm
                if converged or current_jac:
                    break
                J, solve, current_jac = jacobian(t_new, p0, p1), None, True
            if not converged:
                h_abs *= 0.5
                _rescale_differences(D0, D1, order, 0.5)
                n_equal_steps, solve = 0, None
                continue
            safety = 0.9 * (2 * _BDF_NEWTON_MAXITER + 1) / (2 * _BDF_NEWTON_MAXITER + k + 1)
            scale0, scale1 = atol + rtol * abs(y0), atol + rtol * abs(y1)
            error_norm = norm(d0, d1, _BDF_ERROR_CONST[order])
            if not error_norm > 1:  # a NaN norm accepts the step, as in SciPy
                break
            # Newton converged, so the iteration matrix is kept
            factor = max(0.2, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _rescale_differences(D0, D1, order, factor)
            n_equal_steps = 0
        n_equal_steps += 1
        t = t_new
        # D held the differences of the last polynomial and d is the
        # (order + 1)-th difference at the new point
        for D, d in ((D0, d0), (D1, d1)):
            D[order + 1], D[order + 2] = d, d - D[order + 1]
            for i in reversed(range(order + 1)):
                D[i] += D[i + 1]
        if n_equal_steps >= order + 1:
            # the order (one down, kept, one up) whose step, norm ** (-1 / k) at order
            # k - 1 >= 1, grows the most: the first on a tie or a NaN, as np.argmax
            norms = [norm(D0[order], D1[order], _BDF_ERROR_CONST[order - 1])
                     if order > 1 else math.inf, error_norm,
                     norm(D0[order + 2], D1[order + 2], _BDF_ERROR_CONST[order + 1])
                     if order < _BDF_MAX_ORDER else math.inf]
            factors = [e ** (-1 / k) if e else math.inf for k, e in enumerate(norms, order)]
            best = next((i for i, g in enumerate(factors) if g != g),
                        factors.index(max(factors)))
            order += best - 1
            factor = min(10, safety * factors[best])
            h_abs *= factor
            _rescale_differences(D0, D1, order, factor)
            n_equal_steps, solve = 0, None
        yield t, [y0, y1][:n], _bdf_interpolant(t, h_abs, n, D0[:order + 1], D1[:order + 1])


def ode_solve_with_events(rhs, y0, t_span, events=(),
                          settings: SolverSettings = DEFAULT_SETTINGS, jac=None):
    """Adaptive ODE integration with event localization, forward in time.

    Without jac, the package's own Dormand-Prince 5(4) loop, SciPy's RK45
    float for float.  Given the Jacobian jac(t, y) of rhs, its own implicit
    variable-order BDF for stiff runs of one or two states (ValueError for
    more): SciPy's algorithm but not its floats, on bits that follow neither
    numpy's dispatch nor LAPACK.  An event is a callable of (t, y); its
    optional .direction attribute (+1 rising, -1 falling, 0 either) selects
    the crossings it sees.  Events are terminal: the first crossing ends the
    integration.  The step has no cap; the result carries the dense solution
    .sol.  Raises StiffnessError when the step falls below ten ulps of t.
    """
    t0, t_bound = map(float, t_span)
    if not t_bound > t0:
        raise ValueError("t_span must increase")
    y0, events = np.atleast_1d(np.asarray(y0, dtype=float)), tuple(events)
    if jac is not None and y0.size > 2:
        raise ValueError("BDF takes one or two states")
    rtol, atol = max(settings.rel_tol, 100 * _EPS), settings.abs_tol
    counts = SimpleNamespace(nfev=0, njev=0, nlu=0)

    def fun(t, y):
        counts.nfev += 1
        return np.asarray(rhs(t, y), dtype=float)

    t, y = t0, y0
    f = fun(t, y)
    # the error order of the initial step, and the side a time on a step
    # boundary takes in the dense solution: RK45's earlier step, BDF's later
    order, side = (4, "left") if jac is None else (1, "right")
    h_abs = _initial_step(fun, t, y, f, t_bound, order, rtol, atol)
    steps = (_rk45_steps(fun, t, y, f, h_abs, t_bound, rtol, atol) if jac is None
             else _bdf_steps(rhs, jac, counts, t, y, f, h_abs, t_bound, rtol, atol))
    ts, ys, interpolants = [t], [y], []
    directions = [getattr(event, "direction", 0) for event in events]
    g = [event(t, y) for event in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    status = None
    while status is None:
        t_old = t
        t, y, step = next(steps)
        if t >= t_bound:
            status = 0
        interpolants.append(step)
        g_new = [event(t, y) for event in events]
        active = [k for k, (a, b, d) in enumerate(zip(g, g_new, directions))
                  if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)]
        if active:
            # every event is terminal: keep the earliest root (a tie, the first)
            roots = [find_root_bracketed(lambda s: events[k](s, step(s)), t_old, t,
                                         _EVENT_SETTINGS) for k in active]
            first = min(range(len(roots)), key=roots.__getitem__)
            t = roots[first]
            y = step(t)
            t_events[active[first]].append(t)
            y_events[active[first]].append(y)
            status = 1
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            interpolants.pop()
        else:
            ts.append(t)
            ys.append(y)
    ts = np.array(ts)
    return OdeResult(
        t=ts, y=np.vstack(ys).T, sol=_DenseSolution(ts, interpolants, side),
        t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events],
        nfev=counts.nfev, njev=counts.njev, nlu=counts.nlu, status=status,
        success=True)
