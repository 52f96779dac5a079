"""ODE integration with terminal events: the package's own RK45 and BDF.

Both run SciPy 1.17's algorithms on Python floats, for one or two states; a
single state rides as the first of two, the second held at 0: the loops
call rhs(t, a, b) on the states' floats for the pair of their rates, b and
its rate 0.0 for one state.  Without a Jacobian, Dormand-Prince 5(4)
(Dormand & Prince 1980) with SciPy's step control (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.4-II.6) and Shampine's (1986) quartic
dense output.  Stiff runs take SciPy's
variable-order BDF (the NDF scheme of Shampine & Reichelt 1997) on the
caller's analytic Jacobian, its 2x2 Newton systems in closed form.  Neither
is SciPy float for float, and this module imports no numpy, so no bit
follows numpy's CPU dispatch, a BLAS kernel or LAPACK.  Nothing here
differentiates a function; events are rooted by numerics' Brent port.  A
solve restarts at the known kinks of its right-hand side (Hairer, Norsett &
Wanner, sec. II.6), one work budget and one dense solution across them.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import sys
from types import SimpleNamespace

from .numerics import (DEFAULT_SETTINGS, NumericsError, SolverSettings, StiffnessError,
                       ToleranceError, find_root_bracketed)

__all__ = ["OdeResult", "ode_solve_with_events"]

_EPS = sys.float_info.epsilon

# Dormand-Prince 5(4) as SciPy's RK45 holds it: the nodes of stages 1-4
# (stage 5's is 1), the rows of stages 1-5, the 5th-order and the error
# weights without stage 1's zeros, and columns 2-4 of Shampine's (1986)
# quartic dense-output matrix without its zero row (column 1 is (1, 0, ...))
_DP_C = (1/5, 3/10, 4/5, 8/9)
_DP_A = ((1/5,), (3/40, 9/40), (44/45, -56/15, 32/9),
         (19372/6561, -25360/2187, 64448/6561, -212/729),
         (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_DP_B = (35/384, 500/1113, 125/192, -2187/6784, 11/84)
_DP_E = (-71/57600, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_DP_P = ((-8048581381/2820520608, 131558114200/32700410799, -1754552775/470086768,
          127303824393/49829197408, -282668133/205662961, 40617522/29380423),
         (8663915743/2820520608, -68118460800/10900136933, 14199869525/1410260304,
          -318862633887/49829197408, 2019193451/616988883, -110615467/29380423),
         (-12715105075/11282082432, 87487479700/32700410799, -10690763975/1880347072,
          701980252875/199316789632, -1453857185/822651844, 69997945/29380423))
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
_MAX_RHS_EVALS = 1_000_000  # rhs evaluations per solve, so no stiff run goes unbounded


class _Work(SimpleNamespace):
    """A solve's label and its work, counted as OdeResult counts it."""

    def spend(self, k):
        """Count k rhs evaluations to be made; ToleranceError past _MAX_RHS_EVALS."""
        if self.nfev + k > _MAX_RHS_EVALS:
            raise ToleranceError(f"{self.label}: solve over its budget of {_MAX_RHS_EVALS} "
                                 "rhs evaluations")
        self.nfev += k


class OdeResult(SimpleNamespace):
    """An integration, in lists of floats.

    t and y: the step times and, per state, its values; sol: the dense
    solution; event: the index of the event that ended the solve, at time
    t[-1] and state y[i][-1], or None at the end of t_span; nfev: rhs
    evaluations; njev and nlu: Jacobians and Newton-matrix factorizations
    (BDF; 0 for RK45).
    """


class _DenseSolution:
    """The steps' piecewise polynomial.  Step k spans ts[k] to ts[k + 1], its
    row is the width doubles of data from k * width, and at(row, t) evaluates
    it.  Times are held in [ts[0], ts[-1]]; one on a step boundary takes the
    earlier step (bisect_left).  A float t gives a tuple of the n states, a
    sequence of times one list per state.
    """

    __slots__ = ("ts", "data", "width", "at", "n")

    def __init__(self, ts, data, width, at, n):
        self.ts, self.data, self.width, self.at, self.n = ts, data, width, at, n

    def __call__(self, t):
        if isinstance(t, (int, float)):
            return self._state(t)[:self.n]
        states = [self._state(s) for s in t]
        return [[y[i] for y in states] for i in range(self.n)]

    def _state(self, t):
        ts, width = self.ts, self.width
        t = min(max(t, ts[0]), ts[-1])
        k = min(max(bisect.bisect_left(ts, t) - 1, 0), len(ts) - 2) * width
        return self.at(self.data[k:k + width], t)


def _norm(a, b, n):
    """SciPy's RMS norm of the n-vector (a, b)[:n], b 0 when n is 1."""
    return math.sqrt((a * a + b * b) / n)


def _initial_step(rhs, t0, y0, y1, f0, f1, t_bound, order, rtol, atol, n):
    """SciPy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4) for
    a method whose local error goes as h**(order + 1); NaN when the
    derivative overflows the error scale."""
    interval = t_bound - t0
    scale0, scale1 = atol + abs(y0) * rtol, atol + abs(y1) * rtol
    d0, d1 = _norm(y0 / scale0, y1 / scale1, n), _norm(f0 / scale0, f1 / scale1, n)
    if not math.isfinite(d1):
        return math.nan
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    g0, g1 = rhs(t0 + h0, y0 + h0 * f0, y1 + h0 * f1)
    d2 = _norm((g0 - f0) / scale0, (g1 - f1) / scale1, n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval)


def _rk45_steps(rhs, work, t, ya, yb, fa, fb, h_abs, t_bound, rtol, atol, n):
    """SciPy 1.17's RK45 algorithm on the floats of states a and b: yields
    (t, ya, yb, row) per accepted step, row the step's start time and size,
    then per state its start value and its row Q of the dense quartic; each
    attempt spends six rhs evaluations.  Returns at a step under ten ulps."""
    c1, c2, c3, c4 = _DP_C
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54) = _DP_A
    b0, b2, b3, b4, b5 = _DP_B
    e0, e2, e3, e4, e5, e6 = _DP_E
    (p10, p12, p13, p14, p15, p16), (p20, p22, p23, p24, p25, p26), \
        (p30, p32, p33, p34, p35, p36) = _DP_P
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            work.spend(6)
            # kNa and kNb: stage N of states a and b, each at its state plus
            # h times the weighted sum of its earlier stages
            k1a, k1b = rhs(t + c1 * h, ya + fa * a10 * h, yb + fb * a10 * h)
            k2a, k2b = rhs(t + c2 * h, ya + (fa * a20 + k1a * a21) * h,
                           yb + (fb * a20 + k1b * a21) * h)
            k3a, k3b = rhs(t + c3 * h, ya + (fa * a30 + k1a * a31 + k2a * a32) * h,
                           yb + (fb * a30 + k1b * a31 + k2b * a32) * h)
            k4a, k4b = rhs(t + c4 * h,
                           ya + (fa * a40 + k1a * a41 + k2a * a42 + k3a * a43) * h,
                           yb + (fb * a40 + k1b * a41 + k2b * a42 + k3b * a43) * h)
            k5a, k5b = rhs(t + h,
                           ya + (fa * a50 + k1a * a51 + k2a * a52 + k3a * a53 + k4a * a54) * h,
                           yb + (fb * a50 + k1b * a51 + k2b * a52 + k3b * a53 + k4b * a54) * h)
            za = ya + h * (fa * b0 + k2a * b2 + k3a * b3 + k4a * b4 + k5a * b5)
            zb = yb + h * (fb * b0 + k2b * b2 + k3b * b3 + k4b * b4 + k5b * b5)
            ga, gb = rhs(t + h, za, zb)
            ea = ((fa * e0 + k2a * e2 + k3a * e3 + k4a * e4 + k5a * e5 + ga * e6) * h
                  / (atol + max(abs(ya), abs(za)) * rtol))
            eb = ((fb * e0 + k2b * e2 + k3b * e3 + k4b * e4 + k5b * e5 + gb * e6) * h
                  / (atol + max(abs(yb), abs(zb)) * rtol))
            error_norm = math.sqrt((ea * ea + eb * eb) / n)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        row = (t, h, ya, fa, fa * p10 + k2a * p12 + k3a * p13 + k4a * p14 + k5a * p15 + ga * p16,
               fa * p20 + k2a * p22 + k3a * p23 + k4a * p24 + k5a * p25 + ga * p26,
               fa * p30 + k2a * p32 + k3a * p33 + k4a * p34 + k5a * p35 + ga * p36,
               yb, fb, fb * p10 + k2b * p12 + k3b * p13 + k4b * p14 + k5b * p15 + gb * p16,
               fb * p20 + k2b * p22 + k3b * p23 + k4b * p24 + k5b * p25 + gb * p26,
               fb * p30 + k2b * p32 + k3b * p33 + k4b * p34 + k5b * p35 + gb * p36)
        t, ya, yb, fa, fb = t_new, za, zb, ga, gb
        yield t, ya, yb, row


def _rk45_at(row, s):
    """A step's quartic at s, by Horner: its start value plus h (Q0 x + Q1
    x^2 + Q2 x^3 + Q3 x^4) at x = (s - t) / h, per state."""
    t, h, ya, a0, a1, a2, a3, yb, b0, b1, b2, b3 = row
    x = (s - t) / h
    return (ya + h * (x * (a0 + x * (a1 + x * (a2 + x * a3)))),
            yb + h * (x * (b0 + x * (b1 + x * (b2 + x * b3)))))


def _bdf_at(row, s):
    """SciPy's BdfDenseOutput on floats at s: row is (t, h, D0, D1), the
    six differences of each state, zero past the order, of the polynomial of
    the step h ending at t."""
    t, h = row[0], row[1]
    p, y0, y1 = 1.0, row[2], row[8]
    for j in range(1, _BDF_MAX_ORDER + 1):
        p *= (s - (t - h * (j - 1))) / (h * j)
        y0, y1 = y0 + row[2 + j] * p, y1 + row[8 + j] * p
    return y0, y1


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


def _bdf_steps(rhs, jac, work, t, y0, y1, f0, f1, h_abs, t_bound, rtol, atol, n):
    """SciPy 1.17's BDF algorithm (variable-order NDF, quasi-constant step)
    on Python floats and jac: yields (t, y0, y1, row) per accepted step, row
    the _bdf_at polynomial after the step's order and size update; a Newton
    iteration spends one rhs evaluation.  Returns at a step under ten ulps."""
    def jacobian(t, y0, y1):
        work.njev += 1
        J = jac(t, y0, y1)
        return [float(J[i][j]) if i < n and j < n else 0.0 for i in (0, 1) for j in (0, 1)]

    def norm(a, b, weight):  # the RMS norm of (a, b) weight / scale
        return _norm(weight * a / scale0, weight * b / scale1, n)

    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
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
                return
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
                    work.nlu += 1
                    solve = _newton_solver(c, J)
                # SciPy's solve_bdf_system: Newton on the corrector from the
                # prediction, with the iteration matrix A = I - c J
                y0, y1, d0, d1, converged = p0, p1, 0.0, 0.0, False
                for k in range(_BDF_NEWTON_MAXITER):
                    work.spend(1)
                    f0, f1 = rhs(t_new, y0, y1)
                    if not (math.isfinite(f0) and math.isfinite(f1)):
                        break
                    dy0, dy1 = solve(c * f0 - psi0 - d0, c * f1 - psi1 - d1)
                    r0, r1 = dy0 / scale0, dy1 / scale1  # norm(dy0, dy1), inline
                    dy_norm = math.sqrt((r0 * r0 + r1 * r1) / n)
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
            # k - 1 >= 1, grows the most: the first on a tie or a NaN, as numpy's argmax
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
        pad = [0.0] * (_BDF_MAX_ORDER - order)
        yield t, y0, y1, (t, h_abs, *D0[:order + 1], *pad, *D1[:order + 1], *pad)


def ode_solve_with_events(rhs, y0, t_span, events=(),
                          settings: SolverSettings = DEFAULT_SETTINGS, jac=None,
                          breaks=(), name="ODE"):
    """Adaptive ODE integration of one or two states (ValueError for more)
    with event localization, forward in time.

    rhs(t, a, b) returns the pair of floats (da/dt, db/dt); for one state b
    and db/dt are 0.0.  Without jac, the package's own Dormand-Prince 5(4)
    loop: SciPy's RK45 algorithm, not its floats.  Given the Jacobian
    jac(t, a, b) of rhs as rows, its own implicit variable-order BDF for
    stiff runs, likewise SciPy's algorithm.
    An event is a tuple (i, level, direction): state i crosses level, rising
    for direction +1, falling for -1, either way for 0.  Events are
    terminal: the first crossing ends the integration.  At each of the
    breaks, the times where rhs may kink, the solve restarts as a fresh solve
    from there would (BDF at order 1 on a fresh Jacobian).  The step has no
    cap; the result carries the dense solution .sol.  Failures name the solve
    and its method: StiffnessError when the step falls below ten ulps of t,
    ToleranceError before an rhs evaluation would take the whole solve past
    _MAX_RHS_EVALS.
    """
    t0, t_bound = map(float, t_span)
    if not t_bound > t0:
        raise ValueError("t_span must increase")
    n, events = len(y0), tuple(events)
    if not 1 <= n <= 2:
        raise ValueError("the ODE loops take one or two states")
    rtol, atol = max(settings.rel_tol, 100 * _EPS), settings.abs_tol
    work = _Work(label=f"{name} {'RK45' if jac is None else 'BDF'}", nfev=0, njev=0, nlu=0)
    # the initial step's error order, RK45's 4 or BDF's 1, and the dense rows' width
    order, width, at = (4, 12, _rk45_at) if jac is None else (1, 2 * _BDF_MAX_ORDER + 4, _bdf_at)
    t, (ya, yb) = t0, [float(v) for v in y0] + [0.0] * (2 - n)
    ts, ys, data = [t], ([ya], [yb]), array.array("d")
    g, event = [(ya, yb)[i] - level for i, level, _ in events], None
    for end in sorted({b for b in map(float, breaks) if t0 < b < t_bound}) + [t_bound]:
        work.spend(2)  # this evaluation and _initial_step's
        fa, fb = rhs(t, ya, yb)
        h_abs = _initial_step(rhs, t, ya, yb, fa, fb, end, order, rtol, atol, n)
        if math.isnan(h_abs):
            raise NumericsError(f"{work.label}: the derivative overflows the error scale "
                                f"at t = {t!r}")
        args = (t, ya, yb, fa, fb, h_abs, end, rtol, atol, n)
        steps = _rk45_steps(rhs, work, *args) if jac is None else _bdf_steps(rhs, jac, work, *args)
        while event is None and t < end:
            t_old = t
            step = next(steps, None)
            if step is None:
                raise StiffnessError(f"{work.label}: {_TOO_SMALL_STEP}")
            t, ya, yb, row = step
            data.extend(row)
            crossed = ()
            for k, (i, level, d) in enumerate(events):
                a, b = g[k], (yb if i else ya) - level
                g[k] = b
                if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0):
                    crossed += (k,)
            if crossed:
                # every event is terminal: keep the earliest root (a tie, the first)
                roots = [find_root_bracketed(lambda s: at(row, s)[events[k][0]] - events[k][1],
                                             t_old, t, _EVENT_SETTINGS) for k in crossed]
                first = min(range(len(roots)), key=roots.__getitem__)
                event, t = crossed[first], roots[first]
                ya, yb = at(row, t)
            if len(ts) > 1 and ts[-1] == t:
                del data[-width:]
            else:
                ts.append(t)
                ys[0].append(ya)
                ys[1].append(yb)
        if event is not None:
            break
    return OdeResult(t=ts, y=list(ys[:n]), sol=_DenseSolution(ts, data, width, at, n),
                     event=event, nfev=work.nfev, njev=work.njev, nlu=work.nlu)
