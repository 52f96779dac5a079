"""Shared deterministic numerical kernels.

The package's own, on Python floats: a closed-form real-root solver for
depressed cubics; Brent's bracketed root, a step-for-step port of SciPy's C
brentq (so its roots are SciPy's bit for bit); adaptive Gauss-Kronrod G7-K15
quadrature; and a grid-seeded scalar minimizer with a documented tie-break,
refined by golden section or, given the derivative, by Brent on its root.

ODE integration with events is the package's own: a Dormand-Prince 5(4)
loop (Dormand & Prince 1980) and, for stiff runs, an implicit variable-order
BDF loop (the NDF scheme of Shampine & Reichelt 1997) with a finite-difference
Jacobian.  Both are ports of SciPy 1.17's solve_ivp that perform the same
numpy and LAPACK operations on the same shapes in the same order, through one
driver: the same steps, evaluations, event roots (by the Brent port) and
dense output, bit for bit.  No module of the package imports SciPy.

Everything here is stateless and re-entrant.  What a result certifies is
its tolerance, not its bits.  Brent roots, and the derivative path of
minimize_scalar, are accurate to the settings' absolute tolerance; callers
that print a root pass a rounding-level one (1e-15).  Value-only golden
section places a smooth minimum only to about sqrt(machine eps).  Quadrature
and ODE results meet their abs/rel tolerances.  Scalars take their
transcendentals from `math`, whose bits do not depend on the SIMD kernel
numpy picks for the CPU at run time.  The last bits may still differ between
numpy builds (their BLAS and LAPACK), and BDF's order choice raises an array
to a power with numpy's CPU-dispatched kernel, so a table digit is
platform-independent only where the solver behind it is certified below
that digit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class BracketError(NumericsError):
    """Root bracket does not contain a sign change."""


class ToleranceError(NumericsError):
    """An adaptive routine could not reach the requested tolerance."""


class StiffnessError(NumericsError):
    """An integrator's step fell below ten ulps of t; after RK45, try BDF."""


class StallError(NumericsError):
    """A simulated rider's speed collapsed to zero."""


class RiderNeverFinishesError(NumericsError):
    """No finish-line crossing exists within the search horizon."""


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances shared by the root finder, quadrature and ODE solvers."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


DEFAULT_SETTINGS = SolverSettings()

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_cubic_real(a3: float, a1: float, a0: float) -> list[float]:
    """Real roots of the depressed cubic a3*y**3 + a1*y + a0 = 0, ascending.

    a3 == 0 degenerates to the linear equation.  Each root gets one Newton
    polish step, which keeps residuals below ~1e-12 for O(1) coefficients.
    """
    if a3 == 0.0:
        if a1 == 0.0:
            return []
        return [-a0 / a1]

    p = a1 / a3
    q = a0 / a3
    # discriminant of y^3 + p y + q; positive => one real root
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3

    if disc > 0.0:
        s = math.sqrt(disc)
        roots = [math.cbrt(-q / 2.0 + s) + math.cbrt(-q / 2.0 - s)]
    elif disc == 0.0:
        if p == 0.0:
            roots = [0.0]
        else:
            r = 3.0 * q / p
            roots = [r, -r / 2.0]
    else:
        # three distinct real roots, trigonometric form
        t = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * t)))) / 3.0
        roots = [t * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]

    def _polish(y: float) -> float:
        f = a3 * y**3 + a1 * y + a0
        df = 3.0 * a3 * y**2 + a1
        if df != 0.0 and math.isfinite(f):
            step = f / df
            if abs(step) < 1.0 + abs(y):
                y = y - step
        return y

    return sorted(_polish(y) for y in roots)


def find_root_bracketed(f, lo: float, hi: float,
                        settings: SolverSettings = DEFAULT_SETTINGS) -> float:
    """Brent's root of f on [lo, hi]; f(lo) and f(hi) must differ in sign.

    A step-for-step port of SciPy's C brentq (Brent 1973, ch. 4) with
    xtol = settings.abs_tol and rtol = 4 machine eps: the same iterates and
    the same float root, from as many evaluations of f as SciPy counts.
    Raises BracketError for ends of one sign or a NaN at an end, and
    ToleranceError for a NaN at an iterate or after max_iterations steps.
    """
    xtol, rtol = settings.abs_tol, 4.0 * sys.float_info.epsilon
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre) or math.isnan(fcur) \
            or math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(settings.max_iterations):
        if fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ToleranceError(f"NaN value at x = {xcur!r}")
    raise ToleranceError(f"no root to {xtol:g} in {settings.max_iterations} iterations")


# QUADPACK dqk15: the 15-point Kronrod abscissae and weights (centre last),
# and the weights of the embedded 7-point Gauss rule at nodes 1, 3, 5 and 0
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
        0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min


def _kronrod15(f, a: float, b: float):
    """QUADPACK dqk15 on [a, b]: (error estimate, integral)."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f_c = float(f(centre))
    pairs = [(float(f(centre - half * x)), float(f(centre + half * x))) for x in _XGK]
    res_g = _WG[3] * f_c + sum(w * sum(pairs[j]) for j, w in zip((1, 3, 5), _WG))
    res_k = _WGK[7] * f_c + sum(w * (u + v) for w, (u, v) in zip(_WGK, pairs))
    mean = 0.5 * res_k
    res_abs = _WGK[7] * abs(f_c) + sum(w * (abs(u) + abs(v)) for w, (u, v) in zip(_WGK, pairs))
    res_asc = _WGK[7] * abs(f_c - mean) + sum(
        w * (abs(u - mean) + abs(v - mean)) for w, (u, v) in zip(_WGK, pairs))
    res_abs, res_asc = res_abs * abs(half), res_asc * abs(half)
    err = abs((res_k - res_g) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * res_abs, err)
    return err, res_k * half


def integrate_adaptive(f, a: float, b: float,
                       settings: SolverSettings = DEFAULT_SETTINGS):
    """Adaptive Gauss-Kronrod G7-K15 integral of f over [a, b].

    QUADPACK's QAG without extrapolation (Piessens et al. 1983): bisect the
    panel with the largest error estimate until the summed estimate is at
    most max(abs_tol, rel_tol * |value|).  f is called at one float at a
    time.  Returns (value, error_estimate).  Raises ToleranceError when
    max_iterations panels do not reach the tolerance.
    """
    a, b = float(a), float(b)
    err, value = _kronrod15(f, a, b)
    panels = [(-err, a, b, value)]  # a heap, largest error first
    while True:
        err = -math.fsum(p[0] for p in panels)
        value = math.fsum(p[3] for p in panels)
        if err <= max(settings.abs_tol, settings.rel_tol * abs(value)):
            return value, err
        if len(panels) >= settings.max_iterations:
            raise ToleranceError(f"quadrature error {err:g} after {len(panels)} panels")
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        for u, v in ((lo, mid), (mid, hi)):
            err, value = _kronrod15(f, u, v)
            heapq.heappush(panels, (-err, u, v, value))


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
_BDF_KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
_BDF_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _BDF_MAX_ORDER + 1))))
_BDF_ALPHA = (1 - _BDF_KAPPA) * _BDF_GAMMA
_BDF_ERROR_CONST = _BDF_KAPPA * _BDF_GAMMA + 1 / np.arange(1, _BDF_MAX_ORDER + 2)
# num_jac's thresholds on a difference relative to the value it perturbs
_JAC_DIFF_REJECT, _JAC_DIFF_SMALL, _JAC_DIFF_BIG = _EPS ** 0.875, _EPS ** 0.75, _EPS ** 0.25
_JAC_MIN_FACTOR = 1e3 * _EPS
# SciPy locates an event with brentq at xtol = rtol = 4 eps, maxiter 100
_EVENT_SETTINGS = SolverSettings(abs_tol=4.0 * _EPS, max_iterations=100)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class OdeResult(SimpleNamespace):
    """An integration, with the fields of solve_ivp's result callers read.

    t and y: the step times and states; sol: the dense solution; t_events
    and y_events: per event, its crossing times and states; nfev: rhs
    evaluations; njev and nlu: Jacobians and LU factorizations (BDF; 0 for
    RK45); status: 0 at the end of t_span, 1 at a terminal event; success
    is True.
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


class _BdfStep:
    """The interpolating polynomial of one accepted step (SciPy's
    BdfDenseOutput): backward differences D at the step h ending at t."""

    __slots__ = ("t_shift", "denom", "D")

    def __init__(self, t, h, order, D):
        self.t_shift = t - h * np.arange(order)
        self.denom = h * (1 + np.arange(order))
        self.D = D

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            p = np.cumprod((t - self.t_shift) / self.denom)
        else:
            p = np.cumprod((t - self.t_shift[:, None]) / self.denom[:, None], axis=0)
        y = np.dot(self.D[1:].T, p)
        if y.ndim == 1:
            y += self.D[0]
        else:
            y += self.D[0, :, None]
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
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval)


def _rk45_steps(fun, rhs, counts, t, y, f, h_abs, t_bound, rtol, atol):
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
                raise StiffnessError(_TOO_SMALL_STEP + " (consider method='bdf')")
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


def _compute_R(order, factor):
    """BDF's matrix that rescales the backward differences by factor."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


_BDF_U = tuple(_compute_R(order, 1) for order in range(_BDF_MAX_ORDER + 1))


def _change_D(D, order, factor):
    """Rescale the differences D in place for a step changed by factor."""
    RU = _compute_R(order, factor).dot(_BDF_U[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


def _num_jac(columns, t, y, f, threshold, factor):
    """SciPy's dense num_jac: the forward-difference Jacobian at (t, y) from
    columns(t, Y), the rhs at each column of Y, and its adapted step factors.
    """
    n = y.shape[0]
    factor = np.full(n, _EPS ** 0.5) if factor is None else factor.copy()
    # step in the direction of the flow, hoping to stay in a benign region
    y_scale = (2 * (f >= 0).astype(float) - 1) * np.maximum(threshold, np.abs(y))
    h = (y + factor * y_scale) - y
    for i in np.nonzero(h == 0)[0]:
        while h[i] == 0:
            factor[i] *= 10
            h[i] = (y[i] + factor[i] * y_scale[i]) - y[i]
    h_vecs = np.diag(h)
    f_new = columns(t, y[:, None] + h_vecs)
    diff = f_new - f[:, None]
    max_ind = np.argmax(np.abs(diff), axis=0)
    r = np.arange(n)
    max_diff = np.abs(diff[max_ind, r])
    scale = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))
    diff_too_small = max_diff < _JAC_DIFF_REJECT * scale
    if np.any(diff_too_small):
        # retry those columns with a ten times larger step; keep the better
        ind, = np.nonzero(diff_too_small)
        new_factor = 10 * factor[ind]
        h_new = (y[ind] + new_factor * y_scale[ind]) - y[ind]
        h_vecs[ind, ind] = h_new
        f_new = columns(t, y[:, None] + h_vecs[:, ind])
        diff_new = f_new - f[:, None]
        max_ind = np.argmax(np.abs(diff_new), axis=0)
        r = np.arange(ind.shape[0])
        max_diff_new = np.abs(diff_new[max_ind, r])
        scale_new = np.maximum(np.abs(f[max_ind]), np.abs(f_new[max_ind, r]))
        update = max_diff[ind] * scale_new < max_diff_new * scale[ind]
        if np.any(update):
            update, = np.nonzero(update)
            update_ind = ind[update]
            factor[update_ind] = new_factor[update]
            h[update_ind] = h_new[update]
            diff[:, update_ind] = diff_new[:, update]
            scale[update_ind] = scale_new[update]
            max_diff[update_ind] = max_diff_new[update]
    diff /= h
    factor[max_diff < _JAC_DIFF_SMALL * scale] *= 10
    factor[max_diff > _JAC_DIFF_BIG * scale] *= 0.1
    return diff, np.maximum(factor, _JAC_MIN_FACTOR)


def _lu_solve(A, b):
    """x with A x = b, bit for bit SciPy's lu_solve(lu_factor(A), b).

    Both run LAPACK's getrf and getrs.  Where A is exactly singular,
    lu_factor only warns and getrs divides by the zero pivot; this returns
    NaN there, so Newton fails and the step is retried, as in SciPy.
    """
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def _newton(fun, t_new, y_predict, c, psi, A, scale, tol):
    """SciPy's solve_bdf_system: (converged, iterations, y, d) for the BDF
    corrector from y_predict, with the iteration matrix A = I - c J."""
    d = 0
    y = y_predict.copy()
    dy_norm_old = None
    converged = False
    for k in range(_BDF_NEWTON_MAXITER):
        f = fun(t_new, y)
        if not np.isfinite(f).all():
            break
        dy = _lu_solve(A, c * f - psi - d)
        dy_norm = _rms(dy / scale)
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (rate >= 1 or rate ** (_BDF_NEWTON_MAXITER - k)
                                 / (1 - rate) * dy_norm > tol):
            break
        y += dy
        d += dy
        if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < tol:
            converged = True
            break
        dy_norm_old = dy_norm
    return converged, k + 1, y, d


def _bdf_steps(fun, rhs, counts, t, y, f, h_abs, t_bound, rtol, atol):
    """SciPy 1.17's BDF steps (variable-order NDF, quasi-constant step, a
    finite-difference Jacobian): yields (t, y, interpolant) per accepted
    step, the interpolant built after the step's order and size update."""
    def columns(t, Y):
        # SciPy's fun_vectorized: the rhs at one column of Y at a time
        F = np.empty_like(Y)
        for i, yi in enumerate(Y.T):
            F[:, i] = np.asarray(rhs(t, yi), dtype=float)
        return F

    jac_factor = None

    def jacobian(t, y):
        # the evaluations here do not count in nfev
        nonlocal jac_factor
        counts.njev += 1
        J, jac_factor = _num_jac(columns, t, y, np.asarray(rhs(t, y), dtype=float),
                                 atol, jac_factor)
        return J

    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    J = jacobian(t, y)
    I = np.identity(y.size)
    D = np.empty((_BDF_MAX_ORDER + 3, y.size))
    D[0] = y
    D[1] = f * h_abs
    order, n_equal_steps, A = 1, 0, None
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            _change_D(D, order, min_step / h_abs)
            h_abs, n_equal_steps = min_step, 0
        alpha, current_jac = _BDF_ALPHA[order], False
        while True:
            if h_abs < min_step:
                raise StiffnessError(_TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                n_equal_steps, A = 0, None
            h = t_new - t
            h_abs = np.abs(h)
            y_predict = np.sum(D[:order + 1], axis=0)
            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, _BDF_GAMMA[1: order + 1]) / alpha
            c = h / alpha
            while True:
                if A is None:
                    counts.nlu += 1
                    A = I - c * J
                converged, n_iter, y_new, d = _newton(
                    fun, t_new, y_predict, c, psi, A, scale, newton_tol)
                if converged or current_jac:
                    break
                J, A, current_jac = jacobian(t_new, y_predict), None, True
            if not converged:
                h_abs *= 0.5
                _change_D(D, order, 0.5)
                n_equal_steps, A = 0, None
                continue
            safety = 0.9 * (2 * _BDF_NEWTON_MAXITER + 1) / (2 * _BDF_NEWTON_MAXITER + n_iter)
            scale = atol + rtol * np.abs(y_new)
            error_norm = _rms(_BDF_ERROR_CONST[order] * d / scale)
            if not error_norm > 1:  # a NaN norm accepts the step, as in SciPy
                break
            # Newton converged, so the iteration matrix is kept
            factor = max(0.2, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal_steps = 0
        n_equal_steps += 1
        t, y = t_new, y_new
        # D held the differences of the last polynomial and d is the
        # (order + 1)-th difference at the new point
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]
        if n_equal_steps >= order + 1:
            # the order (one down, kept, one up) whose step can grow the most
            error_m_norm = (_rms(_BDF_ERROR_CONST[order - 1] * D[order] / scale)
                            if order > 1 else np.inf)
            error_p_norm = (_rms(_BDF_ERROR_CONST[order + 1] * D[order + 2] / scale)
                            if order < _BDF_MAX_ORDER else np.inf)
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore"):
                factors = error_norms ** (-1 / np.arange(order, order + 3))
            order += np.argmax(factors) - 1
            factor = min(10, safety * np.max(factors))
            h_abs *= factor
            _change_D(D, order, factor)
            n_equal_steps, A = 0, None
        yield t, y, _BdfStep(t, h_abs, order, D[:order + 1].copy())


# per method: its steps, its error order for the initial step, and the side
# a time on a step boundary takes in the dense solution
_METHODS = {"rk45": (_rk45_steps, 4, "left"), "bdf": (_bdf_steps, 1, "right")}


def _integrate(method, rhs, y0, t0, t_bound, events, rtol, atol):
    """SciPy 1.17's solve_ivp(method=..., dense_output=True), float for float.

    The same numpy operations on the same shapes in the same order (BLAS dot
    products and LAPACK solves included), so the same steps, evaluations,
    events and dense output.  Needs t_bound > t0.  Every event is terminal.
    """
    steps_of, order, side = _METHODS[method]
    counts = SimpleNamespace(nfev=0, njev=0, nlu=0)

    def fun(t, y):
        counts.nfev += 1
        return np.asarray(rhs(t, y), dtype=float)

    t, y = t0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, order, rtol, atol)
    steps = steps_of(fun, rhs, counts, t, y, f, h_abs, t_bound, rtol, atol)
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


def ode_solve_with_events(rhs, y0, t_span, events=(),
                          settings: SolverSettings = DEFAULT_SETTINGS,
                          method: str = "rk45"):
    """Adaptive ODE integration with event localization, forward in time.

    method "rk45" is the package's own Dormand-Prince 5(4) loop, SciPy's
    RK45 float for float; "bdf" is its own implicit variable-order BDF for
    stiff runs, SciPy's BDF float for float.  An event is a callable of
    (t, y); its optional .direction attribute (+1 rising, -1 falling, 0
    either) selects the crossings it sees.  Events are terminal: the first
    crossing ends the integration.  The step size has no cap, and the
    result always carries the dense solution .sol.  Raises StiffnessError
    when the step falls below ten ulps of t.
    """
    t0, t_bound = map(float, t_span)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    method = method.lower()
    if method not in _METHODS:
        raise ValueError(f"unknown integration method {method!r}")
    if not t_bound > t0:
        raise ValueError("t_span must increase")
    return _integrate(method, rhs, y0, t0, t_bound, tuple(events),
                      max(settings.rel_tol, 100 * _EPS), settings.abs_tol)


def minimize_scalar(f, lo: float, hi: float,
                    settings: SolverSettings = DEFAULT_SETTINGS,
                    grid_points: int = 256, df=None):
    """Minimize a scalar function on [lo, hi]: coarse grid, then refinement.

    The grid picks the cell around its best point.  Without df, golden
    section refines it, which locates a smooth minimum only to about
    sqrt(machine eps) relative.  With the derivative df, a sign change
    from negative to positive across the cell is solved by Brent's method
    to the settings' absolute tolerance, and a grid end whose slope points
    out of the interval is returned exactly; any other cell falls back to
    golden section.  Tolerates a kink in f.  Ties resolve to the smallest
    argument, so a constant function returns lo.  Returns (argmin, min).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, max(3, grid_points))
    vals = np.array([f(x) for x in xs])
    k = int(np.argmin(vals))  # first minimal index == smallest argument
    a = xs[max(0, k - 1)]
    b = xs[min(len(xs) - 1, k + 1)]

    if df is not None:
        d_a, d_b = df(a), df(b)
        if d_a < 0.0 < d_b:
            # Brent starts by evaluating both ends: answer those from here
            ends = {float(a): d_a, float(b): d_b}
            x = find_root_bracketed(lambda u: ends.pop(u) if u in ends else df(u),
                                    a, b, settings)
            return float(x), float(f(x))
        if (k == 0 and d_a >= 0.0) or (k == len(xs) - 1 and d_b <= 0.0):
            return float(xs[k]), float(vals[k])

    # golden-section refinement inside the bracketing cell
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(settings.max_iterations):
        if (b - a) <= max(settings.abs_tol, settings.rel_tol * (abs(a) + abs(b))):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x_ref = x1 if f1 <= f2 else x2
    f_ref = min(f1, f2)

    # keep the grid winner on exact ties so flat objectives return lo
    if f_ref < vals[k]:
        return float(x_ref), float(f_ref)
    return float(xs[k]), float(vals[k])
