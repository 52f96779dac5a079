"""Shared deterministic scalar kernels, on Python floats and `math` alone.

A closed-form real-root solver for depressed cubics; Brent's bracketed
root, a step-for-step port of SciPy's C brentq (so its roots are SciPy's bit
for bit); adaptive Gauss-Kronrod G7-K15 quadrature; and an evenly spaced
float grid, np.linspace's bit for bit.  The error classes and
SolverSettings here are shared with the ODE integrators in the ode module.
This module imports no numpy, so flat and fatigue, which need only these
kernels, start without it.

Everything here is stateless and re-entrant.  What a result certifies is
its tolerance, not its bits.  Brent roots are accurate to the settings'
absolute tolerance; callers that print a root pass a rounding-level one
(1e-15).  Quadrature results meet their abs/rel tolerances.
Transcendentals come from `math`, whose bits do not depend on the SIMD
kernel numpy picks for the CPU at run time.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import namedtuple


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class BracketError(NumericsError):
    """Root bracket does not contain a sign change."""


class ToleranceError(NumericsError):
    """An adaptive routine could not reach the requested tolerance."""


class StiffnessError(NumericsError):
    """An integrator's step fell below ten ulps of t."""


class StallError(NumericsError):
    """A simulated rider's speed collapsed to zero."""


class SolverSettings(namedtuple("SolverSettings", "abs_tol rel_tol max_iterations")):
    """Tolerances shared by the root finder, quadrature and ODE solvers."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-8,
                max_iterations: int = 200):
        if not (abs_tol > 0.0 and rel_tol > 0.0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if not max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        return tuple.__new__(cls, (abs_tol, rel_tol, max_iterations))


DEFAULT_SETTINGS = SolverSettings()


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


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced floats, bit for bit np.linspace(lo, hi, n).tolist():
    k * step + lo for each k, then hi as the last point, and (as numpy)
    k / (n - 1) * (hi - lo) + lo where the step underflows to zero."""
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    if n < 2:
        return [0.0 * delta + lo][:n]
    step = delta / (n - 1)
    if step == 0.0:
        points = [k / (n - 1) * delta + lo for k in range(n)]
    else:
        points = [k * step + lo for k in range(n)]
    points[-1] = hi
    return points
