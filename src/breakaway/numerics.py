"""Shared deterministic numerical kernels.

Thin, deterministic wrappers around well-tested SciPy routines (Brent root
finding on a given bracket, adaptive Gauss-Kronrod quadrature, adaptive ODE
integration with event detection) plus two hand-rolled pieces the rest of
the package leans on: a closed-form real-root solver for depressed cubics
and a grid-seeded scalar minimizer with a documented tie-break, refined by
golden section or, given the derivative, by Brent's method on its root.

Everything here is stateless and re-entrant.  What a result certifies is
its tolerance, not its bits.  Brent roots, and the derivative path of
minimize_scalar, are accurate to the settings' absolute tolerance; callers
that print a root pass a rounding-level one (1e-15).  Value-only golden
section places a smooth minimum only to about sqrt(machine eps).  Quadrature
and ODE results meet their abs/rel tolerances.  The last bits may differ
between numpy/SciPy builds, so a table digit is platform-independent only
where the solver behind it is certified below that digit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class BracketError(NumericsError):
    """Root bracket does not contain a sign change."""


class ToleranceError(NumericsError):
    """An adaptive routine could not reach the requested tolerance."""


class StiffnessError(NumericsError):
    """Explicit integrator underflowed its step size; try the implicit mode."""


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


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


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
        roots = [_cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)]
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
    """Brent-style root of f on [lo, hi]; requires f(lo) and f(hi) to straddle 0."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    return optimize.brentq(
        f, lo, hi,
        xtol=settings.abs_tol,
        rtol=4.0 * np.finfo(float).eps,
        maxiter=settings.max_iterations,
    )


def integrate_adaptive(f, a: float, b: float,
                       settings: SolverSettings = DEFAULT_SETTINGS):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Returns (value, error_estimate).  Raises ToleranceError if the
    quadrature reports non-convergence.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, err = integrate.quad(
                f, a, b, epsabs=settings.abs_tol, epsrel=settings.rel_tol,
                limit=max(1, settings.max_iterations),
            )
        except integrate.IntegrationWarning as exc:
            raise ToleranceError(str(exc)) from exc
    return value, err


def ode_solve_with_events(rhs, y0, t_span, events=(),
                          settings: SolverSettings = DEFAULT_SETTINGS,
                          method: str = "rk45",
                          dense_output: bool = True,
                          max_step: float = math.inf):
    """Adaptive ODE integration with event localization.

    method "rk45" is the explicit embedded pair; "bdf" selects the implicit
    multistep fallback for stiff runs.  Events follow SciPy conventions
    (callable of (t, y) with optional .terminal / .direction attributes).
    """
    scipy_method = {"rk45": "RK45", "bdf": "BDF"}.get(method.lower())
    if scipy_method is None:
        raise ValueError(f"unknown integration method {method!r}")
    sol = integrate.solve_ivp(
        rhs, t_span, np.atleast_1d(np.asarray(y0, dtype=float)),
        method=scipy_method,
        events=list(events) if events else None,
        rtol=settings.rel_tol, atol=settings.abs_tol,
        dense_output=dense_output, max_step=max_step,
    )
    if not sol.success and sol.status == -1:
        hint = " (consider method='bdf')" if scipy_method == "RK45" else ""
        raise StiffnessError(sol.message + hint)
    return sol


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
            x = find_root_bracketed(df, a, b, settings)
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
