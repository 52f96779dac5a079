"""Two-timescale structure of the attack onset (validation diagnostics).

With a small inertia parameter eps, an attack unfolds in two short phases:
a passage through the peloton on the pack length-scale (spacing ratio
delta = gamma_ratio * eps**2), where the drag falls with the rider's depth,
followed by a solo relaxation at frozen front drag toward the equilibrium
attack speed (P/C_front)**(1/3).

The module provides two views of this:

* ``peloton_passage``: the leading-order passage layer
  gamma * m * zeta'' = P - C(zeta), integrated to the front-crossing event;
* ``attack_onset``: on one window and one time grid, a finite-inertia
  composite (passage layer solved in the stretched relative coordinate with
  the velocity feedback retained, then the exact frozen-drag relaxation)
  beside one monolithic integration of the full equation of motion, and
  their pointwise relative deviation.

Optimizers elsewhere always use the quasi-steady model; this module exists
to quantify how quickly that limit is reached.  It also holds the
drafting-drag law, which no other model rides.  The law takes one float, as
the right-hand sides call it, and its exp from `math`, so its bits follow no
numpy SIMD kernel.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from .numerics import NumericsError, SolverSettings, linspace
from .ode import ode_solve_with_events

__all__ = [
    "DragParams",
    "drag_at_depth",
    "PassageLayer",
    "AttackOnset",
    "NeverReachesFrontError",
    "StartDragError",
    "relative_drag_behind_front",
    "peloton_passage",
    "attack_onset",
]

LAYER_SETTINGS = SolverSettings(abs_tol=1e-12, rel_tol=1e-11)


class DragParams(namedtuple("DragParams", "cd_max cd_min decay")):
    """Exponential drafting-drag law: cd_min + (cd_max - cd_min) * exp(-decay * depth)."""

    __slots__ = ()

    def __new__(cls, cd_max: float = 0.9, cd_min: float = 0.05, decay: float = 0.25):
        if not 0.0 < cd_min < cd_max:
            raise ValueError("need 0 < cd_min < cd_max")
        if not decay > 0.0:  # NaN fails too
            raise ValueError("decay must be positive")
        return tuple.__new__(cls, (cd_max, cd_min, decay))


def drag_at_depth(depth: float, drag: DragParams) -> float:
    """Raw drag coefficient at a drafting depth measured in axle spacings.

    Depth 0 is the front of the peloton; anything ahead of the front
    (negative depth) sees the full cd_max.
    """
    if depth < 0.0:
        return drag.cd_max
    return drag.cd_min + (drag.cd_max - drag.cd_min) * math.exp(-drag.decay * depth)


class NeverReachesFrontError(NumericsError):
    """The attack power cannot push the rider to the front of the pack."""


class StartDragError(NeverReachesFrontError):
    """The attack power does not exceed the drag at the start depth."""


def relative_drag_behind_front(zeta: float, drag: DragParams, cd_avg: float) -> float:
    """Normalized drag at signed pack coordinate zeta (zeta = 0 is the front).

    Negative zeta means the rider is still inside the peloton at depth
    -zeta; positive zeta means clear of the front, at full drag.
    """
    return drag_at_depth(-zeta, drag) / cd_avg


def _start_surplus(zeta0: float, power: float, drag: DragParams,
                   cd_avg: float) -> float:
    """Power less the drag at the start coordinate zeta0; positive or raises."""
    start_drag = relative_drag_behind_front(zeta0, drag, cd_avg)
    if not power > start_drag:  # NaN fails too
        raise StartDragError(f"need more than {start_drag!r}, the drag at "
                             f"the start depth {-zeta0!r}")
    return power - start_drag


class PassageLayer(namedtuple("PassageLayer", "duration exit_slope")):
    """Leading-order passage through the pack, in inner time units.

    duration is the front-crossing inner time and exit_slope d zeta / d tau
    at the crossing, where the speed is 1 + gamma*sqrt(eps)*exit_slope.
    """

    __slots__ = ()


class AttackOnset(namedtuple("AttackOnset", "times v_full v_composite rel_deviation "
                             "front_crossing_time passage_duration front_speed "
                             "terminal_speed")):
    """Full and composite speeds of one attack on one time grid, as float tuples.

    v_full is the monolithic integration, v_composite the passage layer then
    the frozen-drag relaxation, and rel_deviation |v_composite - v_full| /
    |v_full|.  front_crossing_time is the composite's t_front,
    passage_duration t_front / eps**1.5, front_speed the speed at the front
    crossing and terminal_speed (P / C_front)**(1/3).
    """

    __slots__ = ()


def peloton_passage(position: float, power: float, drag: DragParams,
                    cd_avg: float, mass_ratio: float = 1.0,
                    gamma_ratio: float = 1.0,
                    settings: SolverSettings | None = None) -> PassageLayer:
    """Integrate the leading-order passage layer until the front is reached.

    The rider starts from rest relative to the pack at depth position - 1
    and is driven by the local power surplus P - C(zeta).  Continuous
    (non-integer) start positions are allowed.  A power at or below the
    drag at the start depth raises StartDragError, at position 1 too, where
    that drag is the front drag.
    """
    if not position >= 1.0:  # NaN fails too
        raise ValueError("position must be >= 1")
    for name, value in (("gamma_ratio", gamma_ratio), ("mass_ratio", mass_ratio)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive")
    settings = LAYER_SETTINGS if settings is None else settings  # read at the call
    zeta0 = -(position - 1.0)
    _start_surplus(zeta0, power, drag, cd_avg)
    if zeta0 == 0.0:
        return PassageLayer(duration=0.0, exit_slope=0.0)

    scale = gamma_ratio * mass_ratio
    if scale == 0.0:
        raise NumericsError("gamma ratio times mass ratio underflows to 0")

    def rhs(tau, zeta, u):
        return u, (power - relative_drag_behind_front(zeta, drag, cd_avg)) / scale

    horizon = 20.0 * math.sqrt(2.0 * abs(zeta0) * scale / power) + 10.0
    # the front (zeta rises through 0), or a turn (zeta' falls through 0)
    sol = ode_solve_with_events(rhs, [zeta0, 0.0], (0.0, horizon),
                                events=((0, 0.0, 1), (1, 0.0, -1)), settings=settings,
                                name="passage")
    if sol.event != 0:
        raise NeverReachesFrontError("the rider turned back before the front")
    return PassageLayer(duration=sol.t[-1], exit_slope=sol.y[1][-1])


def _passage_finite(eps, position, power, drag, cd_avg, mass_ratio,
                    gamma_ratio, settings):
    """Finite-inertia passage layer solved in the relative coordinate.

    Returns (t_front, v_front, times, speeds), the last two lists.  The
    start is regularized with the local square-root solution of the layer
    balance, which removes the v = 1 singularity of d/d zeta derivatives.
    """
    zeta0 = -(position - 1.0)
    delta = gamma_ratio * eps**2
    if zeta0 == 0.0:
        return 0.0, 1.0, [0.0], [1.0]
    g0 = _start_surplus(zeta0, power, drag, cd_avg)
    dz0 = 1e-8 * abs(zeta0)
    v1 = 1.0 + math.sqrt(2.0 * gamma_ratio * eps * g0 * dz0 / mass_ratio)
    t1 = delta * math.sqrt(2.0 * mass_ratio * dz0 / (gamma_ratio * eps * g0))

    def rhs(zeta, t, v):
        c = relative_drag_behind_front(zeta, drag, cd_avg)
        dt = delta / (v - 1.0)
        return dt, dt * (power / v - c * v * v) / (eps * mass_ratio)

    # a turn: the speed falls to the pack's
    sol = ode_solve_with_events(rhs, [t1, v1], (zeta0 + dz0, 0.0),
                                events=((1, 1.0 + 1e-12, -1),), settings=settings,
                                name="passage")
    if sol.event is not None:
        raise NeverReachesFrontError("the rider turned back before the front")
    times, speeds = sol.sol(linspace(zeta0 + dz0, 0.0, 513))
    return times[-1], speeds[-1], [0.0, *times], [1.0, *speeds]


def _interp(x, xs, ys):
    """np.interp(x, xs, ys) bit for bit for x >= xs[0], xs non-decreasing."""
    j = bisect_right(xs, x) - 1
    if j == len(xs) - 1 or x == xs[j]:
        return ys[j]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j]


def attack_onset(eps: float, position: float, power: float,
                 drag: DragParams, cd_avg: float,
                 mass_ratio: float = 1.0, gamma_ratio: float = 1.0,
                 n_samples: int = 2001,
                 settings: SolverSettings | None = None) -> AttackOnset:
    """Full and composite speeds of one attack on one window and one grid.

    The full view integrates the equation of motion in the signed pack
    coordinate and the speed; the peloton head advances at unit speed, so
    the relative coordinate moves at (v - 1) on the spacing scale
    delta = gamma_ratio * eps**2.  The composite crosses the peloton in the
    stretched relative coordinate, then relaxes the speed at frozen front
    drag in the inner time (t - t_front) / eps.
    """
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    settings = LAYER_SETTINGS if settings is None else settings  # read at the call
    lead = peloton_passage(position, power, drag, cd_avg, mass_ratio,
                           gamma_ratio, settings)
    delta, eps_mass = gamma_ratio * eps**2, eps * mass_ratio
    for product, text in ((delta, "gamma ratio times eps^2"), (eps_mass, "eps times mass ratio")):
        if product == 0.0:
            raise NumericsError(f"{text} underflows to 0")
    # the window: the passage, then the relaxation's settle-down
    v_eq = (power * cd_avg / drag.cd_max) ** (1.0 / 3.0)
    t_end = 4.0 * eps**1.5 * lead.duration + 16.0 * eps * mass_ratio * v_eq**2 / power
    grid = linspace(0.0, t_end, n_samples)

    def rhs(t, zeta, v):
        c = relative_drag_behind_front(zeta, drag, cd_avg)
        return (v - 1.0) / delta, (power / v - c * v * v) / eps_mass

    full = ode_solve_with_events(rhs, [-(position - 1.0), 1.0], (0.0, t_end),
                                 events=((1, 1e-9, -1),), settings=settings, name="full")
    if full.event is not None:  # a stall
        raise NumericsError("rider stalled during the attack onset")
    v_full = full.sol(grid)[1]

    t_front, v_front, pass_t, pass_v = _passage_finite(
        eps, position, power, drag, cd_avg, mass_ratio, gamma_ratio, settings)
    cd_front = drag.cd_max / cd_avg
    tau_end = max((t_end - t_front) / eps, 1.0)

    def relax_rhs(tau, v, _):
        return (power / v - cd_front * v * v) / mass_ratio, 0.0

    relax = ode_solve_with_events(relax_rhs, [v_front], (0.0, tau_end), settings=settings,
                                  name="relaxation")
    split = bisect_right(grid, t_front)  # t_front itself is on the passage side
    v_composite = ([_interp(t, pass_t, pass_v) for t in grid[:split]]
                   + relax.sol([(t - t_front) / eps for t in grid[split:]])[0])
    return AttackOnset(
        times=tuple(grid), v_full=tuple(v_full), v_composite=tuple(v_composite),
        rel_deviation=tuple(abs(c - f) / abs(f) for c, f in zip(v_composite, v_full)),
        front_crossing_time=t_front,
        passage_duration=t_front / eps**1.5,
        front_speed=v_front,
        terminal_speed=(power / cd_front) ** (1.0 / 3.0),
    )
