"""Race simulation over arbitrary elevation profiles.

The dimensionless equations of motion gain a gravity term gamma*sin(theta(x))
on a graded course, where theta = arctan(h'(x)) and gamma is the
gravity-to-drag force ratio.  Two integration modes are provided:

* full second-order dynamics (inertia epsilon > 0), integrated in time with
  an event handler that stops exactly at the finish line, by implicit BDF
  on the ride's analytic Jacobian when the ride is stiff (see
  STIFFNESS_LIMIT) and by explicit RK45 otherwise;
* the quasi-steady limit (epsilon = 0), where the speed is the positive root
  of C_d v^3 + m*gamma*sin(theta) v = P at every point; the race is still
  marched in time, with position alone as the state, always by RK45 and at
  tolerances 100x tighter than SIM_SETTINGS.

The ODEs carry only the mechanics.  Energy is the integral of the power
schedule, so after the attack it comes from PowerProfile.energy in closed
form; the peloton, at unit power, has spent its elapsed time.

The peloton is the unit rider: power, drag and mass all 1.  In both limits
it rides the same integrator as the breakaway rider.

While the rider hides in the pack they move with the peloton; the power that
holds them there follows from eliminating the gravity term between the two
equations of motion: P_lurk = m + (C_d - m) v^3, clamped at zero on descents
where no pedaling is needed.

The course slope and PowerProfile.power_at take one float, once per
right-hand-side evaluation, and their arctan and exp are `math`'s, so a ride's
bits do not follow the SIMD kernel numpy picks for the CPU.  The course
curvature h''(x) enters only BDF's Jacobian, through d(sin theta)/dx.  The
quasi-steady speed is the largest root from numerics.solve_cubic_real.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import CourseFileError
from .model import PowerProfile
from .numerics import (
    NumericsError,
    RiderNeverFinishesError,
    SolverSettings,
    StallError,
    StiffnessError,
    find_root_bracketed,
    linspace,
    solve_cubic_real,
)
from .ode import ode_solve_with_events

__all__ = [
    "CourseProfile",
    "CourseFileError",
    "Trajectory",
    "BreakawayRun",
    "simulate_breakaway",
    "load_course_table",
    "demo_profile",
]

SIM_SETTINGS = SolverSettings(abs_tol=1e-12, rel_tol=1e-10)
# at SIM_SETTINGS a quasi-steady ride marched in time is off in the 10th
# digit (demo peloton 1.30172411722, not 1.30172411696); its steps are cheap
_QUASI_STEADY_SETTINGS = SolverSettings(abs_tol=1e-14, rel_tol=1e-12)

_V_STALL = 1e-9
_HORIZON = 50.0   # generous multiple of any sane dimensionless race time

# A ride whose |dv'/dv| bound (see _stiffness) exceeds this is stiff: RK45's
# stability limit would cap its step near 3/bound, so it rides BDF.  On the
# perfbench terrain rides of seeds 101-120 the RK45 rides bound at most 2,204
# and the BDF rides at least 12,345 (Hairer & Wanner, Solving ODEs II, IV.2).
STIFFNESS_LIMIT = 5000.0


@dataclass(frozen=True)
class CourseProfile:
    """A course by its slope h'(x) and curvature h''(x) at one float x; x and
    h per course length."""

    slope: Callable[[float], float]
    curvature: Callable[[float], float]
    label: str = "custom"

    def steepness(self, x: float):
        """Grade angle theta(x) = arctan(h'(x))."""
        return math.atan(self.slope(x))

    @classmethod
    def flat(cls) -> "CourseProfile":
        return cls(slope=lambda x: 0.0, curvature=lambda x: 0.0, label="flat")

    @classmethod
    def from_sinusoids(cls, sin_amps=(), cos_amps=(),
                       label: str = "sinusoid") -> "CourseProfile":
        """Height sum_k a_k sin(2 pi k x) + b_k (cos(2 pi k x) - 1).

        The cosine terms are shifted so the course starts at height zero.
        The slope and the curvature sum their terms in order, from 0.0.
        """
        a = np.asarray(sin_amps, dtype=float)
        b = np.asarray(cos_amps, dtype=float)
        ka = 2.0 * np.pi * np.arange(1, a.size + 1)
        kb = 2.0 * np.pi * np.arange(1, b.size + 1)
        sin_terms = list(zip((a * ka).tolist(), ka.tolist()))
        cos_terms = list(zip((b * kb).tolist(), kb.tolist()))

        def slope(x):
            x, up, down = float(x), 0.0, 0.0
            for c, k in sin_terms:
                up += c * math.cos(k * x)
            for c, k in cos_terms:
                down += c * math.sin(k * x)
            return up - down

        def curvature(x):
            x, up, down = float(x), 0.0, 0.0
            for c, k in sin_terms:
                up += c * k * math.sin(k * x)
            for c, k in cos_terms:
                down += c * k * math.cos(k * x)
            return -up - down

        return cls(slope=slope, curvature=curvature, label=label)

    @classmethod
    def from_table(cls, xs, hs, label: str = "table") -> "CourseProfile":
        """Monotone cubic (PCHIP) interpolation of a sampled (x, h) course table.

        SciPy's PchipInterpolator float for float: knot slopes by Fritsch &
        Carlson's weighted harmonic mean with SciPy's three-point edge rule,
        cubic Hermite pieces, the slope of each piece evaluated as PPoly
        does (interval closed on the left, the end pieces extended).  The
        curvature is the derivative of the slope on the same piece.
        """
        xs = np.asarray(xs, dtype=float)
        hs = np.asarray(hs, dtype=float)
        if xs.size < 2:
            raise CourseFileError("course table needs at least two samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(hs))):
            raise CourseFileError("course samples must be finite numbers")
        if np.any(np.diff(xs) <= 0.0):
            raise CourseFileError("course x samples must increase strictly")
        if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
            raise CourseFileError("course table must span x = 0 to x = 1")
        _, quadratic = _pchip_coefficients(xs, hs)
        if not all(np.all(np.isfinite(c)) for c in quadratic):
            raise CourseFileError("course slopes overflow")
        knots, last = xs.tolist(), xs.size - 2
        pieces = list(zip(*(c.tolist() for c in quadratic)))

        def piece(x):
            i = min(max(bisect.bisect_right(knots, x) - 1, 0), last)
            return pieces[i], x - knots[i]

        def slope(x):
            """PPoly's sum c0 + c1 s + c2 s^2 on the piece holding x."""
            (c0, c1, c2), s = piece(x)
            return 0.0 + c0 + c1 * s + c2 * (s * s)

        def curvature(x):
            (_, c1, c2), s = piece(x)
            return c1 + 2.0 * c2 * s

        return cls(slope=slope, curvature=curvature, label=label)


def _pchip_coefficients(xs, hs):
    """PCHIP pieces of h and h' in ascending powers of s = x - knot.

    SciPy's CubicHermiteSpline coefficients and PPoly's derivative factors
    1, 2, 3.  An overflow shows as an inf or a nan, not as a warning.
    """
    with np.errstate(all="ignore"):
        widths = xs[1:] - xs[:-1]
        chords = (hs[1:] - hs[:-1]) / widths
        d = _pchip_slopes(widths, chords)
        t = (d[:-1] + d[1:] - 2 * chords) / widths
        cubic = (hs[:-1], d[:-1], (chords - d[:-1]) / widths - t, t / widths)
        return cubic, (cubic[1], cubic[2] * 2.0, cubic[3] * 3.0)


def _pchip_slopes(widths, chords):
    """PCHIP knot slopes, as SciPy's PchipInterpolator finds them."""
    if chords.size == 1:
        return np.concatenate((chords, chords))
    w1 = 2 * widths[1:] + widths[:-1]
    w2 = widths[1:] + 2 * widths[:-1]
    signs = np.sign(chords)
    flat = (signs[1:] != signs[:-1]) | (chords[1:] == 0) | (chords[:-1] == 0)
    # a zero chord divides by zero here; np.where drops those entries
    inner = np.where(flat, 0.0, 1.0 / ((w1 / chords[:-1] + w2 / chords[1:]) / (w1 + w2)))
    return np.concatenate(([_pchip_edge(widths[0], widths[1], chords[0], chords[1])],
                           inner,
                           [_pchip_edge(widths[-1], widths[-2], chords[-1], chords[-2])]))


def _pchip_edge(h0, h1, m0, m1):
    """SciPy's one-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def load_course_table(path) -> CourseProfile:
    """Read a two-column (x, h) text file; optional header, '#' comments.

    A file that is not such a table raises CourseFileError; the message
    names the line or the fault, and the caller names the path.
    """
    xs: list[float] = []
    hs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise CourseFileError("not a UTF-8 text file") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        try:
            values = [float(p) for p in parts]
        except ValueError:
            if lineno == 1 and not xs:
                continue  # header line
            raise CourseFileError(f"line {lineno}: not numeric: {line.strip()!r}")
        if len(values) != 2:
            raise CourseFileError(f"line {lineno}: expected two columns")
        xs.append(values[0])
        hs.append(values[1])
    if len(xs) < 2:
        raise CourseFileError("course table needs at least two data rows")
    return CourseProfile.from_table(xs, hs, label=str(path))


def demo_profile() -> CourseProfile:
    """Built-in hilly course: opening rise, fast mid-race descent, late climb.

    The descent is steep enough that gravity outweighs drag there, so the
    sheltered peloton out-descends a solo rider of equal power.
    """
    return CourseProfile.from_sinusoids(sin_amps=(0.006, 0.0),
                                        cos_amps=(0.0, 0.004),
                                        label="demo-hilly")


@dataclass(frozen=True)
class Trajectory:
    """Sampled time series for one group plus its finish time."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    powers: np.ndarray
    cumulative_energy: np.ndarray
    finish_time: float


@dataclass(frozen=True)
class BreakawayRun:
    rider: Trajectory
    peloton: Trajectory
    time_gap: float
    attack_time: float
    attack_position: float
    rider_energy: float
    peloton_energy: float


def _lurk_power(velocities, cd_position: float, mass_ratio: float):
    """Power holding a rider at drag ratio cd_position in the pack.

    Clamped at zero where gravity does the work.
    """
    raw = mass_ratio + (cd_position - mass_ratio) * np.asarray(velocities) ** 3
    return np.maximum(raw, 0.0)


def simulate_breakaway(x_attack: float, attack, profile: CourseProfile,
                       inertia: float = 0.005, gravity_ratio: float = 40.0,
                       cd_front: float = 1.43, cd_lurk: float = 0.46,
                       mass_ratio: float = 1.0, n_samples: int = 2049,
                       settings: SolverSettings = SIM_SETTINGS) -> BreakawayRun:
    """Simulate a breakaway at course position x_attack.

    `attack` is the post-attack power: a PowerProfile evaluated in time
    since the attack, a plain number for a constant power, or None to stay
    with the peloton for the whole race.  `inertia` is the velocity
    relaxation parameter epsilon, 0 for the quasi-steady limit, and
    `gravity_ratio` the gravity-to-drag force ratio gamma.  Both
    trajectories stop exactly at the finish line; the time gap is peloton
    time minus rider time.  The rider's energy is the trapezoid of the lurk
    power up to the attack plus the schedule's closed-form energy after it.
    """
    if not 0.0 <= x_attack < 1.0:
        raise ValueError("attack position must lie in [0, 1)")
    if not inertia >= 0.0:  # NaN fails too
        raise ValueError("inertia must be non-negative")
    # the peloton is the unit rider: power, drag and mass all 1
    t_p, peloton_state = _ride(0.0, 0.0, 1.0, lambda s: 1.0, profile,
                               gravity_ratio, 1.0, 1.0, inertia, settings, "peloton")
    times = np.array(linspace(0.0, t_p, n_samples))
    positions, velocities = peloton_state(times)
    peloton = Trajectory(times, positions, velocities,
                         powers=np.ones_like(times),
                         cumulative_energy=times.copy(), finish_time=t_p)
    n_half = max(n_samples // 2, 33)

    if attack is None:
        # the rider rides the peloton's trajectory at the lurking power
        powers = _lurk_power(peloton.velocities, cd_lurk, mass_ratio)
        energy = _cumtrapz(powers, peloton.times)
        rider = replace(peloton, powers=powers, cumulative_energy=energy)
        return BreakawayRun(rider, peloton, 0.0, math.nan, math.nan,
                            float(energy[-1]), t_p)

    power_profile = (attack if isinstance(attack, PowerProfile)
                     else PowerProfile.constant(float(attack)))

    # the rider tracks the peloton, so they reach x_attack when it does
    if x_attack == 0.0:
        t_attack = 0.0
    else:
        t_attack = find_root_bracketed(
            lambda t: float(peloton_state(t)[0]) - x_attack, 0.0, t_p, settings)

    pre_times = np.array(linspace(0.0, t_attack, n_half) if t_attack > 0.0 else [0.0])
    pre_x, pre_vel = peloton_state(pre_times)
    pre_pow = _lurk_power(pre_vel, cd_lurk, mass_ratio)
    pre_energy = _cumtrapz(pre_pow, pre_times)
    e_attack = float(pre_energy[-1])

    v_attack = float(peloton_state(t_attack)[1])
    t_f, state = _ride(x_attack, t_attack, v_attack, power_profile.power_at,
                       profile, gravity_ratio, cd_front, mass_ratio, inertia,
                       settings, "rider")
    post_times = linspace(t_attack, t_f, n_half)
    post_x, post_v = state(np.array(post_times))
    since = [t - t_attack for t in post_times]
    post_p = [power_profile.power_at(s) for s in since]
    post_e = [e_attack + power_profile.energy(s) for s in since]

    # keep the attack instant twice (lurk-side and attack-side samples) so a
    # trapezoid over the power series sees the jump as a vertical step
    rider = Trajectory(
        times=np.concatenate((pre_times, post_times)),
        positions=np.concatenate((pre_x, post_x)),
        velocities=np.concatenate((pre_vel, post_v)),
        powers=np.concatenate((pre_pow, post_p)),
        cumulative_energy=np.concatenate((pre_energy, post_e)),
        finish_time=t_f,
    )
    return BreakawayRun(
        rider=rider, peloton=peloton,
        time_gap=t_p - t_f,
        attack_time=t_attack, attack_position=x_attack,
        rider_energy=post_e[-1],
        peloton_energy=t_p,
    )


def _cumtrapz(values, times):
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size == 1:
        return np.zeros(1)
    steps = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    return np.concatenate(([0.0], np.cumsum(steps)))


def _dv_dv(p, v, cd_front, eps_mass):
    """dv'/dv = -(p/v^2 + 2 cd_front v) / (eps m), the ride's stiff entry."""
    return -(p / (v * v) + 2.0 * cd_front * v) / eps_mass


def _stiffness(x0, p, cruise, cd_front, eps_mass):
    """Bound on |dv'/dv| over a ride from x0 at power p.

    v = cruise(x, p) is the quasi-steady speed at power p, taken at 65 evenly
    spaced points of [x0, 1]; a stalled speed is infinitely stiff.
    """
    return max(-_dv_dv(p, v, cd_front, eps_mass) if v >= _V_STALL else math.inf
               for v in (cruise(x, p) for x in linspace(x0, 1.0, 65)))


def _ride(x0, t0, v0, power, profile, gamma, cd_front, mass_ratio, eps,
          settings, who):
    """Ride from state (x0, v0) at time t0 at power(t - t0) until x = 1.

    The ride is BDF on its analytic Jacobian when its _stiffness at the
    smaller of power(0) and power(_HORIZON) exceeds STIFFNESS_LIMIT, RK45
    otherwise.  eps = 0 is the quasi-steady limit: the state is x alone, the
    speed is the cubic root at (x, t), v0 is not used, and the march is
    RK45 at _QUASI_STEADY_SETTINGS whatever settings say.  Returns the finish time
    and the dense state (x, v) as a function of time, held at its finish
    value beyond the finish.
    """
    def cruise(x, p):
        # the largest root of the speed cubic: the only one uphill, and the
        # stable fast branch on descents where gravity dominates
        slope_term = mass_ratio * gamma * math.sin(profile.steepness(x))
        return solve_cubic_real(cd_front, slope_term, -p)[-1]

    def speed(x, p):
        v = cruise(x, p)
        if v < _V_STALL:
            raise StallError(f"{who} stalled before the finish line")
        return v

    if eps == 0.0:
        y0, settings, jac = [x0], _QUASI_STEADY_SETTINGS, None

        def rhs(t, y):
            return [speed(y[0], power(t - t0))]
    else:
        y0 = [x0, v0]
        if eps * mass_ratio == 0.0:
            raise NumericsError(f"{who} inertia times mass ratio underflows to 0")
        p_low = min(power(0.0), power(_HORIZON))
        bound = _stiffness(x0, p_low, cruise, cd_front, eps * mass_ratio)

        def rhs(t, y):
            x, v = float(y[0]), float(y[1])  # floats overflow to inf silently
            if not math.isfinite(x):  # the slope has no value there
                raise NumericsError(f"{who} position overflowed to {x!r}")
            p = power(t - t0)
            theta = profile.steepness(x)
            dv = (p / v - cd_front * v * v
                  - mass_ratio * gamma * math.sin(theta)) / (eps * mass_ratio)
            if not math.isfinite(dv):
                raise NumericsError(f"{who} acceleration overflowed at x = {x!r}")
            return [v, dv]

        def ride_jacobian(t, y):
            # d(sin theta)/dx = h''/(1 + h'^2)^1.5; power is a function of t
            x, v = float(y[0]), float(y[1])
            h1 = profile.slope(x)
            dv_dx = -gamma * profile.curvature(x) / ((1.0 + h1 * h1) ** 1.5 * eps)
            dv_dv = _dv_dv(power(t - t0), v, cd_front, eps * mass_ratio)
            return [[0.0, 1.0], [dv_dx, dv_dv]]
        jac = ride_jacobian if bound > STIFFNESS_LIMIT else None

    def finish(t, y):
        return y[0] - 1.0
    finish.direction = 1.0

    def stall(t, y):
        return y[1] - _V_STALL
    stall.direction = -1.0

    # a quasi-steady stall raises in speed(), where the cubic root is taken
    events = (finish,) if eps == 0.0 else (finish, stall)
    try:
        sol = ode_solve_with_events(rhs, y0, (t0, t0 + _HORIZON), events=events,
                                    settings=settings, jac=jac)
    except StiffnessError as exc:  # name the rider and the integrator
        method = "RK45" if jac is None else "BDF"
        raise StiffnessError(f"{who} {method} step fell below ten ulps of t") from exc
    if eps != 0.0 and sol.t_events[1].size:
        raise StallError(f"{who} stalled before the finish line")
    if not sol.t_events[0].size:
        raise RiderNeverFinishesError(f"{who} never reached the finish line")
    t_f = float(sol.t_events[0][0])
    if eps != 0.0:
        return t_f, lambda t: sol.sol(np.minimum(t, t_f))

    def state(t):
        t = np.minimum(t, t_f)
        x = sol.sol(t)[0]
        v = [speed(xk, power(tk - t0))
             for xk, tk in zip(np.ravel(x).tolist(), np.ravel(t).tolist())]
        return np.array([x, np.reshape(v, np.shape(x))])
    return t_f, state
