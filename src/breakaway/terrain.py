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

The peloton is the unit rider (power, drag and mass all 1) on the rider's
integrator.  The ODEs carry only the mechanics: the peloton has spent its
elapsed time, and after the attack the rider's energy is PowerProfile.energy
in closed form.  While the rider hides in the pack they move with the
peloton at the power found by eliminating the gravity term between the two
equations of motion, P_lurk = m + (C_d - m) v^3, clamped at zero on descents
where no pedaling is needed.  The peloton's equation of motion
eps v' = 1/v - v^2 - gamma sin(theta) times v gives
v^3 = 1 - gamma v sin(theta) - eps v v', also at eps = 0, so over a stretch
[a, b] where the clamp is off the lurk energy is the work-energy balance
C_d (b - a) - (C_d - m) [gamma (S(x_b) - S(x_a)) + eps (v_b^2 - v_a^2) / 2],
S(x) the integral of sin(theta) along the course.

The module imports no numpy: the course tables, the slope and
PowerProfile.power_at, once per right-hand-side evaluation, the rides of
ode.py and the dense states all run on Python floats and `math`, so a ride's
bits follow neither the SIMD kernel numpy picks for the CPU nor a BLAS
kernel.  The course curvature h''(x) enters only BDF's Jacobian, through
d(sin theta)/dx.  The quasi-steady speed is the largest root from
numerics.solve_cubic_real.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

from .config import CourseFileError
from .model import PowerProfile
from .numerics import (
    NumericsError,
    RiderNeverFinishesError,
    SolverSettings,
    StallError,
    StiffnessError,
    find_root_bracketed,
    integrate_adaptive,
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
    """A course by its slope h'(x) and curvature h''(x) at one float x, and
    the sorted knots where h'' may jump; x and h per course length."""

    slope: Callable[[float], float]
    curvature: Callable[[float], float]
    label: str = "custom"
    knots: tuple = ()

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
        def terms(amps):  # (2 pi k a_k, 2 pi k) for k = 1, 2, ...
            ks = [2.0 * math.pi * k for k in range(1, len(amps) + 1)]
            return [(float(a) * k, k) for a, k in zip(amps, ks)]
        sin_terms, cos_terms = terms(sin_amps), terms(cos_amps)

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
        knots, hs = [float(x) for x in xs], [float(h) for h in hs]
        if len(knots) < 2:
            raise CourseFileError("course table needs at least two samples")
        if not all(map(math.isfinite, knots + hs)):
            raise CourseFileError("course samples must be finite numbers")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise CourseFileError("course x samples must increase strictly")
        if abs(knots[0]) > 1e-12 or abs(knots[-1] - 1.0) > 1e-12:
            raise CourseFileError("course table must span x = 0 to x = 1")
        _, quadratic = _pchip_coefficients(knots, hs)
        pieces, last = list(zip(*quadratic)), len(knots) - 2
        if not all(math.isfinite(c) for piece in pieces for c in piece):
            raise CourseFileError("course slopes overflow")

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

        return cls(slope=slope, curvature=curvature, label=label, knots=tuple(knots[1:-1]))


def _pchip_coefficients(xs, hs):
    """PCHIP pieces of h and h' in ascending powers of s = x - knot.

    SciPy's CubicHermiteSpline coefficients and PPoly's derivative factors
    1, 2, 3, element by element.  An overflow shows as an inf or a nan.
    """
    widths = [b - a for a, b in zip(xs, xs[1:])]
    chords = [(b - a) / w for a, b, w in zip(hs, hs[1:], widths)]
    d = _pchip_slopes(widths, chords)
    t = [(d0 + d1 - 2 * m) / w for d0, d1, m, w in zip(d, d[1:], chords, widths)]
    c2 = [(m - d0) / w - tk for m, d0, w, tk in zip(chords, d, widths, t)]
    c3 = [tk / w for tk, w in zip(t, widths)]
    cubic = (list(hs[:-1]), d[:-1], c2, c3)
    return cubic, (d[:-1], [c * 2.0 for c in c2], [c * 3.0 for c in c3])


def _sign(x):
    """The sign of a float or a numpy scalar: -1, 0 or 1."""
    return 1 if x > 0 else -1 if x < 0 else 0


def _pchip_slopes(widths, chords):
    """PCHIP knot slopes, as SciPy's PchipInterpolator finds them."""
    if len(chords) == 1:
        return chords * 2
    inner = []
    for h0, h1, m0, m1 in zip(widths, widths[1:], chords, chords[1:]):
        w1, w2 = 2 * h1 + h0, h1 + 2 * h0
        if _sign(m0) != _sign(m1) or m0 == 0 or m1 == 0:
            inner.append(0.0)
        else:  # the mean is 0 only where a chord overflows: then so does the slope
            mean = (w1 / m0 + w2 / m1) / (w1 + w2)
            inner.append(1.0 / mean if mean else math.inf)
    return [_pchip_edge(widths[0], widths[1], chords[0], chords[1]), *inner,
            _pchip_edge(widths[-1], widths[-2], chords[-1], chords[-2])]


def _pchip_edge(h0, h1, m0, m1):
    """SciPy's one-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
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
    """One group's ride: its finish time, and sample(times), its rows
    (position, speed, power, cumulative energy) at a sorted list of times."""

    finish_time: float
    sample: Callable[[list], list[tuple[float, float, float, float]]]


@dataclass(frozen=True)
class BreakawayRun:
    rider: Trajectory
    peloton: Trajectory
    time_gap: float
    attack_time: float
    rider_energy: float
    peloton_energy: float


def simulate_breakaway(x_attack: float, attack, profile: CourseProfile,
                       inertia: float = 0.005, gravity_ratio: float = 40.0,
                       cd_front: float = 1.43, cd_lurk: float = 0.46,
                       mass_ratio: float = 1.0,
                       settings: SolverSettings = SIM_SETTINGS) -> BreakawayRun:
    """Simulate a breakaway at course position x_attack.

    `attack` is the post-attack power: a PowerProfile evaluated in time
    since the attack, a plain number for a constant power, or None to stay
    with the peloton for the whole race.  `inertia` is the velocity
    relaxation parameter epsilon, 0 for the quasi-steady limit, and
    `gravity_ratio` the gravity-to-drag force ratio gamma.  Both
    trajectories stop exactly at the finish line; the time gap is peloton
    time minus rider time.  The rider's energy is the work-energy balance of
    the module docstring, C_d = cd_lurk and m = mass_ratio, up to the attack,
    plus the schedule's closed-form energy after it.  A rider sample at the
    attack time is taken on the lurk side, and a second one on the attack side.
    """
    if not 0.0 <= x_attack < 1.0:
        raise ValueError("attack position must lie in [0, 1)")
    if not inertia >= 0.0:  # NaN fails too
        raise ValueError("inertia must be non-negative")
    # the peloton is the unit rider: power, drag and mass all 1
    t_p, peloton_state, steps = _ride(0.0, 0.0, 1.0, lambda s: 1.0, profile, gravity_ratio,
                                      1.0, 1.0, inertia, settings, "peloton")
    peloton = Trajectory(t_p, _riding(peloton_state, 0.0, 0.0, PowerProfile.constant(1.0)))
    lurk = _lurk(peloton_state, steps, profile, gravity_ratio, inertia, cd_lurk,
                 mass_ratio, settings)
    if attack is None:
        # the rider rides the peloton's trajectory at the lurking power
        return BreakawayRun(Trajectory(t_p, lurk), peloton, 0.0, math.nan,
                            lurk([t_p])[0][3], t_p)

    power_profile = (attack if isinstance(attack, PowerProfile)
                     else PowerProfile.constant(float(attack)))

    # the rider tracks the peloton, so they reach x_attack when it does
    t_attack = 0.0 if x_attack == 0.0 else find_root_bracketed(
        lambda t: peloton_state(t)[0] - x_attack, 0.0, t_p, settings)
    (_, v_attack, _, e_attack), = lurk([t_attack])
    t_f, state, _ = _ride(x_attack, t_attack, v_attack, power_profile.power_at,
                          profile, gravity_ratio, cd_front, mass_ratio, inertia,
                          settings, "rider")
    ride = _riding(state, t_attack, e_attack, power_profile)

    def rider_sample(times):
        k = min(bisect.bisect_left(times, t_attack) + 1, bisect.bisect_right(times, t_attack))
        return lurk(times[:k]) + ride(times[k:])
    return BreakawayRun(Trajectory(t_f, rider_sample), peloton, t_p - t_f, t_attack,
                        e_attack + power_profile.energy(t_f - t_attack), t_p)


def _riding(state, t0, e0, schedule):
    """Sampler of a ride from time t0 at a PowerProfile, e0 spent before t0."""
    def sample(times):
        xs, vs = state(times)
        return [(x, v, schedule.power_at(t - t0), e0 + schedule.energy(t - t0))
                for t, x, v in zip(times, xs, vs)]
    return sample


def _lurk(state, steps, profile, gamma, eps, cd_lurk, mass_ratio, settings):
    """Sampler of the lurking rider on the peloton's dense state: the
    work-energy balance between cuts at the times and at the clamp's switches,
    Brent roots on the dense v in each accepted step (steps: end times and
    speeds) whose ends differ; the clamp state at 0 flips at each switch."""
    def raw(v):
        return mass_ratio + (cd_lurk - mass_ratio) * v ** 3

    switches = [find_root_bracketed(lambda t: raw(state(t)[1]), a, b, settings)
                for a, b, v_a, v_b in zip(steps[0], steps[0][1:], steps[1], steps[1][1:])
                if (raw(v_a) < 0.0) != (raw(v_b) < 0.0)]

    def rise(a, b):
        """S(b) - S(a), split at the course's knots: no panel holds a kink."""
        knots = profile.knots[bisect.bisect_right(profile.knots, a):
                              bisect.bisect_left(profile.knots, b)]
        return math.fsum(integrate_adaptive(lambda x: math.sin(profile.steepness(x)),
                                            u, w, settings)[0]
                         for u, w in zip((a, *knots), (*knots, b)))

    def sample(times):
        cuts = sorted({0.0, *times, *(s for s in switches if s < max(times, default=0.0))})
        xs, vs = state(cuts)
        clamped, energy, energies = raw(vs[0]) < 0.0, 0.0, [0.0]
        for k in range(1, len(cuts)):
            clamped ^= cuts[k - 1] in switches
            if not clamped:
                energy += cd_lurk * (cuts[k] - cuts[k - 1]) - (cd_lurk - mass_ratio) * (
                    gamma * rise(xs[k - 1], xs[k]) + 0.5 * eps * (vs[k] ** 2 - vs[k - 1] ** 2))
            energies.append(energy)
        at = dict(zip(cuts, zip(xs, vs, energies)))
        return [(x, v, max(raw(v), 0.0), e) for x, v, e in (at[t] for t in times)]
    return sample


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
    RK45 at _QUASI_STEADY_SETTINGS whatever settings say.  Returns the finish time,
    the dense state: (x, v) at a time, [xs, vs] at a list of times, held at
    its finish value beyond the finish, and the accepted steps: their end
    times and speeds.
    Steps that collapse where the quasi-steady speed stalls are a stall: on
    the way to a speed the rider cannot hold, they raise StallError.
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

    reached = [t0, x0]  # the last accepted time and position, seen by stall

    def stall(t, y):
        reached[:] = t, y[0]
        return y[1] - _V_STALL
    stall.direction = -1.0

    # a quasi-steady stall raises in speed(), where the cubic root is taken
    events = (finish,) if eps == 0.0 else (finish, stall)
    try:
        sol = ode_solve_with_events(rhs, y0, (t0, t0 + _HORIZON), events=events,
                                    settings=settings, jac=jac)
    except StiffnessError as exc:  # name the rider and the integrator
        if eps != 0.0 and cruise(reached[1], power(reached[0] - t0)) < _V_STALL:
            raise StallError(f"{who} stalled before the finish line") from exc
        method = "RK45" if jac is None else "BDF"
        raise StiffnessError(f"{who} {method} step fell below ten ulps of t") from exc
    if eps != 0.0 and sol.t_events[1]:
        raise StallError(f"{who} stalled before the finish line")
    if not sol.t_events[0]:
        raise RiderNeverFinishesError(f"{who} never reached the finish line")
    t_f, steps = sol.t_events[0][0], sol.t
    if eps != 0.0:
        return t_f, sol.sol, (steps, sol.y[1])

    def state(t):
        xs = sol.sol(t)[0]
        if isinstance(t, (int, float)):
            return xs, speed(xs, power(t - t0))
        return [xs, [speed(x, power(s - t0)) for x, s in zip(xs, t)]]
    return t_f, state, (steps, [speed(x, power(t - t0)) for t, x in zip(steps, sol.y[0])])
