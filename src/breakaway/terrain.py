"""Race simulation over arbitrary elevation profiles.

The dimensionless equations of motion gain a gravity term gamma*sin(theta(x))
on a graded course, where tan(theta) = h'(x) and gamma is the gravity-to-drag
force ratio.  Every ride is one law in distance: it is marched in
xi = x - x0 from its own start x0 to the finish, xi = 1 - x0, with tau, the
time since the start, as a state.  Each ride is one solve, restarted at the
course's knots, where h'' may jump, so no step straddles a kink (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.6), and the finish is its end.
Two laws are provided:

* full second-order dynamics (inertia epsilon > 0): the state is (tau, v),
  dtau/dxi = 1/v and dv/dxi = v'/v, by implicit BDF on the ride's analytic
  Jacobian when the ride is stiff (see STIFFNESS_LIMIT) and by explicit RK45
  otherwise;
* the quasi-steady limit (epsilon = 0), where the speed V is the positive
  root of C_d v^3 + m*gamma*sin(theta) v = P at every point: the state is
  tau alone, dtau/dxi = 1/V(x0 + xi), always by RK45 and at tolerances 100x
  tighter than SIM_SETTINGS.

The peloton is the unit rider (power, drag and mass all 1) on the rider's
integrator, and each ride holds a constant power, so the ODEs carry only the
mechanics and a group's energy is its power times its time.  The rider hides
in the pack up to the attack position x_a: the attack time is the peloton's
tau(x_a), and the attack starts at the peloton's speed there.  While hiding
the rider moves with the peloton at the power found by eliminating the
gravity term between the two equations of motion, P_lurk = m + (C_d - m) v^3,
clamped at zero on descents where no pedaling is needed.  The peloton's
equation of motion eps v' = 1/v - v^2 - gamma sin(theta) times v gives
v^3 = 1 - gamma v sin(theta) - eps v v', also at eps = 0, so over a stretch
[a, b] where the clamp is off the lurk energy is the work-energy balance
C_d (t_b - t_a) - (C_d - m) [gamma (S(b) - S(a)) + eps (v_b^2 - v_a^2) / 2],
S(x) the integral of sin(theta) along the course.

The module imports no numpy: the course tables, the grade term, the rides of
ode.py and the dense states all run on Python floats and `math`, so a ride's
bits follow neither the SIMD kernel numpy picks for the CPU nor a BLAS
kernel.  The grade term is sin(theta) = h'/sqrt(1 + h'^2), with no arctan.
The quasi-steady speed is the largest root from numerics.solve_cubic_real.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

from .config import CourseFileError
from .numerics import (
    NumericsError,
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
# at SIM_SETTINGS the quasi-steady demo peloton is 1.6e-11 off an mpmath
# quadrature, at these 2.3e-14; its steps are cheap
_QUASI_STEADY_SETTINGS = SolverSettings(abs_tol=1e-14, rel_tol=1e-12)

_V_STALL = 1e-9

# A ride whose |dv'/dv| / v bound (see _stiffness) exceeds this is stiff:
# RK45's stability limit would cap its step in xi near 3/bound, so it rides
# BDF (Hairer & Wanner, Solving ODEs II, IV.2).  On the perfbench terrain
# rides of seeds 101-120 the RK45 rides (epsilon 0.005) bound at most 7,104
# and the BDF rides (epsilon 4e-4 to 6e-4) at least 13,554.  A table ride
# between them, bound 9,842, took 33,106 rhs evaluations by RK45 and 2,279 by
# BDF, so the limit sits near the RK45 side.
STIFFNESS_LIMIT = 8000.0


class CourseProfile(namedtuple("CourseProfile", "slope label knots", defaults=("custom", ()))):
    """A course by its slope h'(x) at one float x, and the sorted knots
    where h'' may jump; x and h per course length."""

    __slots__ = ()

    def steepness(self, x: float):
        """The grade term sin(theta(x)) = h'/sqrt(1 + h'^2), tan(theta) = h'(x)."""
        s = self.slope(x)
        return s / math.hypot(1.0, s)

    @classmethod
    def flat(cls) -> "CourseProfile":
        return cls(slope=lambda x: 0.0, label="flat")

    @classmethod
    def from_sinusoids(cls, sin_amps=(), cos_amps=(),
                       label: str = "sinusoid") -> "CourseProfile":
        """Height sum_k a_k sin(2 pi k x) + b_k (cos(2 pi k x) - 1).

        The cosine terms are shifted so the course starts at height zero.
        The slope sums its terms in order, from 0.0.  A zero amplitude's term
        is left out: it adds only +-0.0, to a sum that cannot be -0.0.
        """
        def terms(amps):  # (2 pi k a_k, 2 pi k) for k = 1, 2, ..., a_k != 0
            ks = [2.0 * math.pi * k for k in range(1, len(amps) + 1)]
            return [(float(a) * k, k) for a, k in zip(amps, ks) if float(a) != 0.0]
        sin_terms, cos_terms = terms(sin_amps), terms(cos_amps)

        def slope(x):
            x, up, down = float(x), 0.0, 0.0
            for c, k in sin_terms:
                up += c * math.cos(k * x)
            for c, k in cos_terms:
                down += c * math.sin(k * x)
            return up - down

        return cls(slope=slope, label=label)

    @classmethod
    def from_table(cls, xs, hs, label: str = "table") -> "CourseProfile":
        """Monotone cubic (PCHIP) interpolation of a sampled (x, h) course table.

        SciPy's PchipInterpolator float for float: knot slopes by Fritsch &
        Carlson's weighted harmonic mean with SciPy's three-point edge rule,
        cubic Hermite pieces, the slope of each piece evaluated as PPoly
        does (interval closed on the left, the end pieces extended).
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

        def slope(x):
            """PPoly's sum c0 + c1 s + c2 s^2 on the piece holding x."""
            i = min(max(bisect.bisect_right(knots, x) - 1, 0), last)
            (c0, c1, c2), s = pieces[i], x - knots[i]
            return 0.0 + c0 + c1 * s + c2 * (s * s)

        return cls(slope=slope, label=label, knots=tuple(knots[1:-1]))


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
    """The sign of a float: -1, 0 or 1."""
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


class Trajectory(namedtuple("Trajectory", "finish_time sample")):
    """One group's ride: its finish time, and sample(positions), its rows
    (time, speed, power, cumulative energy) at a sorted list of positions."""

    __slots__ = ()


BreakawayRun = namedtuple("BreakawayRun", "rider peloton time_gap attack_time "
                                          "rider_energy peloton_energy")


def simulate_breakaway(x_attack: float, attack, profile: CourseProfile,
                       inertia: float = 0.005, gravity_ratio: float = 40.0,
                       cd_front: float = 1.43, cd_lurk: float = 0.46,
                       mass_ratio: float = 1.0,
                       settings: SolverSettings | None = None) -> BreakawayRun:
    """Simulate a breakaway at course position x_attack.

    `attack` is the constant post-attack power, clamped at zero, or None to
    stay with the peloton for the whole race.  `inertia` is the velocity
    relaxation parameter epsilon, 0 for the quasi-steady limit, and
    `gravity_ratio` the gravity-to-drag force ratio gamma.  Both rides end at
    the finish line; the time gap is peloton time minus rider time.  The
    rider's energy is the work-energy balance of the module docstring,
    C_d = cd_lurk and m = mass_ratio, up to the attack, plus the attack power
    times the ride time after it.  A rider row at or before x_attack is the
    lurk's.
    """
    if not 0.0 <= x_attack < 1.0:
        raise ValueError("attack position must lie in [0, 1)")
    if not inertia >= 0.0:  # NaN fails too
        raise ValueError("inertia must be non-negative")
    settings = SIM_SETTINGS if settings is None else settings  # read at the call
    # the peloton is the unit rider: power, drag and mass all 1; its xi is x
    t_p, peloton_state, steps = _ride(0.0, 1.0, 1.0, profile, gravity_ratio,
                                      1.0, 1.0, inertia, settings, "peloton")
    peloton = Trajectory(t_p, lambda xs: [(t, v, 1.0, t) for t, v in map(peloton_state, xs)])
    lurk = _lurk(peloton_state, steps, profile, gravity_ratio, inertia, cd_lurk,
                 mass_ratio, settings)
    if attack is None:
        # the rider rides the peloton's trajectory at the lurking power
        return BreakawayRun(Trajectory(t_p, lurk), peloton, 0.0, math.nan,
                            lurk([1.0])[0][3], t_p)

    power = max(float(attack), 0.0)
    (t_attack, v_attack, _, e_attack), = lurk([x_attack])
    t_ride, state, _ = _ride(x_attack, v_attack, power, profile, gravity_ratio,
                             cd_front, mass_ratio, inertia, settings, "rider")

    def rider_sample(xs):
        k = bisect.bisect_right(xs, x_attack)
        return lurk(xs[:k]) + [(t_attack + tau, v, power, e_attack + power * tau)
                               for tau, v in (state(x - x_attack) for x in xs[k:])]
    t_f = t_attack + t_ride
    return BreakawayRun(Trajectory(t_f, rider_sample), peloton, t_p - t_f, t_attack,
                        e_attack + power * t_ride, t_p)


def _lurk(state, steps, profile, gamma, eps, cd_lurk, mass_ratio, settings):
    """Sampler of the lurking rider on the peloton's dense state at x: the
    work-energy balance between cuts at the positions and at the clamp's
    switches, Brent roots on the dense v in each accepted step (steps: end
    positions and speeds) whose ends differ; the clamp state at 0 flips at
    each switch."""
    def raw(v):
        return mass_ratio + (cd_lurk - mass_ratio) * v ** 3

    switches = [find_root_bracketed(lambda x: raw(state(x)[1]), a, b, settings)
                for a, b, v_a, v_b in zip(steps[0], steps[0][1:], steps[1], steps[1][1:])
                if (raw(v_a) < 0.0) != (raw(v_b) < 0.0)]

    def rise(a, b):
        """S(b) - S(a), split at the course's knots: no panel holds a kink."""
        knots = profile.knots[bisect.bisect_right(profile.knots, a):
                              bisect.bisect_left(profile.knots, b)]
        return math.fsum(integrate_adaptive(profile.steepness, u, w, settings)[0]
                         for u, w in zip((a, *knots), (*knots, b)))

    def sample(xs):
        cuts = sorted({0.0, *xs, *(s for s in switches if s < max(xs, default=0.0))})
        ts, vs = zip(*map(state, cuts))
        clamped, energy, energies = raw(vs[0]) < 0.0, 0.0, [0.0]
        for k in range(1, len(cuts)):
            clamped ^= cuts[k - 1] in switches
            if not clamped:
                energy += cd_lurk * (ts[k] - ts[k - 1]) - (cd_lurk - mass_ratio) * (
                    gamma * rise(cuts[k - 1], cuts[k]) + 0.5 * eps * (vs[k] ** 2 - vs[k - 1] ** 2))
            energies.append(energy)
        at = dict(zip(cuts, zip(ts, vs, energies)))
        return [(t, v, max(raw(v), 0.0), e) for t, v, e in (at[x] for x in xs)]
    return sample


def _dv_dv(p, v, cd_front, eps_mass):
    """dv'/dv = -(p/v^2 + 2 cd_front v) / (eps m), the ride's stiff term."""
    return -(p / (v * v) + 2.0 * cd_front * v) / eps_mass


def _stiffness(x0, p, cruise, cd_front, eps_mass):
    """Bound on |dv'/dv| / v, the speed's rate in xi, over a ride from x0.

    v = cruise(x) is the quasi-steady speed at power p, taken at 65 evenly
    spaced points of [x0, 1]; a stalled speed is infinitely stiff.
    """
    return max(-_dv_dv(p, v, cd_front, eps_mass) / v if v >= _V_STALL else math.inf
               for v in map(cruise, linspace(x0, 1.0, 65)))


def _ride(x0, v0, power, profile, gamma, cd_front, mass_ratio, eps, settings, who):
    """Ride from x0 at speed v0 and a constant power to x = 1.

    The ride is marched in xi = x - x0 over [0, 1 - x0], one solve restarted
    at the course's knots.  The state is (tau, v), tau the time since the
    start; eps = 0 is the quasi-steady limit, whose state is tau alone, its
    speed the cubic root at x, v0 not used, and its march RK45 at
    _QUASI_STEADY_SETTINGS whatever settings say.  A full-dynamics ride is
    BDF on its analytic Jacobian in (tau, v) when its _stiffness exceeds
    STIFFNESS_LIMIT, RK45 otherwise.  Returns the ride time, the dense tau at 1 - x0; the dense
    state, (tau, v) at a xi held in [0, 1 - x0]; and the accepted steps,
    their ends in xi and their speeds.
    On a full-dynamics ride, steps that collapse are a stall when its
    _stiffness bound is infinite, the quasi-steady speed stalling at a sample
    point: on the way to a speed the rider cannot hold, they raise
    StallError.  The solve's other failures, a collapse or an overrun of the
    ODE work budget, name who and the method.
    """
    m_gamma, steepness = mass_ratio * gamma, profile.steepness

    def cruise(x):
        # the largest root of the speed cubic: the only one uphill, and the
        # stable fast branch on descents where gravity dominates
        return solve_cubic_real(cd_front, m_gamma * steepness(x), -power)[-1]

    def speed(x):
        v = cruise(x)
        if v < _V_STALL:
            raise StallError(f"{who} stalled before the finish line")
        return v

    if eps == 0.0:
        y0, settings, jac, events, bound = [0.0], _QUASI_STEADY_SETTINGS, None, (), 0.0

        def rhs(xi, tau, _):
            return 1.0 / speed(x0 + xi), 0.0
    else:
        eps_mass = eps * mass_ratio
        if eps_mass == 0.0:
            raise NumericsError(f"{who} inertia times mass ratio underflows to 0")
        bound = _stiffness(x0, power, cruise, cd_front, eps_mass)

        def rhs(xi, tau, v):
            x = x0 + xi
            dv = (power / v - cd_front * v * v - m_gamma * steepness(x)) / eps_mass
            if not math.isfinite(dv):
                raise NumericsError(f"{who} acceleration overflowed at x = {x!r}")
            return 1.0 / v, dv / v

        def ride_jacobian(xi, tau, v):
            # x is the variable and the power constant, so the tau column is 0
            dv_dv = (_dv_dv(power, v, cd_front, eps_mass) - rhs(xi, tau, v)[1]) / v
            return [[0.0, -1.0 / (v * v)], [0.0, dv_dv]]
        jac = ride_jacobian if bound > STIFFNESS_LIMIT else None
        # a stall; a quasi-steady stall raises in speed(), where the cubic
        # root is taken
        y0, events = [0.0, v0], ((1, _V_STALL, -1),)

    try:
        sol = ode_solve_with_events(rhs, y0, (0.0, 1.0 - x0), events=events, settings=settings,
                                    jac=jac, breaks=[k - x0 for k in profile.knots], name=who)
    except StiffnessError as exc:
        if bound == math.inf:
            raise StallError(f"{who} stalled before the finish line") from exc
        raise
    if sol.event is not None:
        raise StallError(f"{who} stalled before the finish line")

    def state(xi):
        if eps != 0.0:
            return sol.sol(xi)
        xi = min(max(xi, 0.0), sol.t[-1])
        return sol.sol(xi)[0], speed(x0 + xi)
    speeds = sol.y[1] if eps != 0.0 else [speed(x0 + xi) for xi in sol.t]
    return state(sol.t[-1])[0], state, (sol.t, speeds)
