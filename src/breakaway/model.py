"""Core race model: drafting drag and the power schedule.

Everything downstream works in dimensionless variables: the course has unit
length, the peloton rides it in unit time at unit power, and the peloton's
total energy spend is one.  This module holds the exponential drafting-drag
law and the one power schedule of the package: PowerProfile, a lurk phase
followed by a burst that decays exponentially toward a sustainable floor (a
constant-power attack is its zero-rate case), with exact, closed-form energy
accounting.  The drag law and the schedule take one float, as the ODE
right-hand sides call them, and take their exponentials from `math`, so
their bits do not depend on the SIMD kernel numpy would pick for the CPU.

The standard calibration keeps the front-rider drag ratio (1.43) and the
position-5 lurking power (0.46) as independent inputs rather than deriving
both from the drag law, which cannot produce that pair simultaneously.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "DragParams",
    "PowerProfile",
    "drag_at_depth",
    "CD_FRONT_CALIBRATED",
    "CD_LURK_CALIBRATED",
]

# Standard calibration: front-rider drag ratio and the position-5 lurking
# power used throughout the worked results.  Treated as independent inputs.
CD_FRONT_CALIBRATED = 1.43
CD_LURK_CALIBRATED = 0.46


@dataclass(frozen=True)
class DragParams:
    """Exponential drafting-drag law: cd_min + (cd_max - cd_min) * exp(-decay * depth)."""

    cd_max: float = 0.9
    cd_min: float = 0.05
    decay: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.cd_min < self.cd_max:
            raise ValueError("need 0 < cd_min < cd_max")
        if self.decay <= 0.0:
            raise ValueError("decay must be positive")


def drag_at_depth(depth: float, drag: DragParams) -> float:
    """Raw drag coefficient at a drafting depth measured in axle spacings.

    Depth 0 is the front of the peloton; anything ahead of the front
    (negative depth) sees the full cd_max.
    """
    if depth < 0.0:
        return drag.cd_max
    return drag.cd_min + (drag.cd_max - drag.cd_min) * math.exp(-drag.decay * depth)


@dataclass(frozen=True)
class PowerProfile:
    """The lurk-then-burst power schedule, for times t >= 0.

    Power is p_lurk before attack_time and p_sustain + (p_max - p_sustain)
    * exp(-mu * (t - attack_time)) from then on; mu = 0 holds p_max, and
    attack_time <= 0 leaves no lurk phase.  Requested power is clamped at
    zero, and the cumulative energy is evaluated in closed form (the clamp
    crossing, if any, is located analytically).
    """

    p_lurk: float
    attack_time: float
    p_max: float
    p_sustain: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError("fatigue rate must be non-negative")

    def power_at(self, t: float) -> float:
        """Power at time t, clamped at zero."""
        if t < self.attack_time:
            p = self.p_lurk
        elif self.mu == 0.0:
            p = self.p_max
        else:
            p = self.p_sustain + (self.p_max - self.p_sustain) * math.exp(
                -self.mu * max(t - self.attack_time, 0.0))
        return 0.0 if p <= 0.0 else p  # -0.0 gives 0.0, NaN passes

    def energy(self, t: float) -> float:
        """Cumulative energy consumed by time t (t >= 0), in closed form."""
        if t < 0.0:
            raise ValueError("time must be non-negative")
        start = max(self.attack_time, 0.0)
        total = 0.0
        if t > 0.0 and start > 0.0:
            total += max(self.p_lurk, 0.0) * min(t, start)
        if t <= start:
            return total
        if self.mu * (t - self.attack_time) < sys.float_info.min:  # underflow: as mu = 0
            return total + max(self.p_max, 0.0) * (t - start)
        floor, amp, rate = self.p_sustain, self.p_max - self.p_sustain, self.mu

        def raw(s):
            return floor + amp * math.exp(-rate * (s - self.attack_time))

        def integral(lo, hi):
            # expm1 keeps the burst term accurate when rate * (hi - lo) is tiny
            return (floor * (hi - lo) + amp * math.exp(-rate * (lo - self.attack_time))
                    * -math.expm1(-rate * (hi - lo)) / rate)

        raw_start, raw_t = raw(start), raw(t)
        if raw_start >= 0.0 and raw_t >= 0.0:
            return total + integral(start, t)
        if raw_start <= 0.0 and raw_t <= 0.0:
            return total
        # exactly one clamp crossing inside (start, t)
        t_cross = self.attack_time - math.log(-floor / amp) / rate
        if raw_start > 0.0:        # decaying through zero
            return total + integral(start, t_cross)
        return total + integral(t_cross, t)
