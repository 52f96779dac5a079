"""Core race model: drafting drag, terrain scales and the power schedule.

Everything downstream works in dimensionless variables: the course has unit
length, the peloton rides it in unit time at unit power, and the peloton's
total energy spend is one.  This module holds the exponential drafting-drag
law, the dimensionless ratios of the terrain dynamics, and the one power
schedule of the package: PowerProfile, piecewise constant and exponentially
decaying pieces with exact, closed-form energy accounting.

The standard calibration keeps the front-rider drag ratio (1.43) and the
position-5 lurking power (0.46) as independent inputs rather than deriving
both from the drag law, which cannot produce that pair simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DragParams",
    "PowerProfile",
    "ScaleSet",
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


def drag_at_depth(depth, drag: DragParams):
    """Raw drag coefficient at a drafting depth measured in axle spacings.

    Depth 0 is the front of the peloton; anything ahead of the front
    (negative depth) sees the full cd_max.  Accepts scalars or arrays.
    """
    depth = np.asarray(depth, dtype=float)
    sheltered = drag.cd_min + (drag.cd_max - drag.cd_min) * np.exp(-drag.decay * depth)
    out = np.where(depth < 0.0, drag.cd_max, sheltered)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScaleSet:
    """Dimensionless ratios of the terrain dynamics.

    inertia is the small velocity-relaxation parameter, gravity_ratio the
    gravity-to-drag force ratio used on graded courses.
    """

    inertia: float = 0.005
    gravity_ratio: float = 40.0

    def __post_init__(self):
        if self.inertia <= 0.0:
            raise ValueError("inertia must be positive")


class PowerProfile:
    """Piecewise power schedule: constant pieces and exponential decays.

    Pieces are defined on [t_k, t_{k+1}) with the last one extending to
    infinity.  Requested power is clamped at zero, and the cumulative energy
    integral is evaluated in closed form piece by piece (the clamp crossing,
    if any, is located analytically).
    """

    def __init__(self, breakpoints, pieces):
        breakpoints = [float(t) for t in breakpoints]
        if not breakpoints or breakpoints[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if any(b >= a for a, b in zip(breakpoints[1:], breakpoints[:-1])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(breakpoints):
            raise ValueError("need one piece per breakpoint")
        for piece in pieces:
            if piece[0] == "exp" and piece[3] <= 0.0:
                raise ValueError("exponential pieces need a positive rate")
        self._breaks = breakpoints
        self._pieces = list(pieces)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, level: float) -> "PowerProfile":
        return cls([0.0], [("const", max(float(level), 0.0))])

    @classmethod
    def piecewise_constant(cls, breakpoints, levels) -> "PowerProfile":
        return cls(list(breakpoints),
                   [("const", max(float(p), 0.0)) for p in levels])

    @classmethod
    def step_attack(cls, p_lurk: float, attack_time: float,
                    p_attack: float) -> "PowerProfile":
        """Lurk at p_lurk, then hold p_attack from the attack onward."""
        if attack_time <= 0.0:
            return cls.constant(p_attack)
        return cls.piecewise_constant([0.0, attack_time], [p_lurk, p_attack])

    @classmethod
    def fatigue_attack(cls, p_lurk: float, attack_time: float, p_max: float,
                       p_sustain: float, mu: float) -> "PowerProfile":
        """Lurk, then burst to p_max decaying at rate mu toward p_sustain."""
        if mu < 0.0:
            raise ValueError("fatigue rate must be non-negative")
        if mu == 0.0:
            return cls.step_attack(p_lurk, attack_time, p_max)
        piece = ("exp", float(p_sustain), float(p_max - p_sustain),
                 float(mu), float(attack_time))
        if attack_time <= 0.0:
            return cls([0.0], [piece])
        return cls([0.0, float(attack_time)], [("const", max(float(p_lurk), 0.0)), piece])

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _raw(piece, t):
        kind = piece[0]
        if kind == "const":
            return np.full_like(np.asarray(t, dtype=float), piece[1])
        _, floor, amp, rate, origin = piece
        return floor + amp * np.exp(-rate * (np.asarray(t, dtype=float) - origin))

    def power_at(self, t):
        """Power at time(s) t, clamped at zero."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._breaks, t_arr, side="right") - 1,
                      0, len(self._pieces) - 1)
        out = np.empty_like(t_arr, dtype=float)
        for k, piece in enumerate(self._pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = np.maximum(self._raw(piece, t_arr[mask]), 0.0)
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def _piece_energy(piece, a: float, b: float) -> float:
        """Exact integral of the clamped piece over [a, b]."""
        if b <= a:
            return 0.0
        kind = piece[0]
        if kind == "const":
            return piece[1] * (b - a)
        _, floor, amp, rate, origin = piece

        def _integral(lo, hi):
            # expm1 keeps the burst term accurate when rate * (hi - lo) is tiny
            return (floor * (hi - lo)
                    + amp * math.exp(-rate * (lo - origin))
                    * -math.expm1(-rate * (hi - lo)) / rate)

        raw_a = floor + amp * math.exp(-rate * (a - origin))
        raw_b = floor + amp * math.exp(-rate * (b - origin))
        if raw_a >= 0.0 and raw_b >= 0.0:
            return _integral(a, b)
        if raw_a <= 0.0 and raw_b <= 0.0:
            return 0.0
        # exactly one clamp crossing inside (a, b)
        t_cross = origin - math.log(-floor / amp) / rate
        if raw_a > 0.0:            # decaying through zero
            return _integral(a, t_cross)
        return _integral(t_cross, b)

    def energy(self, t: float) -> float:
        """Cumulative energy consumed by time t (t >= 0), in closed form."""
        if t < 0.0:
            raise ValueError("time must be non-negative")
        total = 0.0
        for k, piece in enumerate(self._pieces):
            lo = self._breaks[k]
            hi = self._breaks[k + 1] if k + 1 < len(self._breaks) else math.inf
            if t <= lo:
                break
            total += self._piece_energy(piece, lo, min(t, hi))
        return total
