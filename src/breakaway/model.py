"""Core race model: the drafting-drag law and its calibration.

Everything downstream works in dimensionless variables: the course has unit
length, the peloton rides it in unit time at unit power, and the peloton's
total energy spend is one.  This module holds the exponential drafting-drag
law.  It takes one float, as the ODE right-hand sides call it, and takes its
exponential from `math`, so its bits do not depend on the SIMD kernel numpy
would pick for the CPU.  Power schedules live with their commands: terrain
attacks hold a constant power, and the fatigue schedule's closed forms are
in `fatigue`.

The standard calibration keeps the front-rider drag ratio (1.43) and the
position-5 lurking power (0.46) as independent inputs rather than deriving
both from the drag law, which cannot produce that pair simultaneously.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "DragParams",
    "drag_at_depth",
    "CD_FRONT_CALIBRATED",
    "CD_LURK_CALIBRATED",
]

# Standard calibration: front-rider drag ratio and the position-5 lurking
# power used throughout the worked results.  Treated as independent inputs.
CD_FRONT_CALIBRATED = 1.43
CD_LURK_CALIBRATED = 0.46


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
