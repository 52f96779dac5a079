"""Backward-propagating crash model and along-course exposure.

A crash starts at some rank in the peloton and sweeps backward: a rider at
position i behind the start at k is involved with probability exp(-omega*(i-k)),
riders ahead are spared.  With a uniform start rank the involvement
probability given a crash has the closed form

    H(i; omega) = (1 - exp(-omega*i)) / (N * (1 - exp(-omega))),

and crashes occur at a constant intensity along the course.  A rider's crash
exposure over the race is that intensity times the course integral of H at
the rider's drafting position.  The paper's rider has one trace: in the
pack at a fixed position until the attack point x_a, then solo at the
front; exposure_simple_attack is the explicit formula for it.  Exposure is
an expected involvement count, so it scales linearly with the intensity and
may exceed one.  A chunked, vectorized Monte Carlo estimator of the same
trace serves as the independent oracle for that formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CrashModel",
    "propagation_probability",
    "involvement_given_crash",
    "exposure_simple_attack",
    "monte_carlo_exposure",
]

_MC_CHUNKS = 16  # fixed substream count keeps results seed-deterministic
_MAX_EXPECTED_CRASHES = 1e8  # memory grows with it: 2 * 5e7 trials peaked at 502 MiB


def propagation_probability(position: Any, start: Any, omega: float) -> Any:
    """P(rider at `position` crashes | pile-up started at `start`), elementwise.

    Zero ahead of the start, exp(-omega*(position-start)) at or behind it.
    Takes and returns numpy arrays, typed Any as numpy loads only in the call.
    """
    import numpy as np  # only the Monte Carlo needs numpy

    if omega <= 0.0:
        raise ValueError("omega must be positive")
    decay = np.exp(-omega * np.maximum(position - start, 0.0))
    return np.where(position < start, 0.0, decay)


def involvement_given_crash(position: float, omega: float, n_riders: int) -> float:
    """P(rider at `position` is involved | a crash happened somewhere).

    Uniform start rank; geometric sum in closed form.  Valid for continuous
    positions >= 1.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if n_riders < 1:
        raise ValueError("n_riders must be at least 1")
    if position < 1.0:
        raise ValueError("position must be >= 1")
    return math.expm1(-omega * position) / math.expm1(-omega) / n_riders


@dataclass(frozen=True)
class CrashModel:
    """Crash propagation parameters.

    omega is the backward propagation rate, intensity the expected crash
    count per unit course length, and n_riders the peloton size over which
    a crash's start rank is uniform.
    """

    omega: float = 0.5
    intensity: float = 2.0
    n_riders: int = 75

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.intensity < 0.0:
            raise ValueError("intensity must be non-negative")
        if self.n_riders < 1:
            raise ValueError("n_riders must be at least 1")


def exposure_simple_attack(x_attack: float, position: float,
                           model: CrashModel) -> float:
    """Exposure for the lurk-then-attack trace, as an explicit formula."""
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    ratio = math.expm1(-model.omega * position) / math.expm1(-model.omega)
    return model.intensity / model.n_riders * (x_attack * ratio + 1.0 - x_attack)


def monte_carlo_exposure(x_attack: float, position: float, trials: int,
                         seed: int, model: CrashModel) -> tuple[float, float]:
    """Monte Carlo estimate of exposure_simple_attack, with its standard error.

    Per trial: crash count ~ Poisson(intensity); each crash gets a uniform
    course location, a uniform start rank and a Bernoulli involvement with
    the propagation probability at the rider's position there: `position`
    before x_attack, the front after it.  Trials are partitioned into a
    fixed number of seed-derived substreams and reduced in order, so results
    are reproducible for a given seed regardless of how the chunks are
    executed.
    """
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    if position < 1.0:
        raise ValueError("position must be >= 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if model.intensity * trials > _MAX_EXPECTED_CRASHES:
        raise ValueError(f"intensity * trials must be at most "
                         f"{_MAX_EXPECTED_CRASHES:g} expected crashes")
    import numpy as np  # only the Monte Carlo needs numpy
    children = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    base, extra = divmod(trials, _MC_CHUNKS)
    sum_x = 0.0
    sum_x2 = 0.0
    for c, child in enumerate(children):
        n = base + (1 if c < extra else 0)
        if n == 0:
            continue
        rng = np.random.default_rng(child)
        counts = rng.poisson(model.intensity, size=n)
        total = int(counts.sum())
        if total == 0:
            continue
        x = rng.uniform(0.0, 1.0, size=total)
        starts = rng.integers(1, model.n_riders + 1, size=total).astype(float)
        p_inv = propagation_probability(np.where(x < x_attack, position, 1.0),
                                       starts, model.omega)
        hits = rng.uniform(0.0, 1.0, size=total) < p_inv
        trial_idx = np.repeat(np.arange(n), counts)
        per_trial = np.bincount(trial_idx[hits], minlength=n).astype(float)
        sum_x += float(per_trial.sum())
        sum_x2 += float((per_trial**2).sum())

    mean = sum_x / trials
    if trials > 1:
        var = max(0.0, (sum_x2 - trials * mean**2) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = math.inf
    return mean, stderr
