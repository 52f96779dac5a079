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
trace serves as the independent oracle for that formula; it draws only the
crashes that can reach the rider.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any

__all__ = [
    "CrashModel",
    "propagation_probability",
    "involvement_given_crash",
    "exposure_simple_attack",
    "monte_carlo_exposure",
]

_MC_CHUNKS = 16  # fixed substream count keeps results seed-deterministic
_MAX_EXPECTED_CRASHES = 1e8  # 2 * 5e7 trials peaked at 58 MiB at position 5, 334 at 75


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


def _check_position(position: float, n_riders: int) -> None:
    if not 1.0 <= position <= n_riders:  # NaN fails too
        raise ValueError("position must be >= 1 and at most n_riders")


def involvement_given_crash(position: float, omega: float, n_riders: int) -> float:
    """P(rider at `position` is involved | a crash happened somewhere).

    Uniform start rank; geometric sum in closed form.  Valid for continuous
    positions from 1 to n_riders: no start rank lies deeper.
    """
    if not omega > 0.0:  # NaN fails each of these checks too
        raise ValueError("omega must be positive")
    if not n_riders >= 1:
        raise ValueError("n_riders must be at least 1")
    _check_position(position, n_riders)
    return math.expm1(-omega * position) / math.expm1(-omega) / n_riders


class CrashModel(namedtuple("CrashModel", "omega intensity n_riders")):
    """Crash propagation parameters.

    omega is the backward propagation rate, intensity the expected crash
    count per unit course length, and n_riders the peloton size over which
    a crash's start rank is uniform.
    """

    __slots__ = ()

    def __new__(cls, omega: float = 0.5, intensity: float = 2.0, n_riders: int = 75):
        if not omega > 0.0:  # NaN fails each of these checks too
            raise ValueError("omega must be positive")
        if not intensity >= 0.0:
            raise ValueError("intensity must be non-negative")
        if not n_riders >= 1:
            raise ValueError("n_riders must be at least 1")
        return tuple.__new__(cls, (omega, intensity, n_riders))


def exposure_simple_attack(x_attack: float, position: float,
                           model: CrashModel) -> float:
    """Exposure for the lurk-then-attack trace, as an explicit formula."""
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    _check_position(position, model.n_riders)
    ratio = math.expm1(-model.omega * position) / math.expm1(-model.omega)
    return model.intensity / model.n_riders * (x_attack * ratio + 1.0 - x_attack)


def _chunk(child: Any, n: int, x_attack: float, position: float,
           model: CrashModel) -> tuple[int, int]:
    """Sum and sum of squares of the per-trial hit counts of n >= 1 trials."""
    import numpy as np  # only the Monte Carlo needs numpy

    rng = np.random.default_rng(child)
    # rank `position` before x_attack, 1 after it: no deeper start reaches the rider
    reach = math.floor(position) if x_attack > 0.0 else 1
    near = rng.poisson(n * model.intensity * reach / model.n_riders)  # of all n trials
    starts = rng.integers(1, reach + 1, size=near)
    x, u = rng.uniform(0.0, 1.0, size=(2, near))
    p_inv = propagation_probability(np.where(x < x_attack, position, 1.0),
                                   starts, model.omega)
    hits = int(np.count_nonzero(u < p_inv))
    # each hit falls in a uniform trial, independently of the others
    per_trial = np.unique(rng.integers(0, n, size=hits), return_counts=True)[1]
    return hits, int((per_trial * per_trial).sum())


def monte_carlo_exposure(x_attack: float, position: float, trials: int,
                         seed: int, model: CrashModel) -> tuple[float, float]:
    """Monte Carlo estimate of exposure_simple_attack, with its standard error.

    Per trial: crash count ~ Poisson(intensity); each crash gets a uniform
    course location, a uniform start rank and a Bernoulli involvement with
    the propagation probability at the rider's position there: `position`
    before x_attack, the front after it.  Trials are partitioned into a
    fixed number of seed-derived substreams.  By Poisson thinning and
    superposition a substream draws only the crashes that start within the
    rider's deepest rank, as one count for all its trials, and puts each
    hit in a uniform trial: the per-trial counts keep their joint law.
    The substreams run in order and their integer sums reduce in order, so
    results are reproducible for a given seed.
    """
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    _check_position(position, model.n_riders)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if model.intensity * trials > _MAX_EXPECTED_CRASHES:
        raise ValueError(f"intensity * trials must be at most "
                         f"{_MAX_EXPECTED_CRASHES:g} expected crashes")
    import numpy as np  # only the Monte Carlo needs numpy
    children = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    base, extra = divmod(trials, _MC_CHUNKS)
    # with fewer trials than chunks, the chunks past `trials` would be empty
    sums = [_chunk(children[c], base + (c < extra), x_attack, position, model)
            for c in range(min(trials, _MC_CHUNKS))]
    sum_x, sum_x2 = map(sum, zip(*sums))

    mean = sum_x / trials
    if trials > 1:
        var = max(0.0, (sum_x2 - trials * mean**2) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = math.inf
    return mean, stderr
