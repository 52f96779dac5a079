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
trace serves as the independent oracle for that formula; it draws every
variate but tests only the crashes that can reach the rider, on two threads.
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
_MC_WORKERS = 2  # numpy's fills release the GIL; each thread holds one chunk's arrays
_MAX_EXPECTED_CRASHES = 1e8  # memory grows with it: 2 * 5e7 trials peaked at 336 MiB


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
    ends = np.cumsum(rng.poisson(model.intensity, size=n))
    total = int(ends[-1])
    x = rng.uniform(0.0, 1.0, size=total)
    starts = rng.integers(1, model.n_riders + 1, size=total)
    # the rider rides at rank `position` or 1, so no deeper start reaches them
    near = np.flatnonzero(starts <= position)
    x, starts = x[near], starts[near].astype(float)
    u = rng.uniform(0.0, 1.0, size=total)[near]
    p_inv = propagation_probability(np.where(x < x_attack, position, 1.0),
                                   starts, model.omega)
    # crash i belongs to the first trial whose running count exceeds i
    trial = np.searchsorted(ends, near[u < p_inv], side="right")
    per_trial = np.unique(trial, return_counts=True)[1]
    return int(per_trial.sum()), int((per_trial * per_trial).sum())


def monte_carlo_exposure(x_attack: float, position: float, trials: int,
                         seed: int, model: CrashModel) -> tuple[float, float]:
    """Monte Carlo estimate of exposure_simple_attack, with its standard error.

    Per trial: crash count ~ Poisson(intensity); each crash gets a uniform
    course location, a uniform start rank and a Bernoulli involvement with
    the propagation probability at the rider's position there: `position`
    before x_attack, the front after it.  Trials are partitioned into a
    fixed number of seed-derived substreams that draw every variate; only
    crashes that start at or ahead of the rider's rank are tested.  The
    substreams run on _MC_WORKERS threads and their integer sums reduce in
    order, so results are reproducible for a given seed.
    """
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    _check_position(position, model.n_riders)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if model.intensity * trials > _MAX_EXPECTED_CRASHES:
        raise ValueError(f"intensity * trials must be at most "
                         f"{_MAX_EXPECTED_CRASHES:g} expected crashes")
    import threading  # numpy loads it anyway; concurrent.futures would load logging

    import numpy as np  # only the Monte Carlo needs numpy
    children = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    base, extra = divmod(trials, _MC_CHUNKS)
    sums = [(0, 0)] * _MC_CHUNKS
    errors: list[BaseException | None] = [None] * _MC_WORKERS

    def work(first: int) -> None:
        try:  # the chunks past `trials` are empty
            for c in range(first, min(trials, _MC_CHUNKS), _MC_WORKERS):
                if not any(errors):
                    sums[c] = _chunk(children[c], base + (c < extra), x_attack, position, model)
        except BaseException as exc:  # raised again in the caller, not lost here
            errors[first] = exc

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, _MC_WORKERS)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    for exc in filter(None, errors):
        raise exc
    sum_x, sum_x2 = map(sum, zip(*sums))

    mean = sum_x / trials
    if trials > 1:
        var = max(0.0, (sum_x2 - trials * mean**2) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = math.inf
    return mean, stderr
