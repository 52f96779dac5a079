"""Backward-propagating crash model and along-course exposure.

A crash starts at some rank in the peloton and sweeps backward: a rider at
position i behind the start at k is involved with probability exp(-omega*(i-k)),
riders ahead are spared.  With a uniform start rank the involvement
probability given a crash has the closed form

    H(i; omega) = (1 - exp(-omega*i)) / (N * (1 - exp(-omega))),

and a rider's crash exposure over the race is the crash intensity times the
course integral of H at the rider's (piecewise-constant) drafting position.
Exposure is an expected involvement count, so it scales linearly with the
intensity and may exceed one.

Custom start distributions and propagation kernels plug in through
CrashModel, and exposure then sums the kernel over start ranks instead of
using the closed form; exposure_simple_attack is the explicit formula for
the lurk-then-attack trace.  A chunked, vectorized Monte Carlo estimator
serves as the independent oracle for the analytic integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DEFAULT_SETTINGS, integrate_adaptive

__all__ = [
    "CrashModel",
    "PositionTrace",
    "propagation_probability",
    "involvement_given_crash",
    "exposure",
    "exposure_simple_attack",
    "monte_carlo_exposure",
]

_MC_CHUNKS = 16  # fixed substream count keeps results seed-deterministic


def propagation_probability(position, start, omega: float):
    """P(rider at `position` crashes | pile-up started at `start`).

    Zero ahead of the start, exp(-omega*(position-start)) at or behind it.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    position = np.asarray(position, dtype=float)
    start = np.asarray(start, dtype=float)
    decay = np.exp(-omega * np.maximum(position - start, 0.0))
    out = np.where(position < start, 0.0, decay)
    return float(out) if out.ndim == 0 else out


def involvement_given_crash(position, omega: float, n_riders: int):
    """P(rider at `position` is involved | a crash happened somewhere).

    Uniform start rank; geometric sum in closed form.  Valid for continuous
    positions >= 1.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if n_riders < 1:
        raise ValueError("n_riders must be at least 1")
    position = np.asarray(position, dtype=float)
    if np.any(position < 1.0):
        raise ValueError("position must be >= 1")
    out = np.expm1(-omega * position) / np.expm1(-omega) / n_riders
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PositionTrace:
    """Piecewise-constant drafting position along the course x in [0, 1]."""

    boundaries: tuple[float, ...]
    positions: tuple[float, ...]

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if b.size != p.size + 1:
            raise ValueError("need len(boundaries) == len(positions) + 1")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("trace must span [0, 1]")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("boundaries must increase strictly")
        if np.any(p < 1.0):
            raise ValueError("drafting positions must be >= 1")

    @classmethod
    def constant(cls, position: float) -> "PositionTrace":
        return cls((0.0, 1.0), (float(position),))

    @classmethod
    def simple_attack(cls, position: float, x_attack: float) -> "PositionTrace":
        """In the pack at `position` until x_attack, then solo at the front."""
        if not 0.0 <= x_attack <= 1.0:
            raise ValueError("attack position must lie in [0, 1]")
        if x_attack <= 0.0:
            return cls.constant(1.0)
        if x_attack >= 1.0:
            return cls.constant(position)
        return cls((0.0, float(x_attack), 1.0), (float(position), 1.0))

    def position_at(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.boundaries, x, side="right") - 1,
                      0, len(self.positions) - 1)
        out = np.asarray(self.positions, dtype=float)[idx]
        return float(out) if out.ndim == 0 else out

    def segments(self):
        """Yield (x_lo, x_hi, position) triples."""
        for k, pos in enumerate(self.positions):
            yield self.boundaries[k], self.boundaries[k + 1], pos


def _exponential_kernel(omega: float) -> Callable:
    def kernel(position, start):
        return propagation_probability(position, start, omega)
    return kernel


@dataclass(frozen=True)
class CrashModel:
    """Crash propagation parameters.

    intensity is the expected crash count per unit course length (a callable
    of x is accepted for inhomogeneous courses).  start_distribution is a
    probability mass over start ranks 1..N (uniform when omitted); kernel is
    the involvement probability kernel(position, start) (exponential
    backward propagation when omitted).
    """

    omega: float = 0.5
    intensity: float | Callable = 2.0
    n_riders: int = 75
    start_distribution: tuple[float, ...] | None = None
    kernel: Callable | None = None

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if not callable(self.intensity) and self.intensity < 0.0:
            raise ValueError("intensity must be non-negative")
        if self.n_riders < 1:
            raise ValueError("n_riders must be at least 1")
        if self.start_distribution is not None:
            w = np.asarray(self.start_distribution, dtype=float)
            if w.size != self.n_riders:
                raise ValueError("start_distribution must have one weight per rider")
            if np.any(w < 0.0) or not math.isclose(float(w.sum()), 1.0,
                                                   rel_tol=0.0, abs_tol=1e-9):
                raise ValueError("start_distribution must be a probability mass")
            object.__setattr__(self, "start_distribution", tuple(float(v) for v in w))
        if self.kernel is not None:
            # spot-check the kernel contract at the start rank
            at_start = float(np.asarray(self.kernel(1.0, 1.0)))
            ahead = float(np.asarray(self.kernel(1.0, 2.0)))
            if abs(at_start - 1.0) > 1e-9 or abs(ahead) > 1e-9:
                raise ValueError("kernel must give 1 at the start rank and 0 ahead of it")

    def kernel_or_default(self) -> Callable:
        return self.kernel if self.kernel is not None else _exponential_kernel(self.omega)

    def start_weights(self) -> np.ndarray:
        if self.start_distribution is None:
            return np.full(self.n_riders, 1.0 / self.n_riders)
        return np.asarray(self.start_distribution, dtype=float)

    def involvement_general(self, position) -> np.ndarray:
        """Sum over start ranks of kernel(position, k) * P(start = k)."""
        position = np.atleast_1d(np.asarray(position, dtype=float))
        starts = np.arange(1, self.n_riders + 1, dtype=float)
        kern = self.kernel_or_default()
        probs = kern(position[:, None], starts[None, :])
        return probs @ self.start_weights()


def _segment_intensity_mass(model: CrashModel, x_lo: float, x_hi: float) -> float:
    """Integral of the crash intensity over one course segment."""
    if callable(model.intensity):
        value, _ = integrate_adaptive(model.intensity, x_lo, x_hi, DEFAULT_SETTINGS)
        return value
    return model.intensity * (x_hi - x_lo)


def exposure(trace: PositionTrace, model: CrashModel) -> float:
    """Expected crash involvements over the race.

    Uses the uniform-start closed form when the model has neither a kernel
    nor a start distribution, and the sum over start ranks otherwise.
    """
    closed_form = model.kernel is None and model.start_distribution is None
    total = 0.0
    for x_lo, x_hi, pos in trace.segments():
        if closed_form:
            h = involvement_given_crash(pos, model.omega, model.n_riders)
        else:
            h = float(model.involvement_general(pos)[0])
        total += h * _segment_intensity_mass(model, x_lo, x_hi)
    return total


def exposure_simple_attack(x_attack: float, position: float,
                           model: CrashModel) -> float:
    """Exposure for the lurk-then-attack trace, as an explicit formula."""
    if not 0.0 <= x_attack <= 1.0:
        raise ValueError("attack position must lie in [0, 1]")
    if callable(model.intensity):
        raise ValueError("closed form requires a constant intensity")
    ratio = np.expm1(-model.omega * position) / np.expm1(-model.omega)
    return model.intensity / model.n_riders * (x_attack * ratio + 1.0 - x_attack)


def _intensity_bound(model: CrashModel) -> float:
    if not callable(model.intensity):
        return float(model.intensity)
    grid = np.linspace(0.0, 1.0, 2049)
    return float(np.max([model.intensity(x) for x in grid])) * 1.0000001


def monte_carlo_exposure(trace: PositionTrace, model: CrashModel,
                         trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the exposure with its standard error.

    Per trial: crash count ~ Poisson(total intensity); each crash gets a
    uniform course location (thinned when the intensity varies with x), a
    start rank from the start distribution, and a Bernoulli involvement from
    the kernel.  Trials are partitioned into a fixed number of seed-derived
    substreams and reduced in order, so results are reproducible for a given
    seed regardless of how the chunks are executed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    lam_max = _intensity_bound(model)
    kern = model.kernel_or_default()
    weights = model.start_weights()
    uniform_start = model.start_distribution is None

    children = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    base, extra = divmod(trials, _MC_CHUNKS)
    sum_x = 0.0
    sum_x2 = 0.0
    for c, child in enumerate(children):
        n = base + (1 if c < extra else 0)
        if n == 0:
            continue
        rng = np.random.default_rng(child)
        counts = rng.poisson(lam_max, size=n)
        total = int(counts.sum())
        if total == 0:
            continue
        x = rng.uniform(0.0, 1.0, size=total)
        keep = np.ones(total, dtype=bool)
        if callable(model.intensity):
            accept = np.asarray([model.intensity(v) for v in x]) / lam_max
            keep = rng.uniform(0.0, 1.0, size=total) < accept
        if uniform_start:
            starts = rng.integers(1, model.n_riders + 1, size=total).astype(float)
        else:
            starts = (rng.choice(model.n_riders, size=total, p=weights) + 1.0)
        pos = trace.position_at(x)
        p_inv = np.asarray(kern(pos, starts), dtype=float)
        hits = keep & (rng.uniform(0.0, 1.0, size=total) < p_inv)
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
