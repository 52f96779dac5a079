import math

import numpy as np
import pytest
from scipy.integrate import quad

from breakaway import microstructure
from breakaway.microstructure import DragParams
from breakaway.numerics import SolverSettings
from breakaway.microstructure import (
    NeverReachesFrontError,
    StartDragError,
    attack_onset,
    peloton_passage,
    relative_drag_behind_front,
    _passage_finite,
)

DRAG = DragParams()
CD_AVG = 0.9 / 1.43
CD_FRONT = 1.43


def surplus_work(position, power):
    """Oracle: integral of the power surplus across the pack, by quadrature."""
    value, _ = quad(
        lambda z: power - relative_drag_behind_front(z, DRAG, CD_AVG),
        -(position - 1.0), 0.0, epsabs=1e-12, epsrel=1e-12)
    return value


class TestDragOrientation:
    def test_front_value(self):
        assert relative_drag_behind_front(0.0, DRAG, CD_AVG) == pytest.approx(1.43)

    def test_deep_in_pack_is_sheltered(self):
        assert relative_drag_behind_front(-4.0, DRAG, CD_AVG) < 1.0

    def test_ahead_of_pack_full_drag(self):
        assert relative_drag_behind_front(2.0, DRAG, CD_AVG) == pytest.approx(1.43)

    def test_monotone_toward_front(self):
        zetas = np.linspace(-12.0, 0.0, 200).tolist()
        values = [relative_drag_behind_front(z, DRAG, CD_AVG) for z in zetas]
        assert np.all(np.diff(values) >= 0.0)


class TestPassageLayer:
    def test_front_start_is_trivial(self):
        layer = peloton_passage(1.0, 4.0, DRAG, CD_AVG)
        assert layer.duration == 0.0
        assert 1.0 + layer.exit_slope == 1.0

    def test_energy_identity(self):
        # the layer is conservative: (gamma m / 2) u^2 equals the work done
        rng = np.random.default_rng(12)
        for _ in range(10):
            position = rng.uniform(2.0, 9.0)
            power = rng.uniform(2.0, 6.0)
            gamma = rng.uniform(0.5, 4.0)
            mass = rng.uniform(0.7, 1.3)
            layer = peloton_passage(position, power, DRAG, CD_AVG,
                                    mass_ratio=mass, gamma_ratio=gamma)
            kinetic = 0.5 * gamma * mass * layer.exit_slope**2
            assert kinetic == pytest.approx(surplus_work(position, power),
                                            rel=1e-8)

    def test_duration_against_quadrature(self):
        # time across the pack from the energy relation, u-substituted so the
        # square-root start is integrable
        position, power, gamma, mass = 5.0, 4.0, 1.0, 1.0
        zeta0 = -(position - 1.0)

        def slope_at(zeta):
            value, _ = quad(
                lambda z: power - relative_drag_behind_front(z, DRAG, CD_AVG),
                zeta0, zeta, epsabs=1e-13)
            return math.sqrt(2.0 * value / (gamma * mass))

        ref, _ = quad(lambda u: 2.0 * u / slope_at(zeta0 + u * u),
                      0.0, math.sqrt(-zeta0), epsabs=1e-10, limit=200)
        layer = peloton_passage(position, power, DRAG, CD_AVG)
        assert layer.duration == pytest.approx(ref, rel=1e-7)

    def test_weak_power_never_reaches_front(self):
        with pytest.raises(NeverReachesFrontError):
            peloton_passage(5.0, 0.3, DRAG, CD_AVG)

    def test_mid_pack_force_balance_turns_back(self):
        # power above the local drag at the start but below the front drag
        start_drag = relative_drag_behind_front(-4.0, DRAG, CD_AVG)
        with pytest.raises(NeverReachesFrontError):
            peloton_passage(5.0, start_drag + 0.05, DRAG, CD_AVG)

    def test_scaling_limit_of_finite_passage(self):
        # as eps -> 0 the finite-inertia crossing speed approaches
        # 1 + gamma*sqrt(eps)*exit_slope from the leading-order layer
        layer = peloton_passage(5.0, 4.0, DRAG, CD_AVG, gamma_ratio=1.0)
        settings = SolverSettings(abs_tol=1e-13, rel_tol=1e-12)
        ratios = []
        for eps in (1e-5, 1e-7):
            _, v_front, _, _ = _passage_finite(eps, 5.0, 4.0, DRAG, CD_AVG,
                                               1.0, 1.0, settings)
            ratios.append((v_front - 1.0) / (math.sqrt(eps) * layer.exit_slope))
        assert ratios[0] == pytest.approx(1.0, abs=0.05)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


@pytest.mark.parametrize("key, error, message", [
    ("eps", ValueError, "eps must be positive"),
    ("position", ValueError, "position must be >= 1"),
    ("power", StartDragError, "need more than"),
    ("gamma_ratio", ValueError, "gamma_ratio must be positive"),
    ("mass_ratio", ValueError, "mass_ratio must be positive"),
])
def test_nan_input_fails_its_own_check(key, error, message):
    # not deep in the ODE layer as "t_span must increase"
    args = dict(eps=0.005, position=5.0, power=4.0, drag=DRAG, cd_avg=CD_AVG,
                n_samples=33)
    with pytest.raises(error, match=message):
        attack_onset(**{**args, key: math.nan})
    if key != "eps":
        del args["eps"], args["n_samples"]
        with pytest.raises(error, match=message):
            peloton_passage(**{**args, key: math.nan})


def test_attack_onset_settings_reach_every_solve(monkeypatch):
    # the window's passage solve too, not only the three solves it sizes
    tight, seen = SolverSettings(abs_tol=1e-14, rel_tol=1e-13), []
    solve = microstructure.ode_solve_with_events

    def record(*args, **kwargs):
        seen.append((kwargs["name"], kwargs["settings"]))
        return solve(*args, **kwargs)
    monkeypatch.setattr(microstructure, "ode_solve_with_events", record)
    attack_onset(0.005, 5.0, 4.0, DRAG, CD_AVG, n_samples=33, settings=tight)
    assert seen == [("passage", tight), ("full", tight), ("passage", tight),
                    ("relaxation", tight)]


class TestCompositeVsFull:
    EPS = 0.005
    GAMMA = 6.0   # slow enough passage that the rider crests above the solo speed

    def run_onset(self, **kw):
        args = dict(eps=self.EPS, position=5.0, power=4.0, drag=DRAG,
                    cd_avg=CD_AVG, gamma_ratio=self.GAMMA)
        args.update(kw)
        return attack_onset(**args)

    def test_agreement_bound(self):
        onset = self.run_onset()
        assert np.max(onset.rel_deviation) < 5.0 * self.EPS

    def test_series_are_float_tuples(self):
        onset = self.run_onset(n_samples=33)
        for series in (onset.times, onset.v_full, onset.v_composite,
                       onset.rel_deviation):
            assert type(series) is tuple and len(series) == 33
            assert all(type(v) is float for v in series)

    def test_terminal_speed(self):
        onset = self.run_onset()
        v_eq = (4.0 / CD_FRONT) ** (1.0 / 3.0)
        assert onset.terminal_speed == pytest.approx(v_eq, abs=1e-12)
        assert abs(onset.v_full[-1] - v_eq) < 1e-6
        assert abs(onset.v_composite[-1] - v_eq) < 1e-6

    def test_single_interior_maximum(self):
        v = np.asarray(self.run_onset().v_full)
        k = int(np.argmax(v))
        assert 0 < k < v.size - 1
        moves = np.diff(v)
        moves = moves[np.abs(moves) > 1e-10]
        assert np.sum(np.diff(np.sign(moves)) != 0) == 1

    def test_matching_at_front_crossing(self):
        # the passage hands its crossing speed to the relaxation: the
        # composite samples either side of the crossing lie within one
        # sample-to-sample step (the larger of the steps just outside them)
        # of it, so a relaxation started from any other speed shows
        onset = self.run_onset()
        v = np.asarray(onset.v_composite)
        k = int(np.searchsorted(onset.times, onset.front_crossing_time))
        assert 1 < k < v.size - 1
        step = max(abs(v[k - 1] - v[k - 2]), abs(v[k + 1] - v[k]))
        assert abs(v[k - 1] - onset.front_speed) <= step
        assert abs(v[k] - onset.front_speed) <= step
        assert onset.front_speed > onset.terminal_speed

    def test_passage_empty_from_front(self):
        onset = self.run_onset(position=1.0)
        assert onset.passage_duration == 0.0
        assert onset.front_crossing_time == 0.0
        # pure relaxation: monotone rise toward the solo speed
        assert np.all(np.diff(onset.v_composite) >= -1e-12)
        assert np.max(onset.rel_deviation) < 5.0 * self.EPS

    def test_quasi_steady_limit(self):
        # with smaller inertia the speed settles essentially instantly
        for eps in (2e-3, 5e-4):
            onset = attack_onset(eps, 5.0, 4.0, DRAG, CD_AVG,
                                 gamma_ratio=self.GAMMA)
            v_eq = (4.0 / CD_FRONT) ** (1.0 / 3.0)
            times, v_full = np.asarray(onset.times), np.asarray(onset.v_full)
            settled = times > 0.75 * times[-1]
            assert np.max(np.abs(v_full[settled] - v_eq)) < 0.05
