import math

import numpy as np
import pytest

from collideq.blp import blp_measure, default_n_steps, recompute_value_from_series
from collideq.engine import ModelConfig
from collideq.errors import InvalidParameter

HALF_PI = math.pi / 2


def cfg(setting, beta=2.0, dt=0.01, delta=0.0):
    return ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)


class TestMarkovianLimit:
    @pytest.mark.parametrize("setting", ["I", "II"])
    def test_delta_zero_gives_exact_zero(self, setting):
        res = blp_measure(cfg(setting, dt=0.01), n_steps=2000, grid=(8, 8))
        assert res.value == 0.0
        assert np.all(res.pair_values == 0.0)
        assert res.converged

    def test_delta_zero_contraction_per_pair(self):
        # trace distance non-increasing for every grid pair
        res = blp_measure(cfg("I", dt=0.01), n_steps=1500, grid=(16, 8))
        assert res.max_increment_per_pair.max() < 1e-12
        res = blp_measure(cfg("II", dt=0.01), n_steps=1500, grid=(16, 8))
        assert res.max_increment_per_pair.max() < 1e-12


class TestRevivals:
    def test_setting1_strong_delta_positive(self):
        res = blp_measure(cfg("I", dt=0.01, delta=0.95 * HALF_PI), n_steps=2000)
        assert res.value > 0.1

    def test_setting2_strong_delta_positive(self):
        res = blp_measure(cfg("II", dt=0.01, delta=0.95 * HALF_PI), n_steps=1500,
                          grid=(8, 8))
        assert res.value > 0.1

    def test_below_threshold_zero(self):
        # overdamped regime: memory refreshes well within one exchange cycle
        res = blp_measure(cfg("I", dt=0.01, delta=0.5 * HALF_PI), n_steps=2000,
                          grid=(16, 8))
        assert res.value == 0.0

    def test_value_recomputable_from_series(self):
        res = blp_measure(cfg("I", dt=0.01, delta=0.95 * HALF_PI), n_steps=3000,
                          grid=(8, 8))
        assert abs(recompute_value_from_series(res.series) - res.value) < 1e-12

    def test_series_shape_and_start(self):
        res = blp_measure(cfg("I", dt=0.01, delta=0.9 * HALF_PI), n_steps=500,
                          grid=(8, 8))
        assert res.series.shape == (501,)
        assert abs(res.series[0] - 1.0) < 1e-15

    def test_unconverged_flagged(self):
        res = blp_measure(cfg("I", dt=0.01, delta=0.95 * HALF_PI), n_steps=200,
                          grid=(8, 8))
        assert not res.converged
        assert res.final_distance > 1e-6


class TestGridBehavior:
    def test_grid_doubling_stable(self):
        coarse = blp_measure(cfg("I", dt=0.01, delta=0.9 * HALF_PI), n_steps=4000,
                             grid=(16, 16))
        fine = blp_measure(cfg("I", dt=0.01, delta=0.9 * HALF_PI), n_steps=4000,
                           grid=(32, 32))
        assert abs(fine.value - coarse.value) / fine.value < 0.05

    def test_swapping_pair_members_is_symmetric(self):
        # the antipode of (theta, phi) is (pi - theta, phi + pi); phi wraps
        # into the half-turn grid, so the swapped pair is the same physical
        # pair and the measure depends only on |rho - pi|
        res = blp_measure(cfg("I", dt=0.01, delta=0.9 * HALF_PI), n_steps=2000,
                          grid=(17, 8))
        vals = res.pair_values.reshape(17, 8)
        # theta -> pi - theta maps row k to row 16 - k with identical values
        assert np.abs(vals - vals[::-1, :]).max() < 1e-10

    def test_threshold_then_nondecreasing_in_delta(self):
        values = []
        for frac in np.linspace(0.0, 0.95, 20):
            res = blp_measure(cfg("I", dt=0.01, delta=frac * HALF_PI),
                              n_steps=2500, grid=(8, 8))
            values.append(res.value)
        values = np.array(values)
        assert values[0] == 0.0
        assert np.any(values == 0.0) and np.any(values > 0.0)
        assert np.all(np.diff(values) >= -1e-9)

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(InvalidParameter):
            blp_measure(cfg("I"), n_steps=10, grid=(4, 4))


def test_default_horizon():
    assert default_n_steps(ModelConfig(beta=2.0, dt=0.01)) == 2000
    assert default_n_steps(ModelConfig(beta=2.0, dt=1e-9)) == 10 ** 6


@pytest.mark.parametrize("setting", ["I", "II"])
def test_default_horizon_sets_series_length(setting):
    c = cfg(setting, dt=0.5, delta=0.9 * HALF_PI)
    res = blp_measure(c, grid=(8, 8))
    assert default_n_steps(c) == 40
    assert len(res.series) == default_n_steps(c) + 1
    # the series is the best pair's: it ends at its final distance
    assert abs(res.series[-1] - res.final_distance) < 1e-14


@pytest.mark.parametrize("setting", ["I", "II"])
def test_zero_steps_rejected(setting):
    with pytest.raises(InvalidParameter, match="n_steps"):
        blp_measure(cfg(setting), n_steps=0)
