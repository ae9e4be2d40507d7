import dataclasses
import itertools
import math

import numpy as np
import pytest

from collideq import blp, cli
from collideq.blp import (_CHUNK_STEPS, _bloch_grid, _distance_series, _pair_differences,
                          _readout_blocks, blp_measure, default_n_steps)
from collideq.engine import ModelConfig, _step_ops
from collideq.errors import InvalidParameter
from collideq.tensor import connected_blocks
from oracles import covariant_blp, recompute_value_from_series

HALF_PI = math.pi / 2


def cfg(setting, beta=2.0, dt=0.01, delta=0.0):
    return ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)


def outer_pairs(thetas, phis):
    """|psi><psi| - |perp><perp| pair by pair, theta-major, from np.outer."""
    out = []
    for th in thetas:
        for ph in phis:
            psi = np.array([math.cos(th / 2), np.exp(1j * ph) * math.sin(th / 2)])
            perp = np.array([math.sin(th / 2), -np.exp(1j * ph) * math.cos(th / 2)])
            out.append(np.outer(psi, psi.conj()) - np.outer(perp, perp.conj()))
    return np.array(out)


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

    @pytest.mark.parametrize("grid", [(8.5, 8), (8, 8.0), (8, 8, 1), (8,), (True, 8), 8,
                                      "88"])
    def test_grid_not_two_integers_rejected(self, grid):
        with pytest.raises(InvalidParameter, match="grid"):
            blp_measure(cfg("I"), n_steps=10, grid=grid)

    def test_numpy_integer_grid_accepted(self):
        res = blp_measure(cfg("I"), n_steps=5, grid=(np.int64(8), 8))
        assert res.pair_values.shape == (64,)

    @pytest.mark.parametrize("grid", [(8, 8), (17, 8), (32, 16)])
    def test_broadcast_grid_matches_outer_products(self, grid):
        thetas, phis = _bloch_grid(*grid)
        assert np.array_equal(_pair_differences(thetas, phis), outer_pairs(thetas, phis))


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


@pytest.mark.parametrize("n_steps", [2.5, 10.0, float("nan"), True, "10"])
def test_non_integer_steps_rejected(n_steps):
    with pytest.raises(InvalidParameter, match="n_steps"):
        blp_measure(cfg("I"), n_steps=n_steps, grid=(8, 8))


def test_numpy_integer_steps_accepted():
    res = blp_measure(cfg("I"), n_steps=np.int64(7), grid=(8, 8))
    assert len(res.series) == 8


def full_path(c, n_steps, grid):
    """Pair values and largest increments from the whole step on the whole
    vectorized compound, read by the system rows (the reference path)."""
    core = _step_ops(c)
    thetas, phis = _bloch_grid(*grid)
    pairs = outer_pairs(thetas, phis)
    block = core.attach(pairs).reshape(len(pairs), -1).T
    values = np.zeros(len(pairs))
    max_inc = np.full(len(pairs), -np.inf)
    d_prev = np.ones(len(pairs))
    for _ in range(n_steps):
        block = core.superop @ block
        sys_block = core.system_rows @ block
        d = np.sqrt(sys_block[0].real ** 2 + np.abs(sys_block[1]) ** 2)
        d[d < 1e-14] = 0.0
        inc = d - d_prev
        max_inc = np.maximum(max_inc, inc)
        values += np.where(inc > 0.0, inc, 0.0)
        d_prev = d
    best = int(np.argmax(values))
    return values, max_inc, (thetas[best // len(phis)], phis[best % len(phis)])


@pytest.mark.parametrize("setting, beta, dt, frac, grid", [
    ("I", 2.0, 0.01, 0.95, (16, 8)),
    ("I", 0.5, 0.1, 0.8, (17, 8)),
    ("I", 2.0, 0.3, 0.0, (8, 8)),
    ("II", 2.0, 0.1, 0.95, (16, 8)),
    ("II", 0.5, 0.01, 0.3, (8, 8)),
    ("II", math.inf, 0.3, 0.8, (17, 8)),
])
def test_readout_blocks_match_the_full_step(setting, beta, dt, frac, grid):
    c = cfg(setting, beta=beta, dt=dt, delta=frac * HALF_PI)
    n_steps = min(default_n_steps(c), 600)
    res = blp_measure(c, n_steps=n_steps, grid=grid)
    values, max_inc, _ = full_path(c, n_steps, grid)
    np.testing.assert_allclose(res.pair_values, values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.max_increment_per_pair, max_inc, rtol=0, atol=1e-13)


@pytest.mark.parametrize("setting, beta, dt", [("I", 0.5, 0.1), ("II", math.inf, 0.3)])
def test_readout_blocks_pick_the_full_step_best_pair_off_the_poles(setting, beta, dt):
    # the values tie within rounding along phi and under theta -> pi - theta,
    # so an equal argmax says that both paths round alike at the best pair
    c = cfg(setting, beta=beta, dt=dt, delta=0.8 * HALF_PI)
    res = blp_measure(c, grid=(16, 8))
    _, _, argmax = full_path(c, default_n_steps(c), (16, 8))
    assert 0.0 < res.argmax_pair[0] < math.pi
    assert res.argmax_pair == argmax


def per_step_distances(steps, terms, cols, n_steps):
    """Trace distances read after every single step (the unchunked loop)."""
    cur, nxt = cols.copy(), np.empty_like(cols)
    (first00, *rest00), (first01, *rest01) = terms
    for _ in range(n_steps):
        for sl, block in steps:
            np.matmul(block, cur[sl], out=nxt[sl])
        cur, nxt = nxt, cur
        a = cur[first00].real
        for i in rest00:
            a = a + cur[i].real
        b = cur[first01]
        for i in rest01:
            b = b + cur[i]
        d = np.sqrt(a * a + np.abs(b) ** 2)
        d[d < 1e-14] = 0.0
        yield d


def grid_columns(c, grid):
    core = _step_ops(c)
    rows, steps, terms = _readout_blocks(core)
    thetas, phis = _bloch_grid(*grid)
    cols = core.attach(_pair_differences(thetas, phis)).reshape(grid[0] * grid[1], -1).T[rows]
    return steps, terms, cols


CHUNK_EDGES = [1, _CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 2 * _CHUNK_STEPS + 3]


@pytest.mark.parametrize("n_steps", CHUNK_EDGES)
@pytest.mark.parametrize("setting", ["I", "II"])
@pytest.mark.parametrize("n_cols", [1, 512])
def test_chunked_distances_match_per_step_readout(setting, n_steps, n_cols):
    steps, terms, cols = grid_columns(cfg(setting, dt=0.1, delta=0.95 * HALF_PI), (32, 16))
    cols = cols[:, [200]] if n_cols == 1 else cols
    chunks = list(_distance_series(steps, terms, cols, n_steps))
    assert [len(d) for d in chunks[:-1]] == [_CHUNK_STEPS] * (len(chunks) - 1)
    assert 1 <= len(chunks[-1]) <= _CHUNK_STEPS
    expected = np.array(list(per_step_distances(steps, terms, cols, n_steps)))
    assert np.array_equal(np.concatenate(chunks), expected)


@pytest.mark.parametrize("n_steps", CHUNK_EDGES)
@pytest.mark.parametrize("setting", ["I", "II"])
def test_chunked_measure_matches_per_step_accumulation(setting, n_steps):
    c = cfg(setting, dt=0.1, delta=0.95 * HALF_PI)
    steps, terms, cols = grid_columns(c, (32, 16))
    values = np.zeros(512)
    max_inc = np.full(512, -np.inf)
    d_prev = np.ones(512)
    for d in per_step_distances(steps, terms, cols, n_steps):
        inc = d - d_prev
        np.maximum(max_inc, inc, out=max_inc)
        values += np.where(inc > 0.0, inc, 0.0)
        d_prev = d
    best = int(np.argmax(values))
    series = [1.0, *(d[0] for d in per_step_distances(steps, terms, cols[:, [best]], n_steps))]

    res = blp_measure(c, n_steps=n_steps, grid=(32, 16))
    assert np.array_equal(res.pair_values, values)
    assert np.array_equal(res.max_increment_per_pair, max_inc)
    assert np.array_equal(res.series, series)
    assert res.final_distance == d_prev[best]
    assert res.value == values[best]


def count_series_passes(monkeypatch):
    """Patch ``_distance_series`` to record the column count of each pass."""
    passes = []

    def counted(steps, terms, cols, n_steps, _real=blp._distance_series):
        passes.append(cols.shape[1])
        return _real(steps, terms, cols, n_steps)
    monkeypatch.setattr(blp, "_distance_series", counted)
    return passes


def test_series_pass_runs_on_first_read(monkeypatch):
    passes = count_series_passes(monkeypatch)
    res = blp_measure(cfg("I", dt=0.1, delta=0.9 * HALF_PI), n_steps=30, grid=(8, 8))
    assert "series" not in vars(res)
    assert passes == [64]
    series = res.series
    assert passes == [64, 1]
    assert res.series is series
    assert len(series) == 31
    assert passes == [64, 1]
    assert "series" not in {f.name for f in dataclasses.fields(res)}


def test_cli_blp_cell_propagates_once(tmp_path, monkeypatch):
    # the CLI reads value, argmax_pair and converged, never the series
    passes = count_series_passes(monkeypatch)
    assert cli.main(["blp", "--setting", "I", "--beta", "2", "--dt", "0.1", "--delta", "0.5",
                     "--steps", "200", "--out", str(tmp_path / "blp.csv")]) == 0
    assert passes == [512]


# settings x beta x dt x delta/(pi/2), each at its default horizon and grid
COVARIANT_GRID = list(itertools.product(["I", "II"], [0.5, 2.0], [0.1, 0.01], [0.0, 0.6, 0.95]))


@pytest.mark.parametrize("setting, beta, dt, frac", COVARIANT_GRID)
def test_covariant_columns_lie_in_disjoint_blocks(setting, beta, dt, frac):
    # the oracle's premise: sigma_z and sigma_+ with fresh memories step in
    # disjoint blocks, and entry 00 reads only the first, entry 01 the second
    core = _step_ops(cfg(setting, beta=beta, dt=dt, delta=frac * HALF_PI))
    blocks = connected_blocks(core.superop != 0)

    def touched(vec):
        support = np.flatnonzero(vec)
        return {i for i, b in enumerate(blocks) if np.isin(support, b).any()}

    z = touched(core.attach(np.diag([1.0, -1.0])).reshape(-1))
    plus = touched(core.attach(np.array([[0.0, 1.0], [0.0, 0.0]])).reshape(-1))
    assert z and plus and not z & plus
    assert touched(core.system_rows[0]) <= z
    assert touched(core.system_rows[1]) <= plus


# the largest deviation measured on the grid is 4.6e-14, the same size as
# the spread of pair_values along phi (at most 4.7e-14)
COVARIANT_TOL = 1e-13


@pytest.mark.parametrize("setting, beta, dt, frac", COVARIANT_GRID)
def test_pair_values_and_value_match_the_covariant_oracle(setting, beta, dt, frac):
    # at the default horizon and grid: each theta row of pair_values is the
    # oracle's value at that theta for every phi, and value is its maximum
    c = cfg(setting, beta=beta, dt=dt, delta=frac * HALF_PI)
    res = blp_measure(c)
    oracle = covariant_blp(c, default_n_steps(c), res.thetas)
    values = res.pair_values.reshape(len(res.thetas), len(res.phis))
    assert np.abs(values - oracle[:, None]).max() <= COVARIANT_TOL
    assert abs(res.value - oracle.max()) <= COVARIANT_TOL
