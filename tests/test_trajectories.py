import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from collideq.engine import (
    ModelConfig,
    evolve,
    partial_swap,
    setting2_unitary,
)
from collideq.errors import DimensionMismatch, InvalidParameter, NumericalPositivityError
from collideq.tensor import (
    EXCITED,
    GROUND,
    DensityMatrix,
    QubitRegister,
    embed,
    kron,
    partial_trace,
    projector,
)
from collideq.trajectories import (
    _SUB_BLOCK,
    EnsembleStats,
    TrajectoryRecord,
    _check_probs,
    _run_batch,
    _sample,
    _trajectory_seeds,
    _uniform_tables,
    ensemble_mean_heat,
    run_trajectory,
    trajectory_seed,
)
from oracles import full_table_batch

HALF_PI = math.pi / 2


def sys_dm(mat):
    return DensityMatrix(QubitRegister(["S"]), np.asarray(mat, dtype=complex))


GROUND_DM = sys_dm(projector(1))
EXCITED_DM = sys_dm(projector(0))
MIXED_DM = sys_dm([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
PLUS_Y_DM = sys_dm([[0.5, -0.5j], [0.5j, 0.5]])  # pure, off the energy basis

# (setting, start) cases of the ensemble-vs-unconditional checks
ENSEMBLE_CASES = pytest.mark.parametrize(
    "setting, rho0",
    [("II", GROUND_DM), ("II", MIXED_DM), ("I", GROUND_DM), ("I", MIXED_DM)],
    ids=["II-ground", "II-mixed", "I-ground", "I-mixed"],
)


def cfg_ii(beta=1.0, dt=0.01, delta=0.95 * HALF_PI):
    return ModelConfig(beta=beta, dt=dt, delta=delta, setting="II")


def cfg_i(beta=2.0, dt=0.05, delta=0.0):
    return ModelConfig(beta=beta, dt=dt, delta=delta, setting="I")


class TestSingleTrajectory:
    def test_determinism_bit_identical(self):
        cfg = cfg_ii()
        a = run_trajectory(cfg, GROUND_DM, 40, seed=1234)
        b = run_trajectory(cfg, GROUND_DM, 40, seed=1234)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.heats, b.heats)
        assert np.array_equal(a.final_system_state.mat, b.final_system_state.mat)

    def test_different_seeds_differ(self):
        # flip-rich regime so the Born sampling actually branches
        cfg = cfg_ii(beta=0.5, dt=0.3, delta=0.3)
        a = run_trajectory(cfg, GROUND_DM, 150, seed=1)
        b = run_trajectory(cfg, GROUND_DM, 150, seed=2)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_heat_outcome_consistency(self):
        cfg = cfg_ii()
        rec = run_trajectory(cfg, GROUND_DM, 80, seed=99)
        z = rec.outcomes.astype(float)
        expected = cfg.omega * (z[..., 0] - z[..., 1])
        assert np.abs(rec.heats - expected).max() < 1e-15

    def test_heat_values_discrete(self):
        cfg = cfg_ii()
        rec = run_trajectory(cfg, GROUND_DM, 80, seed=7)
        assert set(np.unique(rec.heats)).issubset({-1.0, 0.0, 1.0})

    def test_setting2_first_points_deterministic(self):
        # bath ancillas are energy eigenstates: the first TPM point is fixed
        cfg = cfg_ii()
        rec = run_trajectory(cfg, GROUND_DM, 50, seed=42)
        assert np.all(rec.outcomes[:, 0, 0] == 1)  # ground bath
        assert np.all(rec.outcomes[:, 1, 0] == 0)  # excited bath

    def test_dark_dynamics_at_zero_temperature(self):
        cfg = ModelConfig(beta=math.inf, dt=0.05, delta=0.0, setting="I")
        rec = run_trajectory(cfg, GROUND_DM, 50, seed=5)
        assert np.all(rec.outcomes == 1)
        assert np.abs(rec.heats).max() == 0.0

    def test_conditional_final_state_valid(self):
        cfg = cfg_ii()
        for seed in range(5):
            rec = run_trajectory(cfg, GROUND_DM, 60, seed=seed)
            mat = rec.final_system_state.mat
            assert abs(np.trace(mat) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(mat).min() > -1e-10

    def test_setting1_thermal_first_points_sampled(self):
        cfg = cfg_i(beta=0.3)  # hot bath: both outcomes well represented
        rec = run_trajectory(cfg, GROUND_DM, 400, seed=11)
        firsts = rec.outcomes[:, 0, 0]
        assert set(np.unique(firsts)) == {0, 1}

    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidParameter):
            run_trajectory(cfg_ii(), GROUND_DM, 0, seed=1)

    # a Philox key is an integer in [0, 2**128); no float or bool is one
    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, np.float64(7.9), True])
    def test_rejects_seed_outside_philox_key(self, seed):
        with pytest.raises(InvalidParameter, match="seed"):
            run_trajectory(cfg_ii(), GROUND_DM, 5, seed=seed)


class TestEnsemble:
    def test_member_reproducible_from_master_seed(self):
        cfg = cfg_ii()
        master = 2026
        stats = ensemble_mean_heat(cfg, GROUND_DM, 30, 8, master_seed=master)
        manual = np.zeros_like(stats.mean_heat)
        for k in range(8):
            rec = run_trajectory(cfg, GROUND_DM, 30, seed=trajectory_seed(master, k))
            manual += rec.heats
        assert np.abs(manual / 8 - stats.mean_heat).max() < 1e-15

    @pytest.mark.parametrize("cfg", [cfg_i(beta=0.5, dt=0.3, delta=0.6),
                                     cfg_ii(beta=0.5, dt=0.3, delta=0.6)], ids=["I", "II"])
    def test_member_bit_identical_to_single_run(self, cfg):
        # batch size must not change a trajectory's rounding; the mixed start
        # also draws its initial eigenstate
        seeds = [trajectory_seed(5, k) for k in range(300)]
        for rho0 in (EXCITED_DM, MIXED_DM):
            outcomes, heats, finals = _run_batch(cfg, rho0.mat, 40, seeds)
            for k in (0, 149, 299):
                rec = run_trajectory(cfg, rho0, 40, seed=seeds[k])
                assert np.array_equal(rec.outcomes, outcomes[k])
                assert np.array_equal(rec.heats, heats[k])
                assert np.array_equal(rec.final_system_state.mat, finals[k])

    def test_members_at_sub_block_edges_bit_identical_to_single_runs(self):
        # the last member of a sub-block and the first two of the next, at
        # the first edge and at the eighth
        cfg = cfg_i(beta=0.5, dt=0.3, delta=0.6)
        seeds = _trajectory_seeds(5, 0, 1100)
        outcomes, heats, finals = _run_batch(cfg, MIXED_DM.mat, 40, seeds)
        for k in (_SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1,
                  8 * _SUB_BLOCK - 1, 8 * _SUB_BLOCK, 8 * _SUB_BLOCK + 1):
            rec = run_trajectory(cfg, MIXED_DM, 40, seed=seeds[k])
            assert np.array_equal(rec.outcomes, outcomes[k])
            assert np.array_equal(rec.heats, heats[k])
            assert np.array_equal(rec.final_system_state.mat, finals[k])

    def test_ensemble_determinism(self):
        cfg = cfg_ii()
        s1 = ensemble_mean_heat(cfg, GROUND_DM, 20, 50, master_seed=3)
        s2 = ensemble_mean_heat(cfg, GROUND_DM, 20, 50, master_seed=3)
        assert np.array_equal(s1.mean_heat, s2.mean_heat)
        assert np.array_equal(s1.std_error, s2.std_error)

    @ENSEMBLE_CASES
    def test_mean_heat_tracks_unconditional(self, setting, rho0):
        cfg = ModelConfig(beta=1.0, dt=0.02, delta=0.95 * HALF_PI, setting=setting)
        n_steps, m = 40, 3000
        stats = ensemble_mean_heat(cfg, rho0, n_steps, m, master_seed=17)
        oracle = evolve(cfg, rho0, n_steps)
        dev = np.abs(stats.mean_heat - oracle.q_lifecycle)
        # estimated SE degenerates to 0 on steps where no jump fired in the
        # whole ensemble; floor it with the oracle-implied binomial SE
        se_floor = np.sqrt(np.abs(oracle.q_lifecycle) * cfg.omega / m)
        bound = 3.0 * np.maximum(stats.std_error, se_floor) + 1e-15
        frac = float((dev <= bound).mean())
        assert frac >= 0.9

    @ENSEMBLE_CASES
    def test_mean_final_state_tracks_unconditional(self, setting, rho0):
        cfg = ModelConfig(beta=1.0, dt=0.02, delta=0.95 * HALF_PI, setting=setting)
        n_steps, m = 30, 3000
        stats = ensemble_mean_heat(cfg, rho0, n_steps, m, master_seed=23)
        oracle = evolve(cfg, rho0, n_steps)
        final = oracle.states[-1]
        dev = np.abs(stats.mean_final_state - final)
        bound = np.maximum(5.0 * stats.se_final_state, 1e-12)
        assert np.all(dev <= bound)

    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidParameter):
            ensemble_mean_heat(cfg_ii(), GROUND_DM, 0, 10, master_seed=1)

    def test_rejects_zero_trajectories(self):
        with pytest.raises(InvalidParameter):
            ensemble_mean_heat(cfg_ii(), GROUND_DM, 10, 0, master_seed=1)

    def test_single_trajectory_has_zero_standard_errors(self):
        cfg = cfg_ii(dt=0.02)
        stats = ensemble_mean_heat(cfg, MIXED_DM, 25, 1, master_seed=3)
        assert np.all(stats.std_error == 0.0)
        assert np.all(stats.se_final_state == 0.0)
        member = run_trajectory(cfg, MIXED_DM, 25, trajectory_seed(3, 0))
        assert np.array_equal(stats.mean_heat, member.heats.astype(float))
        assert np.array_equal(stats.mean_final_state, member.final_system_state.mat)

    def test_se_scaling_with_m(self):
        cfg = cfg_ii(dt=0.02)
        small = ensemble_mean_heat(cfg, GROUND_DM, 25, 500, master_seed=5)
        large = ensemble_mean_heat(cfg, GROUND_DM, 25, 5000, master_seed=5)
        mask = small.std_error > 0
        ratio = large.std_error[mask].mean() / small.std_error[mask].mean()
        assert 0.2 < ratio < 0.45  # loose 1/sqrt(10) at these small M

    def test_setting1_ensemble_runs(self):
        cfg = cfg_i(beta=1.0, dt=0.05, delta=0.5)
        stats = ensemble_mean_heat(cfg, EXCITED_DM, 20, 200, master_seed=8)
        assert stats.mean_heat.shape == (20, 1)
        assert np.isfinite(stats.mean_heat).all()


def explicit_window_outcomes(cfg, rho0, n_steps, seeds):
    """TPM outcomes of an explicit (S, M..., F) density matrix, one trajectory at a time.

    Each step applies the system collision to the current memories. Then,
    bath by bath, a fresh unit is attached in the eigenstate its birth
    variate picks, intra-collides with the memory, the memory is projected
    on the energy outcome its measurement variate picks and traced out, and
    the fresh unit becomes that bath's memory. Qubits are addressed by label,
    never by axis position, and the variates come from the same tables.
    """
    nb = cfg.n_baths
    tables = _uniform_tables(seeds, n_steps, nb)
    p_exc = [cfg.bath_state(k)[0, 0].real for k in range(nb)]

    def draw(u, p):
        return EXCITED if u < p else GROUND

    out = np.empty((len(seeds), n_steps, nb, 2), dtype=np.int8)
    for t, table in enumerate(tables):
        births = [draw(table[0, k, 0], p_exc[k]) for k in range(nb)]
        mems = [f"M{k}@0" for k in range(nb)]
        rho = DensityMatrix(QubitRegister(["S", *mems]),
                            kron(rho0.mat, *(projector(x) for x in births)))
        for n in range(n_steps):
            reg = rho.register
            if cfg.setting == "I":
                u = partial_swap(cfg.coupling_j * cfg.dt, ("S", mems[0]), reg).mat
            else:
                u = setting2_unitary(cfg, reg, "S", *mems).mat
            rho = DensityMatrix(reg, u @ rho.mat @ u.conj().T)
            for k in range(nb):
                out[t, n, k, 0] = births[k]
                births[k] = draw(table[n + 1, k, 0], p_exc[k])
                fresh = f"M{k}@{n + 1}"
                reg = QubitRegister([*rho.register.labels, fresh])
                u = partial_swap(cfg.delta, (mems[k], fresh), reg).mat
                mat = u @ np.kron(rho.mat, projector(births[k])) @ u.conj().T
                proj_exc = embed(projector(EXCITED), [mems[k]], reg)
                p = np.trace(proj_exc @ mat).real
                o = draw(table[n + 1, k, 1], p)
                keep = proj_exc if o == EXCITED else np.eye(reg.dim) - proj_exc
                mat = keep @ mat @ keep / (p if o == EXCITED else 1.0 - p)
                rho = partial_trace(DensityMatrix(reg, mat),
                                    [label for label in reg.labels if label != mems[k]])
                mems[k] = fresh
                out[t, n, k, 1] = o
    return out


@pytest.mark.parametrize("cfg", [
    ModelConfig(beta=0.5, dt=0.3, delta=0.6, setting="I"),
    ModelConfig(beta=0.5, dt=0.3, delta=0.6, setting="II"),
], ids=["I", "II"])
def test_outcomes_match_explicit_window(cfg):
    plus_y = sys_dm([[0.5, -0.5j], [0.5j, 0.5]])  # pure, off the energy basis
    seeds = [trajectory_seed(31, k) for k in range(50)]
    expected = explicit_window_outcomes(cfg, plus_y, 20, seeds)
    outcomes, heats, _ = _run_batch(cfg, plus_y.mat, 20, seeds)
    # the second outcomes branch both ways, so the comparison is not vacuous
    assert set(np.unique(expected[..., 1])) == {EXCITED, GROUND}
    assert np.array_equal(outcomes, expected)
    assert np.array_equal(heats, cfg.omega * (expected[..., 0] - expected[..., 1].astype(float)))


# SHA-256 of the int8 outcome tables of the fig5 cell (setting II, beta 1,
# dt 0.1, delta 0.95 pi/2), seeds trajectory_seed(0, k) for k < 64, 100 steps
GOLDEN_OUTCOMES = {
    "ground": "e47f6bcd5f50d662b7f854ba6e98ee0cf64437c3deb9a66406061aded431c084",
    "mixed": "14a26cfaaa8e0ee1f3b612c2e337a3b3f628df4486685fb816692b9e64e42f34",
}


@pytest.mark.parametrize("start", GOLDEN_OUTCOMES)
def test_fig5_outcomes_pinned(start):
    # any change to the step, the sampler or the Philox slot layout that
    # moves a single outcome changes this digest
    cfg = cfg_ii(beta=1.0, dt=0.1)
    rho0 = {"ground": GROUND_DM, "mixed": MIXED_DM}[start]
    seeds = [trajectory_seed(0, k) for k in range(64)]
    outcomes = _run_batch(cfg, rho0.mat, 100, seeds)[0]
    assert outcomes.dtype == np.int8 and outcomes.shape == (64, 100, 2, 2)
    assert hashlib.sha256(outcomes.tobytes()).hexdigest() == GOLDEN_OUTCOMES[start]


# batch sizes inside one sub-block, at its edge and across many edges
SUB_BLOCK_SIZES = [1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, 1100]


@pytest.mark.parametrize("n_steps", [1, 40])
@pytest.mark.parametrize("size", SUB_BLOCK_SIZES)
@pytest.mark.parametrize("rho0", [GROUND_DM, MIXED_DM, PLUS_Y_DM], ids=["ground", "mixed", "plus-y"])
@pytest.mark.parametrize("cfg", [cfg_i(beta=2.0, dt=0.1, delta=0.95 * HALF_PI),
                                 cfg_ii(beta=1.0, dt=0.1)], ids=["I", "II"])
def test_run_batch_equals_full_table_oracle(cfg, rho0, size, n_steps):
    # setting I's thermal births differ between trajectories, so a batch of
    # more than one gathers each trajectory's joint operator
    seeds = _trajectory_seeds(11, 0, size)
    got = _run_batch(cfg, rho0.mat, n_steps, seeds)
    expected = full_table_batch(cfg, rho0.mat, n_steps, seeds)
    for name, a, e in zip(("outcomes", "heats", "finals"), got, expected):
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name


def test_batch_peak_memory_within_its_variate_table():
    # the batch keeps the births, the eigenstate draws and the measurement
    # variates, never every trajectory's whole table at once; a batch that
    # held the whole table through the step loop peaked near twice its size
    cfg = cfg_ii(beta=1.0, dt=0.1)
    n_steps, seeds = 100, _trajectory_seeds(8, 0, 2048)
    _run_batch(cfg, GROUND_DM.mat, n_steps, seeds[:4])  # builds the cached step
    tracemalloc.start()
    try:
        _run_batch(cfg, GROUND_DM.mat, n_steps, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = len(seeds) * (n_steps + 1) * cfg.n_baths * 2 * 8
    assert peak <= 1.25 * table, f"peak {peak / table:.3f} x the variate table"


def test_sample_is_int8_excited_below_probability_else_ground():
    values = [0.0, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan]
    u, p = np.array(list(itertools.product(values, repeat=2))).T
    outcomes = _sample(u, p)
    assert outcomes.dtype == np.int8
    assert np.array_equal(outcomes, np.where(u < p, EXCITED, GROUND))
    # a NaN variate or probability compares false: GROUND
    assert np.all(outcomes[np.isnan(u) | np.isnan(p)] == GROUND)
    # the births' broadcast: one probability per bath
    tables = np.random.default_rng(3).random((4, 6, 2))
    births = _sample(tables, np.array([0.3, math.nan]))
    assert births.dtype == np.int8 and births.shape == (4, 6, 2)
    assert np.array_equal(births, np.where(tables < [0.3, math.nan], EXCITED, GROUND))


@pytest.mark.parametrize("omega", [12, 128])
def test_integer_omega_gives_the_float_omega_heats(omega):
    # the outcomes are int8: heats formed with an int omega would stay int8,
    # and their squares would wrap from |omega| = 12 on; beta * omega = 1
    # keeps the thermal births, so heats of both signs occur
    as_int, as_float = (ModelConfig(beta=1.0 / omega, dt=0.1, omega=w, delta=0.95 * HALF_PI,
                                    setting="I") for w in (omega, float(omega)))
    rec_int = run_trajectory(as_int, MIXED_DM, 30, seed=4)
    rec_float = run_trajectory(as_float, MIXED_DM, 30, seed=4)
    assert rec_int.heats.dtype == np.float64
    assert np.array_equal(rec_int.heats, rec_float.heats)
    stats_int = ensemble_mean_heat(as_int, MIXED_DM, 30, 200, master_seed=4)
    stats_float = ensemble_mean_heat(as_float, MIXED_DM, 30, 200, master_seed=4)
    for name in ("mean_heat", "std_error", "mean_final_state", "se_final_state"):
        assert np.array_equal(getattr(stats_int, name), getattr(stats_float, name)), name
    assert np.all(stats_int.std_error > 0)


@pytest.mark.parametrize("p", [
    [[math.nan, 0.5], [0.5, 0.5]],
    [[0.5, 0.5], [0.5, math.nan]],
    [[math.inf, 0.0], [0.5, 0.5]],
    [[-math.inf, 1.0], [0.5, 0.5]],
    [[-2e-10, 1.0], [0.5, 0.5]],
    [[0.0, 1.0 + 2e-10], [0.5, 0.5]],
], ids=["nan", "nan-last", "inf", "-inf", "below", "above"])
def test_check_probs_rejects_nonfinite_and_out_of_range(p):
    with pytest.raises(NumericalPositivityError):
        _check_probs(np.array(p))


def test_check_probs_keeps_its_bounds():
    _check_probs(np.array([[-1e-10, 1.0 + 1e-10], [0.0, 1.0]]))


@pytest.mark.parametrize("n_steps, n_baths", [(4, 1), (7, 2), (100, 2)])
def test_uniform_tables_equal_fresh_philox_generators(n_steps, n_baths):
    # 4 x 1 leaves Philox words buffered between trajectories; seeds above
    # 2**64 use the key's high word
    seeds = [0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 3] + [trajectory_seed(4, k) for k in range(45)]
    tables = _uniform_tables(seeds, n_steps, n_baths)
    for seed, table in zip(seeds, tables):
        gen = np.random.Generator(np.random.Philox(key=seed))
        assert np.array_equal(table, gen.random((n_steps + 1, n_baths, 2)))


# master seeds: small ones, the benchmark's seed * 100000 + run index, and
# masters of one, two, three, four and five 32-bit words; from four words up,
# the master's mixing makes more hashmix calls than the pool has words
SEED_MASTERS = [*range(10), *(s * 100_000 + i for s in (1, 3) for i in (0, 1, 39)),
                2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 96 + 11, 2 ** 128 - 1, 2 ** 128 + 7]


def seed_sequence_seed(master, index):
    sequence = np.random.SeedSequence(entropy=master, spawn_key=(index,))
    return sequence.generate_state(1, np.uint64)[0]


@pytest.mark.parametrize("master", SEED_MASTERS)
def test_trajectory_seeds_equal_seed_sequence(master):
    # index ranges up to the last one-word index and across a chunk edge
    for start, stop in [(0, 2048), (2 ** 32 - 4, 2 ** 32), (8191, 8194)]:
        seeds = _trajectory_seeds(master, start, stop)
        expected = [seed_sequence_seed(master, k) for k in range(start, stop)]
        assert seeds.dtype == np.uint64 and np.array_equal(seeds, expected)
    # the one-index case, also past uint64
    for k in (0, 2 ** 32, 2 ** 64 + 1):
        assert trajectory_seed(master, k) == int(seed_sequence_seed(master, k))


def test_ensemble_rejects_more_than_2_pow_32_trajectories(monkeypatch):
    def no_batch(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr("collideq.trajectories._run_batch", no_batch)
    with pytest.raises(InvalidParameter, match="n_trajectories"):
        ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 2 ** 32 + 1, master_seed=1)


def ket(index):
    return np.eye(2, dtype=complex)[:, [index]]


def sequential_joint_block(cfg, births, outs):
    """One step's operator for one birth combination and joint outcome, bath by bath.

    The collision acts on the labelled (S, M...) register. Then for each
    bath in turn a fresh unit F is attached in its birth state, collides
    with memory k, memory k is projected on its outcome and F is moved into
    memory k's place: every map is an explicit kron or a labelled operator.
    """
    mems = ["M"] if cfg.n_baths == 1 else ["M0", "M1"]
    reg = QubitRegister(["S", *mems])
    if cfg.setting == "I":
        op = partial_swap(cfg.coupling_j * cfg.dt, ("S", "M"), reg).mat
    else:
        op = setting2_unitary(cfg, reg, "S", *mems).mat
    for k, mem in enumerate(mems):
        ext = QubitRegister(["S", *mems, "F"])
        attach = np.kron(np.eye(reg.dim), ket(births[k]))
        collide = partial_swap(cfg.delta, (mem, "F"), ext).mat
        measure = kron(*(ket(outs[k]).conj().T if label == mem else np.eye(2)
                             for label in ext.labels))
        # qubits left as (S, other memories, F); F takes memory k's slot
        left = ["S", *(m for m in mems if m != mem), "F"]
        place = ["S", *("F" if m == mem else m for m in mems)]
        move = np.zeros((reg.dim, reg.dim))
        for bits in itertools.product(range(2), repeat=reg.n_qubits):
            value = dict(zip(left, bits))
            move[int("".join(str(value[q]) for q in place), 2), int("".join(map(str, bits)), 2)] = 1
        op = move @ measure @ collide @ attach @ op
    return op


@pytest.mark.parametrize("cfg", [
    ModelConfig(beta=0.5, dt=0.3, delta=0.6, setting="I"),
    ModelConfig(beta=2.0, dt=0.05, delta=0.95 * HALF_PI, setting="I"),
    ModelConfig(beta=0.5, dt=0.3, delta=0.6, setting="II"),
    ModelConfig(beta=1.0, dt=0.1, delta=0.95 * HALF_PI, setting="II"),
], ids=["I", "I-fig5", "II", "II-fig5"])
def test_joint_operator_matches_sequential_product(cfg):
    from collideq.engine import _step_ops

    joint = _step_ops(cfg).joint
    nb, d = cfg.n_baths, 2 ** (1 + cfg.n_baths)
    binary = list(itertools.product(range(2), repeat=nb))
    assert joint.shape == (2 ** nb, 2 ** nb * d, d)
    for c, births in enumerate(binary):
        blocks = joint[c].reshape(2 ** nb, d, d)
        for o, outs in enumerate(binary):
            expected = sequential_joint_block(cfg, births, outs)
            assert np.abs(blocks[o] - expected).max() <= 1e-14
        # the joint outcomes of one birth combination are a complete measurement
        completeness = np.einsum("oji,ojk->ik", blocks.conj(), blocks)
        assert np.abs(completeness - np.eye(d)).max() <= 1e-14


# batch sizes and the offset of trajectory k inside each batch
BATCHES = [(1, 0), (2, 1), (3, 0), (3, 2), (7, 3), (7, 6), (400, 200)]


@pytest.mark.parametrize("cfg", [cfg_i(beta=0.5, dt=0.3, delta=0.6),
                                 cfg_ii(beta=0.5, dt=0.3, delta=0.6)], ids=["I", "II"])
@pytest.mark.parametrize("rho0", [GROUND_DM, MIXED_DM], ids=["ground", "mixed"])
def test_trajectory_independent_of_batch_size_and_offset(cfg, rho0):
    # SIMD tails and BLAS blocking must not make a trajectory's rounding
    # depend on its neighbours or on the batch's length
    k = 200
    seeds = [trajectory_seed(13, j) for j in range(400)]
    runs = [_run_batch(cfg, rho0.mat, 40, seeds[k - offset:k - offset + size])
            for size, offset in BATCHES]
    outcomes, _, finals = runs[0]
    assert set(np.unique(outcomes[0, :, :, 1])) == {EXCITED, GROUND}
    for (_, offset), (out, _, fin) in zip(BATCHES[1:], runs[1:]):
        assert np.array_equal(out[offset], outcomes[0])
        assert np.array_equal(fin[offset], finals[0])


# a two-qubit system state, which no collision of the compound can take
_PAIR_DM = DensityMatrix(QubitRegister(["S", "X"]), np.eye(4, dtype=complex) / 4)


@pytest.mark.parametrize("call, error, match", [
    (lambda: run_trajectory(cfg_ii(), GROUND_DM, 2.5, seed=1), InvalidParameter, "n_steps"),
    (lambda: run_trajectory(cfg_ii(), GROUND_DM, True, seed=1), InvalidParameter, "n_steps"),
    (lambda: run_trajectory(cfg_ii(), _PAIR_DM, 5, seed=1), DimensionMismatch,
     r"\('S', 'X'\)"),
    (lambda: ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 4, master_seed=1.5),
     InvalidParameter, "master_seed"),
    (lambda: ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 4, master_seed=-1),
     InvalidParameter, "master_seed"),
    (lambda: ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 4, master_seed=True),
     InvalidParameter, "master_seed"),
    (lambda: ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 2.5, master_seed=1),
     InvalidParameter, "n_trajectories"),
    (lambda: ensemble_mean_heat(cfg_ii(), GROUND_DM, 2.5, 4, master_seed=1),
     InvalidParameter, "n_steps"),
    (lambda: ensemble_mean_heat(cfg_ii(), _PAIR_DM, 5, 4, master_seed=1), DimensionMismatch,
     r"\('S', 'X'\)"),
    (lambda: trajectory_seed(-1, 0), InvalidParameter, "master_seed"),
    (lambda: trajectory_seed(True, 0), InvalidParameter, "master_seed"),
    (lambda: trajectory_seed(1.0, 0), InvalidParameter, "master_seed"),
    (lambda: trajectory_seed(1, -1), InvalidParameter, "index"),
    (lambda: trajectory_seed(1, True), InvalidParameter, "index"),
    (lambda: trajectory_seed(1, 2.0), InvalidParameter, "index"),
], ids=["steps-fractional", "steps-bool",
        "trajectory-two-qubit-state", "master-seed-fractional", "master-seed-negative",
        "master-seed-bool", "trajectories-fractional", "ensemble-steps-fractional",
        "ensemble-two-qubit-state", "seed-master-negative", "seed-master-bool",
        "seed-master-float", "seed-index-negative", "seed-index-bool", "seed-index-float"])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_numpy_integer_seed_and_counts_accepted():
    a = run_trajectory(cfg_ii(), GROUND_DM, np.int64(20), seed=np.uint64(9))
    b = run_trajectory(cfg_ii(), GROUND_DM, 20, seed=9)
    assert a.seed == 9 and np.array_equal(a.outcomes, b.outcomes)
    s = ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, np.int64(3), master_seed=np.int64(2))
    assert np.array_equal(s.mean_heat, ensemble_mean_heat(cfg_ii(), GROUND_DM, 5, 3, 2).mean_heat)
