import hashlib
import math

import numpy as np
import pytest

from collideq.engine import (
    ModelConfig,
    evolve,
    intra_bath_unitary,
    partial_swap,
    setting2_unitary,
)
from collideq.errors import InvalidParameter
from collideq.tensor import (
    EXCITED,
    GROUND,
    DensityMatrix,
    QubitRegister,
    embed,
    kron_all,
    partial_trace,
    projector,
)
from collideq.trajectories import (
    EnsembleStats,
    TrajectoryRecord,
    _run_batch,
    _uniform_tables,
    ensemble_mean_heat,
    run_trajectory,
    trajectory_seed,
)

HALF_PI = math.pi / 2


def sys_dm(mat):
    return DensityMatrix(QubitRegister(["S"]), np.asarray(mat, dtype=complex))


GROUND_DM = sys_dm(projector(1))
EXCITED_DM = sys_dm(projector(0))
MIXED_DM = sys_dm([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])

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
                            kron_all(rho0.mat, *(projector(x) for x in births)))
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
                u = intra_bath_unitary(cfg.delta, (mems[k], fresh), reg).mat
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
