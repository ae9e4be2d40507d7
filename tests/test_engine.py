import math

import numpy as np
import pytest

from collideq.engine import (
    _EVOLVE_CHUNK,
    EvolutionResult,
    ModelConfig,
    StepChannel,
    embedded_step_channel,
    evolve,
    heisenberg_interaction,
    markovian_channel,
    partial_swap,
    setting2_unitary,
    steady_heat_flux,
    steady_heat_flux_from_state,
    steady_state,
)
from collideq.errors import (
    DimensionMismatch,
    FixedPointError,
    InvalidParameter,
    NonUniqueSteadyState,
    NotDiagonal,
    NumericalPositivityError,
)
from collideq.metrics import (
    effective_temperature,
    fidelity,
    gibbs_qubit,
    nbar,
    tripartite_negativity,
)
from collideq.tensor import (
    SIGMA_Z,
    SWAP_2,
    DensityMatrix,
    QubitRegister,
    embed,
    expm_i_hermitian,
    kron,
    partial_trace,
    projector,
)
from oracles import (
    all_births_step,
    complex_block_steady_state,
    damped_qubit,
    explicit_chain,
    per_step_evolve,
    two_bath_markov,
)

HALF_PI = math.pi / 2

# settings I/II x beta x dt x delta / (pi/2): the grid on which the
# Hermitian-coordinate spectrum is compared with the complex blocks of S
SPECTRUM_GRID = pytest.mark.parametrize(
    "setting, beta, dt, x",
    [(setting, beta, dt, x) for setting in ("I", "II") for beta in (0.5, 2.0, 40.0, math.inf)
     for dt in (1e-3, 0.01, 0.1, 0.5) for x in (0.0, 0.6, 0.95)])


def sys_dm(mat):
    return DensityMatrix(QubitRegister(["S"]), np.asarray(mat, dtype=complex))


def cfg_i(beta=2.0, dt=0.01, delta=0.0, gamma=1.0, omega=1.0):
    return ModelConfig(beta=beta, dt=dt, delta=delta, gamma=gamma, omega=omega, setting="I")


def cfg_ii(beta=2.0, dt=0.01, delta=0.0, gamma=1.0, omega=1.0):
    return ModelConfig(beta=beta, dt=dt, delta=delta, gamma=gamma, omega=omega, setting="II")


def replace_by(state):
    """Superoperator of the replacement channel rho -> Tr(rho) state."""
    d = state.shape[0]
    return np.outer(np.asarray(state, dtype=complex).reshape(-1), np.eye(d).reshape(-1))


class TestConfig:
    def test_couplings(self):
        c = cfg_ii(beta=2.0, dt=0.01)
        nb = nbar(2.0, 1.0)
        assert abs(c.coupling_j0 - math.sqrt((nb + 1) / 0.01)) < 1e-12
        assert abs(c.coupling_j1 - math.sqrt(nb / 0.01)) < 1e-12
        ci = cfg_i(beta=2.0, dt=0.01)
        assert abs(ci.coupling_j - math.sqrt((2 * nb + 1) / 0.01)) < 1e-12

    def test_zero_temperature_kills_j1(self):
        c = cfg_ii(beta=math.inf, dt=0.01)
        assert c.coupling_j1 == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            ModelConfig(beta=2.0, dt=-1.0)
        with pytest.raises(InvalidParameter):
            ModelConfig(beta=2.0, dt=0.1, delta=HALF_PI)
        with pytest.raises(InvalidParameter):
            ModelConfig(beta=-2.0, dt=0.1)
        with pytest.raises(InvalidParameter):
            ModelConfig(beta=2.0, dt=0.1, setting="III")

    @pytest.mark.parametrize("name", ["dt", "gamma", "omega"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rates_and_frequency_must_be_finite(self, name, value):
        kwargs = {"beta": 1.0, "dt": 0.1, "setting": "II", "delta": 0.3, name: value}
        with pytest.raises(InvalidParameter, match=name):
            ModelConfig(**kwargs)

    def test_bath_states(self):
        c = cfg_ii(beta=2.0, dt=0.01)
        assert np.allclose(c.bath_state(0), np.diag([0.0, 1.0]))  # ground bath
        assert np.allclose(c.bath_state(1), np.diag([1.0, 0.0]))  # excited bath


class TestUnitaries:
    def test_heisenberg_zero_coupling(self):
        reg = QubitRegister(["S", "A"])
        h = heisenberg_interaction(0.0, ("S", "A"), reg)
        assert np.abs(h.mat).max() == 0.0

    def test_heisenberg_spectrum(self):
        reg = QubitRegister(["S", "A"])
        w = np.linalg.eigvalsh(heisenberg_interaction(1.0, ("S", "A"), reg).mat)
        assert np.allclose(w, [-0.5, -0.5, -0.5, 1.5], atol=1e-12)

    def test_heisenberg_commutes_with_free_hamiltonian(self):
        reg = QubitRegister(["S", "A"])
        h_int = heisenberg_interaction(1.3, ("S", "A"), reg).mat
        h_free = 0.5 * (embed(SIGMA_Z, ["S"], reg) + embed(SIGMA_Z, ["A"], reg))
        assert np.abs(h_free @ h_int - h_int @ h_free).max() < 1e-12

    def test_setting2_hamiltonian_commutes_with_free(self):
        c = cfg_ii(beta=1.0, dt=0.05)
        reg = QubitRegister(["S", "A0", "A1"])
        h_int = (heisenberg_interaction(c.coupling_j0, ("S", "A0"), reg).mat
                 + heisenberg_interaction(c.coupling_j1, ("S", "A1"), reg).mat)
        h_free = 0.5 * sum(embed(SIGMA_Z, [l], reg) for l in ("S", "A0", "A1"))
        assert np.abs(h_free @ h_int - h_int @ h_free).max() < 1e-12

    def test_partial_swap_angles(self):
        reg = QubitRegister(["S", "A"])
        assert np.abs(partial_swap(0.0, ("S", "A"), reg).mat - np.eye(4)).max() < 1e-12
        u = partial_swap(HALF_PI, ("S", "A"), reg).mat
        assert np.abs(u + 1j * SWAP_2).max() < 1e-12

    def test_partial_swap_matches_exchange_exponential(self):
        # exp(-i H_I dt) with H_I = -J(W - 1/2) equals exp(-i J dt / 2) times
        # the conjugate partial swap (the closed form and the exponential
        # differ by the sign of the SWAP term plus a global phase)
        reg = QubitRegister(["S", "A"])
        j, dt = 3.7, 0.21
        u_exp = expm_i_hermitian(heisenberg_interaction(j, ("S", "A"), reg), dt)
        u_ps = partial_swap(j * dt, ("S", "A"), reg).mat
        phase = np.exp(-1j * j * dt / 2)
        assert np.abs(u_exp - phase * u_ps.conj()).max() < 1e-10

    def test_partial_swap_channel_matches_exponential_channel(self):
        # global phase and swap-sign drop out of the collision channel on
        # diagonal ancillas at the population level
        c = cfg_i(beta=2.0, dt=0.05)
        reg = QubitRegister(["S", "A"])
        eta = gibbs_qubit(2.0, 1.0).mat
        u1 = partial_swap(c.coupling_j * c.dt, ("S", "A"), reg).mat
        u2 = expm_i_hermitian(heisenberg_interaction(c.coupling_j, ("S", "A"), reg), c.dt)
        rho = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])
        out1 = np.einsum("ikjk->ij", (u1 @ np.kron(rho, eta) @ u1.conj().T).reshape(2, 2, 2, 2))
        out2 = np.einsum("ikjk->ij", (u2 @ np.kron(rho, eta) @ u2.conj().T).reshape(2, 2, 2, 2))
        assert np.abs(np.diag(out1 - out2)).max() < 1e-12
        assert np.abs(np.abs(out1[0, 1]) - np.abs(out2[0, 1])) < 1e-12

    def test_intra_bath_unitary(self):
        # the intra-bath collision is the partial SWAP of angle delta
        reg = QubitRegister(["M", "F"])
        assert np.abs(partial_swap(0.0, ("M", "F"), reg).mat - np.eye(4)).max() == 0.0
        u = partial_swap(0.95 * HALF_PI, ("M", "F"), reg).mat
        v = partial_swap(0.95 * HALF_PI, ("M", "F"), reg).mat
        # composing delta with -delta via the adjoint gives identity
        assert np.abs(u @ v.conj().T - np.eye(4)).max() < 1e-12

    def test_setting2_unitary_factorizes_at_zero_temperature(self):
        c = cfg_ii(beta=math.inf, dt=0.02)
        reg = QubitRegister(["S", "A0", "A1"])
        u = setting2_unitary(c, reg, "S", "A0", "A1").mat
        ci = cfg_i(beta=math.inf, dt=0.02)
        u_i = expm_i_hermitian(heisenberg_interaction(ci.coupling_j, ("S", "A0"), reg), c.dt)
        assert np.abs(u - u_i).max() < 1e-10

    def test_setting2_unitary_small_dt_identity(self):
        c = cfg_ii(beta=2.0, dt=1e-12)
        reg = QubitRegister(["S", "A0", "A1"])
        u = setting2_unitary(c, reg, "S", "A0", "A1").mat
        assert np.abs(u - np.eye(8)).max() < 1e-5

    def test_setting2_unitary_is_unitary(self):
        c = cfg_ii(beta=2.0, dt=0.01)
        reg = QubitRegister(["S", "A0", "A1"])
        u = setting2_unitary(c, reg, "S", "A0", "A1").mat
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10

    def test_setting2_requires_setting_ii(self):
        reg = QubitRegister(["S", "A0", "A1"])
        with pytest.raises(InvalidParameter):
            setting2_unitary(cfg_i(), reg, "S", "A0", "A1")

    @staticmethod
    def _compound_hamiltonian(cfg):
        reg = QubitRegister(["S", "M0", "M1"])
        return (heisenberg_interaction(cfg.coupling_j0, ("S", "M0"), reg).mat
                + heisenberg_interaction(cfg.coupling_j1, ("S", "M1"), reg).mat)

    def test_collision_is_the_compound_unitary(self):
        from collideq.engine import _StepOps

        for cfg in (cfg_i(beta=0.7, dt=0.08, delta=0.4), cfg_i(beta=math.inf, dt=0.3),
                    cfg_ii(beta=0.5, dt=0.1, delta=0.4), cfg_ii(beta=40.0, dt=1.25e-3)):
            if cfg.setting == "I":
                u = partial_swap(cfg.coupling_j * cfg.dt, ("S", "M"), QubitRegister(["S", "M"])).mat
            else:
                u = expm_i_hermitian(self._compound_hamiltonian(cfg), cfg.dt)
            assert np.array_equal(_StepOps(cfg).u_compound, u)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 40.0])
    @pytest.mark.parametrize("dt", [1.25e-3, 0.01, 0.1, 0.5])
    def test_setting2_collision_matches_high_precision_expm(self, beta, dt):
        # 40-digit exp(-i H dt) of the same floating-point compound Hamiltonian
        mpmath = pytest.importorskip("mpmath")
        from collideq.engine import _StepOps

        cfg = cfg_ii(beta=beta, dt=dt)
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(self._compound_hamiltonian(cfg)) * (-1j * mpmath.mpf(dt)))
            u = np.array(exact.tolist(), dtype=complex)
        assert np.abs(_StepOps(cfg).u_compound - u).max() <= 1e-15


class TestMarkovianStep:
    """The delta = 0 step, read off ``evolve``'s per-step ``states`` and ``q_sa``."""

    def test_thermal_fixed_point_and_zero_heat(self):
        c = cfg_i(beta=2.0, dt=0.05)
        rho = gibbs_qubit(2.0, 1.0)
        res = evolve(c, rho, 1)
        assert np.abs(res.states[0] - rho.mat).max() < 1e-12
        assert res.q_sa.shape == (1, 1)
        assert abs(res.q_sa[0, 0]) < 1e-12
        assert res.q_lifecycle[0, 0] == res.q_sa[0, 0]

    def test_setting2_heats_equal_and_opposite_at_steady_state(self):
        # away from the fixed point the imbalance equals the system energy
        # change; at the fixed point the two bath heats cancel exactly
        c = cfg_ii(beta=0.7, dt=0.08)
        res = evolve(c, steady_state(markovian_channel(c)), 5)
        assert np.abs(res.q_sa[:, 0] + res.q_sa[:, 1]).max() < 1e-12
        assert np.all(res.q_sa[:, 0] > 0.0)

    def test_setting2_transient_imbalance_matches_system_energy_change(self):
        c = cfg_ii(beta=0.7, dt=0.08)
        rho0 = np.diag([0.4, 0.6]).astype(complex)
        res = evolve(c, sys_dm(rho0), 20)
        before = np.concatenate([rho0[None], res.states[:-1]])
        de_sys = 0.5 * (res.states[:, 0, 0] - res.states[:, 1, 1]
                        - before[:, 0, 0] + before[:, 1, 1]).real
        assert np.abs(de_sys + res.q_sa[:, 0] + res.q_sa[:, 1]).max() < 1e-12

    def test_setting2_zero_temperature_matches_setting1(self):
        rho = sys_dm(np.diag([0.55, 0.45]))
        res1 = evolve(cfg_i(beta=math.inf, dt=0.03), rho, 50)
        res2 = evolve(cfg_ii(beta=math.inf, dt=0.03), rho, 50)
        assert np.abs(res1.states - res2.states).max() < 1e-10

    def test_matches_explicit_bare_collision(self):
        # oracle built only from the public unitaries: system + fresh
        # ancillas, one conjugation, ancillas traced out; each step starts
        # from the state evolve reported for the step before
        for cfg in (cfg_i(beta=0.7, dt=0.08), cfg_ii(beta=0.7, dt=0.08)):
            labels = ["S"] + [f"A{b}" for b in range(cfg.n_baths)]
            reg = QubitRegister(labels)
            if cfg.setting == "I":
                u = partial_swap(cfg.coupling_j * cfg.dt, ("S", "A0"), reg).mat
            else:
                u = setting2_unitary(cfg, reg, "S", "A0", "A1").mat
            fresh = kron(*(cfg.bath_state(b) for b in range(cfg.n_baths)))
            rho = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
            res = evolve(cfg, sys_dm(rho), 5)
            for out, q_sa in zip(res.states, res.q_sa):
                before = np.kron(rho, fresh)
                after = u @ before @ u.conj().T
                f = fresh.shape[0]
                expected = np.einsum("ikjk->ij", after.reshape(2, f, 2, f))
                assert np.abs(out - expected).max() < 1e-12
                for b in range(cfg.n_baths):
                    h = embed(0.5 * cfg.omega * SIGMA_Z, [labels[b + 1]], reg)
                    q = np.trace(h @ (after - before)).real
                    assert abs(q_sa[b] - q) < 1e-12
                rho = out

    def test_rejects_nonzero_delta(self):
        with pytest.raises(InvalidParameter, match="delta = 0"):
            markovian_channel(cfg_i(delta=0.3))


class TestStepChannel:
    def test_superop_of_the_wrong_size_raises(self):
        with pytest.raises(DimensionMismatch, match=r"\(5, 5\)"):
            StepChannel(QubitRegister(["S"]), np.eye(5, dtype=complex))

    def test_non_square_superop_raises(self):
        with pytest.raises(DimensionMismatch, match=r"\(4, 3\)"):
            StepChannel(QubitRegister(["S"]), np.ones((4, 3), dtype=complex))

    def test_non_finite_superop_raises(self):
        superop = np.eye(4, dtype=complex)
        superop[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            StepChannel(QubitRegister(["S"]), superop)

    @pytest.mark.parametrize("entry, value", [((1, 1), 0.5 + 1e-9), ((0, 3), 1e-9j),
                                              ((1, 2), 1e-11)],
                             ids=["mirror-real-part", "diagonal-imaginary", "just-above-tol"])
    def test_superop_not_preserving_hermiticity_raises(self, entry, value):
        # S(X^dag) = S(X)^dag fails when an entry misses its mirror's conjugate:
        # ((0, 1), (0, 1)) against ((1, 0), (1, 0)), a population read off a
        # population with an imaginary part, a coherence term without its twin
        superop = np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex)
        superop[entry] = value
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            StepChannel(QubitRegister(["S"]), superop)

    def test_superop_within_the_hermiticity_tolerance_is_kept(self):
        superop = np.diag([1.0, 0.5, 0.5 + 0.9e-12, 1.0]).astype(complex)
        assert StepChannel(QubitRegister(["S"]), superop).superop[2, 2] == 0.5 + 0.9e-12

    def test_non_finite_entry_reports_non_finite_not_hermiticity(self):
        # a NaN fails the mirror comparison too; the error names the NaN
        superop = np.eye(4, dtype=complex)
        superop[0, 0] = np.inf
        superop[3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            StepChannel(QubitRegister(["S"]), superop)

    def test_c_and_f_ordered_superops_are_checked_alike(self):
        # the check reads S^T when S is F-ordered; a non-contiguous view is read too
        superop = np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex)
        superop[1, 2] = 0.25
        for arr in (superop, np.asfortranarray(superop), np.kron(superop, np.ones((1, 2)))[:, ::2]):
            with pytest.raises(ValueError, match="does not preserve Hermiticity"):
                StepChannel(QubitRegister(["S"]), arr)
        superop[2, 1] = 0.25
        for arr in (superop, np.asfortranarray(superop), np.kron(superop, np.ones((1, 2)))[:, ::2]):
            StepChannel(QubitRegister(["S"]), arr)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (4, 1), (2, 2, 1), (4, 4)])
    def test_apply_to_a_matrix_of_the_wrong_shape_raises(self, shape):
        # a vector with dim^2 entries used to be reshaped silently
        ch = StepChannel(QubitRegister(["S"]), np.eye(4))
        with pytest.raises(DimensionMismatch, match=r"does not match register dimension 2"):
            ch.apply(np.ones(shape))

    def test_apply_to_a_nested_list_matrix(self):
        ch = embedded_step_channel(cfg_i(dt=0.1, delta=0.3))
        rho = np.kron(gibbs_qubit(2.0, 1.0).mat, gibbs_qubit(2.0, 1.0).mat)
        assert np.array_equal(ch.apply(rho.tolist()), ch.apply(rho))

    def test_nested_list_superop_is_read_as_an_array(self):
        ch = StepChannel(QubitRegister(["S"]), np.diag([0.5, 0.2, 0.2, 1.0]).tolist())
        assert ch.superop.dtype == complex
        assert np.array_equal(steady_state(ch).mat, projector(1))

    def test_core_array_is_kept_not_copied(self):
        from collideq.engine import _step_ops

        cfg = cfg_ii(beta=2.0, dt=0.1, delta=0.6 * HALF_PI)
        assert embedded_step_channel(cfg).superop is _step_ops(cfg).superop


class TestEmbeddedChannel:
    def test_trace_preserving(self):
        for cfg in (cfg_i(delta=0.5), cfg_ii(delta=0.9, dt=0.1)):
            ch = embedded_step_channel(cfg)
            d = ch.dim
            for _ in range(5):
                a = np.random.default_rng(3).normal(size=(d, d))
                m = a @ a.T + np.eye(d)
                m = m / np.trace(m)
                out = ch.apply(m)
                assert abs(np.trace(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("cfg", [cfg_i(dt=0.1, delta=0.7),
                                     cfg_ii(beta=0.3, dt=0.3, delta=1.2)], ids=["I", "II"])
    def test_superop_matches_explicit_ancilla_conjugation(self, cfg):
        # oracle from the public unitaries on (S, M..., F...): the compound
        # collision lifted by kron, then each bath's intra collision; the
        # memories are traced out and the fresh units become the new ones
        from collideq.engine import _StepOps
        from collideq.tensor import _ptrace_raw

        mem = ["M"] if cfg.n_baths == 1 else ["M0", "M1"]
        fresh = ["F" + m[1:] for m in mem]
        compound, ext = QubitRegister(["S"] + mem), QubitRegister(["S"] + mem + fresh)
        if cfg.setting == "I":
            u = partial_swap(cfg.coupling_j * cfg.dt, ("S", "M"), compound).mat
        else:
            u = setting2_unitary(cfg, compound, "S", *mem).mat
        step = np.kron(u, np.eye(2 ** cfg.n_baths))
        for m, f in zip(mem, fresh):
            step = partial_swap(cfg.delta, (m, f), ext).mat @ step
        tau = kron(*(cfg.bath_state(b) for b in range(cfg.n_baths)))
        keep = ext.positions(["S"] + fresh)
        d = compound.dim
        columns = _StepOps(cfg).superop.T.reshape(d * d, d, d)
        ref = np.array([_ptrace_raw(step @ np.kron(m, tau) @ step.conj().T, ext.n_qubits, keep)
                        for m in np.eye(d * d, dtype=complex).reshape(d * d, d, d)])
        if cfg.setting == "I":
            assert np.array_equal(columns, ref)
        else:
            assert np.abs(columns - ref).max() <= 1e-15

    @pytest.mark.parametrize("cfg", [cfg_i(dt=0.1, delta=0.7),
                                     cfg_ii(beta=0.3, dt=0.3, delta=1.2)], ids=["I", "II"])
    def test_attach_is_kron_with_fresh_state(self, cfg):
        from collideq.engine import _step_ops

        ops = _step_ops(cfg)
        rng = np.random.default_rng(9)
        for d in (2, ops.compound_register.dim):
            x, y = rng.normal(size=(2, 3, 2, d, d))
            stack = x + 1j * y
            out = ops.attach(stack)
            assert out.shape == (3, 2, d * ops.fresh_state.shape[0], d * ops.fresh_state.shape[0])
            for idx in np.ndindex(3, 2):
                assert np.array_equal(out[idx], np.kron(stack[idx], ops.fresh_state))

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("dt", [1e-3, 0.14375, 0.38125])
    @pytest.mark.parametrize("delta", [0.0, 0.95 * HALF_PI])
    def test_superop_exactly_zero_between_coherence_orders(self, setting, beta, dt, delta):
        # both collisions conserve excitation number and every fresh unit is
        # diagonal, so S maps |i><j| into operators of order N(i) - N(j)
        from collideq.engine import _StepOps

        s = _StepOps(ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)).superop
        d = math.isqrt(len(s))
        excited = np.array([bin(d - 1 - i).count("1") for i in range(d)])  # bit 0 = excited
        order = (excited[:, None] - excited[None, :]).reshape(-1)
        assert np.all(s[order[:, None] != order[None, :]] == 0)

    def test_completely_positive_choi(self):
        for cfg in (cfg_i(delta=0.8), cfg_ii(delta=0.8, dt=0.05)):
            ch = embedded_step_channel(cfg)
            d = ch.dim
            choi = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[i, j] = 1.0
                    choi += np.kron(e, ch.apply(e))
            assert np.linalg.eigvalsh(choi).min() > -1e-8

    def test_matches_markovian_recursion_at_delta_zero(self):
        for make in (cfg_i, cfg_ii):
            cfg = make(beta=2.0, dt=0.02, delta=0.0)
            ch = embedded_step_channel(cfg)
            rho_s = sys_dm(np.diag([1.0, 0.0]))
            mem = np.diag([0.0, 1.0]) if cfg.setting == "II" else gibbs_qubit(2.0, 1.0).mat
            if cfg.setting == "II":
                compound = kron(rho_s.mat, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
            else:
                compound = np.kron(rho_s.mat, mem)
            bare = markovian_channel(cfg)
            rho_direct = rho_s.mat
            for _ in range(200):
                compound = ch.apply(compound)
                rho_direct = bare.apply(rho_direct)
            d = ch.dim // 2
            marg = np.einsum("ikjk->ij", compound.reshape(2, d, 2, d))
            assert np.abs(marg - rho_direct).max() < 1e-10

    def test_setting1_thermal_product_is_fixed_point(self):
        for delta in (0.0, 0.4, 0.95 * HALF_PI):
            cfg = cfg_i(beta=2.0, dt=0.05, delta=delta)
            ch = embedded_step_channel(cfg)
            g = gibbs_qubit(2.0, 1.0).mat
            prod = np.kron(g, g)
            assert np.abs(ch.apply(prod) - prod).max() < 1e-12

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 40.0, math.inf])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.6, 0.95 * HALF_PI])
    def test_births_with_weight_match_all_births_bit_for_bit(self, setting, beta, dt, delta):
        # dropping the births of weight exactly 0 leaves every sum, and the
        # sign of every zero, as the sum over all births has them
        from collideq.engine import _step_ops

        cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)
        ops = _step_ops(cfg)
        weighted = np.count_nonzero(ops.fresh_state.diagonal())
        # setting II's fresh units are pure; setting I's are Gibbs, pure only at beta = inf
        assert weighted == (2 if setting == "I" and beta < math.inf else 1)
        for got, ref in zip((ops.superop, ops.readout), all_births_step(cfg)):
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


class TestSteadyState:
    def test_setting1_homogenizes_for_all_parameters(self):
        target = gibbs_qubit(2.0, 1.0).mat
        for delta in (0.0, 0.5, 0.8 * HALF_PI, 0.95 * HALF_PI):
            for dt in (0.001, 0.01, 0.1):
                rho = steady_state(embedded_step_channel(cfg_i(beta=2.0, dt=dt, delta=delta)))
                marg = np.einsum("ikjk->ij", rho.mat.reshape(2, 2, 2, 2))
                assert np.abs(marg - target).max() < 1e-9
                assert np.abs(rho.mat - np.kron(target, target)).max() < 1e-8

    def test_setting2_small_dt_slope_matches_expansion(self):
        # finite-dt correction to the population asymmetry, paper expansion
        beta = 2.0
        nb = nbar(beta, 1.0)
        coef = nb * (nb + 1) / (6 * (2 * nb + 1) ** 2)
        dt = 1e-4
        rho = steady_state(embedded_step_channel(cfg_ii(beta=beta, dt=dt)))
        marg = np.einsum("ikjk->ij", rho.mat.reshape(2, 4, 2, 4))
        est = effective_temperature(DensityMatrix(QubitRegister(["S"]), marg), 1.0)
        g = 1 / (2 * nb + 1)
        assert abs((est.g_e - g) / dt - coef) / coef < 0.01

    def test_setting2_corner_n3_scales_as_dt_delta_squared(self):
        # near the (dt, delta) = (0, 0) corner the steady state's tripartite
        # negativity goes as N3 ~ 2.8 dt x^2 with x = delta / (pi/2): the
        # ratio stays in one band, rises as dt falls at x = 0.1 (2.55, 2.79,
        # 2.83), and N3 is exactly 0 without intra-bath collisions
        def n3(dt, x):
            cfg = cfg_ii(beta=2.0, dt=dt, delta=x * HALF_PI)
            return tripartite_negativity(steady_state(embedded_step_channel(cfg)))

        ratios = {(dt, x): n3(dt, x) / (dt * x * x)
                  for dt in (1e-1, 1e-2, 1e-3) for x in (0.025, 0.05, 0.1, 0.2)}
        assert all(2.3 <= r <= 3.1 for r in ratios.values()), ratios
        assert ratios[1e-1, 0.1] < ratios[1e-2, 0.1] < ratios[1e-3, 0.1]
        assert n3(1e-3, 0.0) == 0.0

    def test_identity_channel_degenerate(self):
        ch = StepChannel(QubitRegister(["S"]), np.eye(4, dtype=complex))
        with pytest.raises(NonUniqueSteadyState) as err:
            steady_state(ch)
        assert err.value.multiplicity >= 2

    def test_markovian_channel_agrees_with_compound(self):
        cfg = cfg_ii(beta=0.5, dt=0.2)
        rho_small = steady_state(markovian_channel(cfg))
        rho_big = steady_state(embedded_step_channel(cfg))
        marg = np.einsum("ikjk->ij", rho_big.mat.reshape(2, 4, 2, 4))
        assert np.abs(rho_small.mat - marg).max() < 1e-11

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.3, 2.0, math.inf])
    @pytest.mark.parametrize("dt", [1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.95 * HALF_PI])
    def test_matches_eig_eigenvector(self, setting, beta, dt, delta):
        ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting))
        ref, tol = self._eig_fixed_point(ch)
        assert np.abs(steady_state(ch).mat - ref).max() < tol

    @staticmethod
    def _eig_fixed_point(ch):
        """Unit-trace eigenvalue-1 vector of the full superoperator, and the gap tolerance."""
        w, v = np.linalg.eig(ch.superop)
        k = int(np.argmin(np.abs(w - 1.0)))
        ref = v[:, k].reshape(ch.dim, ch.dim)
        gap = 1.0 - np.sort(np.abs(w))[-2]
        return ref / np.trace(ref), max(1e-11, 100 * np.finfo(float).eps / gap)

    def test_dense_random_channel_matches_eig_eigenvector(self):
        # random Kraus operators with full support: one block, the dense path
        rng = np.random.default_rng(14)
        k = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        w, v = np.linalg.eigh(np.einsum("kji,kjl->il", k.conj(), k))
        k = k @ (v / np.sqrt(w)) @ v.conj().T  # sum_k K^dag K = 1
        superop = sum(np.kron(a, a.conj()) for a in k)
        assert np.all(superop != 0)
        ch = StepChannel(QubitRegister(["S"]), superop)
        ref, tol = self._eig_fixed_point(ch)
        assert np.abs(steady_state(ch).mat - ref).max() < tol

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("dt", [0.025, 0.14375, 0.38125, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.6 * HALF_PI, 0.95 * HALF_PI])
    def test_block_solve_matches_full_bordered_solve(self, setting, beta, dt, delta):
        ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting))
        n, d = len(ch.superop), ch.dim
        bordered = ch.superop - np.eye(n)
        bordered[0] = np.eye(d).reshape(-1)
        ref = np.linalg.solve(bordered, np.eye(n)[0]).reshape(d, d)
        ref = 0.5 * (ref + ref.conj().T)
        ref = ref / np.trace(ref).real
        gap = 1.0 - np.sort(np.abs(np.linalg.eigvals(ch.superop)))[-2]
        tol = max(1e-11, 100 * np.finfo(float).eps / gap)
        assert np.abs(steady_state(ch).mat - ref).max() < tol

    def test_singular_bordered_system_nonunique(self):
        # populations decay by half, and the coherence block [[0.5, 0.5],
        # [0.5, 0.5]] keeps X_01 + X_10: eigenvalue 1 is simple but its
        # eigenvector sigma_x is traceless, so no unit-trace fixed point exists
        superop = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        superop[1:3, 1:3] = 0.5
        with pytest.raises(NonUniqueSteadyState) as err:
            steady_state(StepChannel(QubitRegister(["S"]), superop))
        assert err.value.multiplicity == 2

    def test_traceless_fixed_point_in_trace_block_nonunique(self):
        # the populations' block holds the simple eigenvalue 1, but its
        # eigenvector (1, -1) is traceless: the bordered block is singular
        superop = np.diag([0.0, 0.3, 0.3, 0.0]).astype(complex)
        superop[np.ix_([0, 3], [0, 3])] = [[0.75, -0.25], [-0.25, 0.75]]
        with pytest.raises(NonUniqueSteadyState) as err:
            steady_state(StepChannel(QubitRegister(["S"]), superop))
        assert err.value.multiplicity == 2

    def test_fixed_point_outside_the_decaying_populations_block(self):
        # not trace preserving: the populations 00 and 11 are blocks of their
        # own, and only 11 holds the simple eigenvalue 1, with eigenvector
        # |1><1|; solving on a union of every diagonal block would put the
        # decaying 00 entry in the bordered system's first row, a singular system
        ch = StepChannel(QubitRegister(["S"]), np.diag([0.5, 0.2, 0.2, 1.0]).astype(complex))
        assert np.abs(steady_state(ch).mat - projector(1)).max() <= 1e-15

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("dt", [0.01, 0.3])
    @pytest.mark.parametrize("delta", [0.0, 0.6 * HALF_PI, 0.95 * HALF_PI])
    def test_one_block_holds_the_diagonal_and_the_peripheral_eigenvalue(self, setting, beta,
                                                                       dt, delta):
        # the step is trace preserving, so the trace functional on each block
        # holding a diagonal entry is a left eigenvector of eigenvalue 1; with
        # a unique fixed point exactly one block holds diagonal entries, and
        # it is the block of the peripheral eigenvalue that steady_state solves on
        from collideq.tensor import connected_blocks

        ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting))
        superop, d = ch.superop, ch.dim
        blocks = connected_blocks(superop != 0)
        holders = [b for b in blocks if np.any(b % (d + 1) == 0)]
        assert len(holders) == 1
        (block,) = holders
        trace_vec = (block % (d + 1) == 0).astype(float)
        assert trace_vec.sum() == d
        assert np.abs(trace_vec @ superop[np.ix_(block, block)] - trace_vec).max() <= 1e-14
        peripheral = [b for b in blocks
                      if np.abs(np.linalg.eigvals(superop[np.ix_(b, b)])).max() > 1.0 - 1e-9]
        assert len(peripheral) == 1 and peripheral[0] is block

    def test_nonpositive_fixed_point_raises(self):
        ch = StepChannel(QubitRegister(["S"]), replace_by(np.diag([1.5, -0.5])))
        with pytest.raises(NumericalPositivityError, match="-5.000e-01"):
            steady_state(ch)

    def test_large_residual_raises(self):
        # eigenvalue-1 vector of trace 1e-10: its unit-trace rescaling is
        # ~1e10 large and misses the fixed-point residual bound
        v = np.array([[5e-11, 1.0], [1.0, 5e-11]], dtype=complex).reshape(-1)
        w = np.array([1.0, 0.25, 0.25, 1.0])  # equal coherence weights: Hermiticity preserved
        ch = StepChannel(QubitRegister(["S"]), np.outer(v, w) / (w @ v))
        with pytest.raises(FixedPointError, match="residual 4.15e-08"):
            steady_state(ch)

    def test_cross_check_disagreement_raises(self, monkeypatch):
        import collideq.engine as engine

        monkeypatch.setattr(engine, "_power_fixed_point",
                            lambda block, trace_vec: trace_vec / trace_vec.sum())
        with pytest.raises(FixedPointError, match="disagree"):
            steady_state(embedded_step_channel(cfg_ii(beta=2.0, dt=0.1)))

    def test_power_iteration_lost_trace_raises(self):
        from collideq.engine import _power_fixed_point

        with pytest.raises(FixedPointError, match="trace"):
            _power_fixed_point(np.zeros((4, 4), dtype=complex), np.eye(2).reshape(-1))

    def test_cold_tiny_dt_fixed_point_is_gibbs_product(self):
        rho = steady_state(embedded_step_channel(cfg_i(beta=50.0, dt=1e-6)))
        g = gibbs_qubit(50.0, 1.0).mat
        assert np.abs(rho.mat - np.kron(g, g)).max() < 1e-12


    def test_mirror_block_not_conjugate_is_rejected(self):
        # the coherences |0><1| and |1><0| are mirror blocks, but this map
        # keeps the second and halves the first: it does not preserve
        # Hermiticity, so its real matrix on Hermitian coordinates would not
        # carry its spectrum (eigenvalue 1 is double); the channel is refused
        superop = np.diag([0.0, 0.5, 1.0, 0.0]).astype(complex)
        superop[np.ix_([0, 3], [0, 3])] = [[0.75, 0.25], [0.25, 0.75]]
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            StepChannel(QubitRegister(["S"]), superop)

    @SPECTRUM_GRID
    def test_fixed_point_equals_the_complex_block_oracle(self, setting, beta, dt, x):
        # the spectrum and the power iteration run on Hermitian coordinates,
        # the bordered solve on the same complex block of S: bit for bit
        ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=x * HALF_PI,
                                               setting=setting))
        got, ref = steady_state(ch).mat, complex_block_steady_state(ch).mat
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))

    @staticmethod
    def _block_spectra(superop, d):
        """Sorted moduli of the blocks of S and of its real matrix R on Hermitian coordinates."""
        from collideq.engine import _hermitian_superop
        from collideq.tensor import connected_blocks

        real = _hermitian_superop(superop, d)
        assert real.dtype == float and real.shape == superop.shape
        return [np.sort(np.concatenate([np.abs(np.linalg.eigvals(m[np.ix_(b, b)]))
                                        for b in connected_blocks(m != 0)]))
                for m in (superop, real)]

    def _assert_same_spectrum(self, superop, d):
        complex_moduli, real_moduli = self._block_spectra(superop, d)
        assert np.abs(complex_moduli - real_moduli).max() <= 1e-13
        for moduli in (complex_moduli, real_moduli):
            assert np.count_nonzero(moduli > 1.0 - 1e-9) == 1
        assert abs((1.0 - complex_moduli[-2]) - (1.0 - real_moduli[-2])) <= 1e-13

    @SPECTRUM_GRID
    def test_hermitian_coordinate_blocks_carry_the_spectrum_of_s(self, setting, beta, dt, x):
        ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=x * HALF_PI,
                                               setting=setting))
        self._assert_same_spectrum(ch.superop, ch.dim)

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, math.inf])
    @pytest.mark.parametrize("x", [0.0, 0.6])
    def test_blocks_of_r_pair_the_mirror_blocks_of_s(self, setting, beta, x):
        # R is exactly 0 between its blocks, and each block reads the vec
        # indices of one block of S and of its mirror block
        from collideq.engine import _hermitian_coordinates, _hermitian_superop, _spectral_blocks

        ch = embedded_step_channel(ModelConfig(beta=beta, dt=0.1, delta=x * HALF_PI,
                                               setting=setting))
        superop, d = ch.superop, ch.dim
        complex_blocks, blocks = _spectral_blocks(d, (superop != 0).tobytes())
        real = _hermitian_superop(superop, d)
        inside = np.zeros(real.shape, dtype=bool)
        for b in blocks:
            inside[np.ix_(b, b)] = True
        assert np.all(real[~inside] == 0)
        vec = _hermitian_coordinates(d)
        n = d * (d + 1) // 2
        mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
        read = np.concatenate((vec[:n], vec[d:n]))  # coordinate -> the entry it reads
        for b in blocks:
            entries = set(read[b]) | set(mirror[read[b]])
            owners = [c for c in complex_blocks if entries & set(c)]
            assert entries == set().union(*map(set, owners))
            assert len(owners) <= 2

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_dense_random_channel_has_the_spectrum_of_s_on_hermitian_coordinates(self,
                                                                                n_qubits):
        # random Kraus operators with full support: one dense block each way
        rng = np.random.default_rng(40 + n_qubits)
        d = 2 ** n_qubits
        k = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        w, v = np.linalg.eigh(np.einsum("kji,kjl->il", k.conj(), k))
        k = k @ (v / np.sqrt(w)) @ v.conj().T  # sum_k K^dag K = 1
        superop = sum(np.kron(a, a.conj()) for a in k)
        ch = StepChannel(QubitRegister([f"q{i}" for i in range(n_qubits)]), superop)
        self._assert_same_spectrum(ch.superop, d)

    @pytest.mark.parametrize("setting", ["I", "II"])
    def test_hermitian_superop_is_the_channel_on_hermitian_coordinates(self, setting):
        # R x, read back as a matrix, is S(X) for the Hermitian X of x
        from collideq.engine import _hermitian_matrix, _hermitian_superop

        ch = embedded_step_channel(ModelConfig(beta=2.0, dt=0.1, delta=0.6 * HALF_PI,
                                               setting=setting))
        d = ch.dim
        k, l = np.triu_indices(d, 1)
        rng = np.random.default_rng(5)
        for _ in range(3):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mat = a + a.conj().T
            x = np.concatenate((mat.diagonal().real, mat[k, l].real, mat[k, l].imag))
            assert np.array_equal(_hermitian_matrix(x, d), mat)
            image = _hermitian_matrix(_hermitian_superop(ch.superop, d) @ x, d)
            assert np.abs(image - ch.apply(mat)).max() <= 1e-14

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("delta", [0.0, 0.6 * HALF_PI, 0.95 * HALF_PI])
    def test_mirror_blocks_are_conjugate_with_equal_spectra(self, setting, beta, delta):
        # S(X^dag) = S(X)^dag: reading vec(|i><j|) as vec(|j><i|) maps S to its
        # conjugate, so the blocks of S come in mirror pairs of equal moduli
        from collideq.engine import connected_blocks

        ch = embedded_step_channel(ModelConfig(beta=beta, dt=0.2, delta=delta, setting=setting))
        superop, d = ch.superop, ch.dim
        mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
        assert np.abs(superop[np.ix_(mirror, mirror)] - superop.conj()).max() <= 1e-15
        blocks = connected_blocks(superop != 0)
        by_min = {int(b.min()): np.sort(b) for b in blocks}
        for block in blocks:
            image = np.sort(mirror[block])
            assert np.array_equal(by_min[int(image[0])], image)
            moduli = np.abs(np.linalg.eigvals(superop[np.ix_(block, block)]))
            twin = np.abs(np.linalg.eigvals(superop[np.ix_(image, image)]))
            assert np.abs(np.sort(moduli) - np.sort(twin)).max() <= 1e-12


class TestCoreCaches:
    """Cores built from cached pieces equal cores built from nothing."""

    @staticmethod
    def _fresh_core(cfg):
        import collideq.engine as engine
        import collideq.tensor as tensor

        for cache in (engine._collision, engine._bath_pieces, engine._readout_pieces,
                      tensor._components):
            cache.cache_clear()
        return engine._StepOps(cfg)

    def _check_sequence(self, cfgs):
        import collideq.engine as engine

        refs = [self._fresh_core(cfg) for cfg in cfgs]
        engine._step_ops.cache_clear()
        for cfg, ref in zip(cfgs, refs):
            ops = engine._step_ops(cfg)
            for name in ("u_compound", "superop", "readout", "joint"):
                assert np.array_equal(getattr(ops, name), getattr(ref, name)), (cfg, name)

    def test_neighbours_at_same_dt_match_uncached_build(self):
        from dataclasses import replace

        base = cfg_ii(beta=2.0, dt=0.2, delta=0.6 * HALF_PI)
        cfgs = [base, replace(base, omega=1.3), replace(base, gamma=0.7),
                replace(base, beta=0.5), replace(base, setting="I"),
                replace(base, setting="I", beta=math.inf), replace(base, delta=0.0), base]
        self._check_sequence(cfgs)

    def test_shuffled_grid_matches_uncached_build(self):
        import itertools

        grid = [ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)
                for setting, beta, dt, delta in itertools.product(
                    ["I", "II"], [0.5, math.inf], [0.01, 0.325], [0.0, 0.95 * HALF_PI])]
        order = np.random.default_rng(15).permutation(len(grid))
        self._check_sequence([grid[i] for i in order] * 2)

    def test_cached_arrays_are_read_only(self):
        import collideq.engine as engine
        import collideq.tensor as tensor

        for cfg in (cfg_i(dt=0.1, delta=0.7), cfg_ii(beta=0.3, dt=0.3, delta=1.2)):
            ops = engine._step_ops(cfg)
            arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
            arrays.append(engine._collision(cfg.setting, cfg.beta, cfg.dt, cfg.omega, cfg.gamma))
            arrays += engine._bath_pieces(cfg.setting, cfg.beta, cfg.omega, cfg.delta)
            rows, energies = engine._readout_pieces(cfg.n_baths, cfg.omega)
            arrays += rows
            for h_m, e_m in energies:
                arrays += [h_m, e_m]
            arrays += tensor.connected_blocks(ops.superop != 0)
            assert len(arrays) > 10
            for a in arrays:
                assert not a.flags.writeable


class TestEvolve:
    @pytest.mark.parametrize("n_steps", [1, _EVOLVE_CHUNK - 1, _EVOLVE_CHUNK, _EVOLVE_CHUNK + 1,
                                         2 * _EVOLVE_CHUNK + 3])
    @pytest.mark.parametrize("start", ["ground", "mixed"])
    @pytest.mark.parametrize("cfg", [cfg_i(dt=0.1, delta=0.7),
                                     cfg_ii(beta=0.3, dt=0.3, delta=1.2)], ids=["I", "II"])
    def test_chunked_steps_match_the_per_step_loop(self, cfg, start, n_steps):
        # n_steps sits on and around the chunk edges
        rho0 = projector(1) if start == "ground" else np.eye(2) / 2
        res = evolve(cfg, sys_dm(rho0), n_steps)
        ref = per_step_evolve(cfg, rho0, n_steps)
        for name, expected in zip(("states", "q_sa", "q_intra_in", "q_intra_out"), ref):
            assert np.array_equal(getattr(res, name), expected), name

    def test_setting1_monotone_fidelity_below_revival_threshold(self):
        # at delta = 0.5 pi/2 the memory refreshes well inside one exchange
        # cycle, so the approach to the thermal state is strictly monotone
        cfg = cfg_i(beta=2.0, dt=0.01, delta=0.5 * HALF_PI)
        res = evolve(cfg, sys_dm(projector(0)), 600)
        one_minus_f = 1.0 - res.fidelity_to_gibbs
        assert np.all(np.diff(one_minus_f) < 1e-10)

    def test_setting2_oscillatory_fidelity_at_strong_delta(self):
        cfg = cfg_ii(beta=2.0, dt=0.01, delta=0.95 * HALF_PI)
        res = evolve(cfg, sys_dm(projector(0)), 600)
        one_minus_f = 1.0 - res.fidelity_to_gibbs
        increments = np.diff(one_minus_f)
        assert increments.max() > 1e-3  # sizeable revivals before settling

    def test_full_swap_collision_exchanges_states(self):
        beta = 2.0
        nb = nbar(beta, 1.0)
        dt = (math.pi / 2) ** 2 / (2 * nb + 1)  # J dt = pi/2
        cfg = cfg_i(beta=beta, dt=dt)
        res = evolve(cfg, sys_dm(projector(0)), 1)
        assert np.abs(res.states[0] - gibbs_qubit(beta, 1.0).mat).max() < 1e-12

    def test_energy_bookkeeping_closes(self):
        # dE(system) + dE(memory slots) + lifecycle heat of retired units = 0
        for cfg in (cfg_i(beta=1.0, dt=0.05, delta=0.6), cfg_ii(beta=1.0, dt=0.05, delta=0.6)):
            n = 40
            res = evolve(cfg, sys_dm(np.diag([0.8, 0.2])), n)
            omega = cfg.omega

            def sys_energy(mat):
                return 0.5 * omega * (mat[0, 0] - mat[1, 1]).real

            e_sys = [sys_energy(np.diag([0.8, 0.2]))] + [sys_energy(res.states[k]) for k in range(n)]
            # reconstruct memory energies per step from the compound at the end
            # is awkward; instead use the identity q_intra_in[n+1] = -q_intra_out[n]
            assert np.abs(res.q_intra_in[1:] + res.q_intra_out[:-1]).max() < 1e-12
            # per-step system energy change balances q_sa
            d_sys = np.diff(np.array(e_sys))
            assert np.abs(d_sys + res.q_sa.sum(axis=1)).max() < 1e-10

    def test_total_energy_bookkeeping(self):
        # dE(system) + dE(memory slots) + lifecycle heat of the retired
        # unit(s) closes to zero at every step
        from collideq.engine import _StepOps

        for cfg in (cfg_i(beta=1.0, dt=0.06, delta=0.7), cfg_ii(beta=0.8, dt=0.06, delta=0.9)):
            ops = _StepOps(cfg)
            nb = cfg.n_baths
            rho_c = np.kron(np.diag([0.7, 0.3]).astype(complex),
                            kron(*(cfg.bath_state(b) for b in range(nb))))
            reg = ops.compound_register

            def qubit_energy(mat, label):
                h = embed(0.5 * cfg.omega * SIGMA_Z, [label], reg)
                return float(np.trace(h @ mat).real)

            def energies(mat):
                e_s = qubit_energy(mat, "S")
                e_m = sum(qubit_energy(mat, l) for l in reg.labels[1:])
                return e_s, e_m

            pending_in = np.zeros(nb)
            e_s, e_m = energies(rho_c)
            for _ in range(30):
                v = rho_c.reshape(-1)
                q_sa, q_out, q_in_next = ops.heats(ops.readout @ v)
                rho_c = (ops.superop @ v).reshape(rho_c.shape)
                lifecycle = (pending_in + q_sa + q_out).sum()
                e_s2, e_m2 = energies(rho_c)
                closure = (e_s2 - e_s) + (e_m2 - e_m) + lifecycle
                assert abs(closure) < 1e-10
                e_s, e_m = e_s2, e_m2
                pending_in = q_in_next

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("dt", [0.1, 0.01])
    @pytest.mark.parametrize("delta", [0.0, 0.6 * HALF_PI, 0.95 * HALF_PI])
    def test_matches_explicit_ancilla_chain(self, setting, beta, dt, delta):
        # every ancilla kept on its own axes: no memory embedding, no
        # engineered SWAP; the deviation measured on this grid is at most
        # 1.1e-15 (states) and 6.1e-16 (heats)
        cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting=setting)
        rho0 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        n_steps = 6 if setting == "I" else 3
        res = evolve(cfg, sys_dm(rho0), n_steps)
        ref = explicit_chain(cfg, rho0, n_steps)
        for name, expected in zip(("states", "q_sa", "q_intra_in", "q_intra_out"), ref):
            assert np.abs(getattr(res, name) - expected).max() <= 5e-15, name

    def test_heats_match_explicit_compound_chain(self):
        # reference built from the public unitaries: attach fresh units,
        # collide, intra-collide, read every energy, trace the memories out
        for cfg in (cfg_i(beta=1.0, dt=0.05, delta=0.6), cfg_ii(beta=0.8, dt=0.06, delta=0.9)):
            nb = cfg.n_baths
            mem = ["M"] if nb == 1 else ["M0", "M1"]
            fresh = ["F"] if nb == 1 else ["F0", "F1"]
            reg = QubitRegister(["S"] + mem + fresh)
            if nb == 1:
                u = partial_swap(cfg.coupling_j * cfg.dt, ("S", "M"), reg).mat
            else:
                u = setting2_unitary(cfg, reg, "S", "M0", "M1").mat
            v = np.eye(reg.dim)
            for m, f in zip(mem, fresh):
                v = v @ partial_swap(cfg.delta, (m, f), reg).mat
            tau = kron(*(cfg.bath_state(b) for b in range(nb)))
            e_born = [0.5 * cfg.omega * (cfg.bath_state(b)[0, 0] - cfg.bath_state(b)[1, 1]).real
                      for b in range(nb)]

            def energies(mat, labels):
                return np.array([np.trace(embed(0.5 * cfg.omega * SIGMA_Z, [l], reg) @ mat).real
                                 for l in labels])

            n = 20
            rho0 = np.diag([0.8, 0.2]).astype(complex)
            res = evolve(cfg, sys_dm(rho0), n)
            rho_c = np.kron(rho0, tau)
            pending_in = np.zeros(nb)
            for k in range(n):
                ext = np.kron(rho_c, tau)
                e_pre = energies(ext, mem)
                ext = u @ ext @ u.conj().T
                e_mid = energies(ext, mem)
                ext = v @ ext @ v.conj().T
                e_post = energies(ext, mem)
                rho_c = partial_trace(DensityMatrix(reg, ext), ["S"] + fresh).mat
                assert np.abs(res.q_sa[k] - (e_mid - e_pre)).max() < 1e-12
                assert np.abs(res.q_intra_out[k] - (e_post - e_mid)).max() < 1e-12
                assert np.abs(res.q_intra_in[k] - pending_in).max() < 1e-12
                marg = np.einsum("ikjk->ij", rho_c.reshape(2, rho_c.shape[0] // 2, 2, -1))
                assert np.abs(res.states[k] - marg).max() < 1e-12
                pending_in = energies(ext, fresh) - e_born

    def test_setting2_heats_cancel_at_compound_fixed_point(self):
        from collideq.engine import _StepOps

        cfg = cfg_ii(beta=0.5, dt=0.05, delta=0.9)
        rho_star = steady_state(embedded_step_channel(cfg))
        ops = _StepOps(cfg)
        q_sa, _, _ = ops.heats(ops.readout @ rho_star.mat.reshape(-1))
        assert abs(q_sa.sum()) < 1e-12

    def test_markovian_lifecycle_equals_qsa(self):
        cfg = cfg_ii(beta=1.0, dt=0.05, delta=0.0)
        res = evolve(cfg, sys_dm(projector(1)), 50)
        assert np.abs(res.q_intra_in).max() < 1e-12
        assert np.abs(res.q_intra_out).max() < 1e-12
        assert np.abs(res.q_lifecycle - res.q_sa).max() < 1e-12

    def test_beta_e_series_tracks_population(self):
        cfg = cfg_i(beta=2.0, dt=0.05)
        res = evolve(cfg, sys_dm(projector(0)), 200)
        assert res.beta_e[0] < res.beta_e[-1]
        assert abs(res.beta_e[-1] - 2.0) < 1e-2

    def test_lifecycle_sums_the_three_collisions(self):
        cfg = cfg_ii(beta=1.0, dt=0.05, delta=0.5)
        res = evolve(cfg, sys_dm(projector(1)), 5)
        assert res.q_lifecycle.shape == (5, 2)
        # the intra terms are live at delta > 0, so the sum is not q_sa alone
        assert np.abs(res.q_intra_in[1:]).min() > 0.0 and np.abs(res.q_intra_out).min() > 0.0
        assert np.array_equal(res.q_lifecycle, res.q_intra_in + res.q_sa + res.q_intra_out)


class TestStackedReadouts:
    """evolve's one-pass readouts against the per-state public metrics."""

    STARTS = {
        "excited": projector(0),
        "ground": projector(1),
        "mixed": np.eye(2) / 2,
        "diag(0.8,0.2)": np.diag([0.8, 0.2]),
    }

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_match_per_state_fidelity_and_beta_e(self, setting, start):
        cfg = (cfg_i if setting == "I" else cfg_ii)(beta=2.0, dt=0.01, delta=0.95 * HALF_PI)
        res = evolve(cfg, sys_dm(self.STARTS[start]), 200)
        gibbs = gibbs_qubit(cfg.beta, cfg.omega)
        for n, state in enumerate(res.states):
            rho = sys_dm(state)
            assert abs(res.fidelity_to_gibbs[n] - fidelity(rho, gibbs)) <= 2.3e-16
            expected = effective_temperature(rho, cfg.omega).beta_e
            assert math.isfinite(expected)
            assert abs(res.beta_e[n] - expected) <= np.spacing(abs(expected))

    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_coherent_start_gives_nan_beta_e(self, make_cfg):
        res = evolve(make_cfg(delta=0.5 * HALF_PI), sys_dm(np.full((2, 2), 0.5)), 200)
        coherent = np.abs(res.states[:, 0, 1]) > 1e-8
        assert coherent.any()
        assert np.array_equal(np.isnan(res.beta_e), coherent)
        for state, b_e in zip(res.states, res.beta_e):
            if np.isnan(b_e):
                with pytest.raises(NotDiagonal):
                    effective_temperature(sys_dm(state), 1.0)

    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_intermediate_step_failing_the_state_checks_raises(self, make_cfg):
        # a start smuggled past DensityMatrix's checks with population -1e-2:
        # the first steps' system states have a negative eigenvalue, but by
        # step 50 the system is positive again
        rho0 = sys_dm(projector(0))
        object.__setattr__(rho0, "mat", np.diag([1.01, -0.01]).astype(complex))
        with pytest.raises(NumericalPositivityError, match="eigenvalue below"):
            evolve(make_cfg(dt=0.001, delta=0.5 * HALF_PI), rho0, 50)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the steps
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_non_finite_start_raises(self, make_cfg, value):
        # a start smuggled past DensityMatrix's checks: every step's state
        # is non-finite and the stacked check rejects the first
        rho0 = sys_dm(projector(0))
        object.__setattr__(rho0, "mat", np.array([[0.5, value], [value, 0.5]], dtype=complex))
        with pytest.raises(NumericalPositivityError, match="non-finite"):
            evolve(make_cfg(delta=0.5 * HALF_PI), rho0, 10)

    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_pure_ground_at_zero_temperature_gives_inf_beta_e(self, make_cfg):
        res = evolve(make_cfg(beta=math.inf, delta=0.5 * HALF_PI), sys_dm(projector(1)), 50)
        assert np.all(res.beta_e == math.inf)
        assert np.all(res.fidelity_to_gibbs == 1.0)


class TestLindbladLimit:
    # both settings' populations tend to the damped-qubit master equation's as
    # dt -> 0; their coherences do not (from a coherence of 0.2 - 0.1j they
    # are off by about 0.35 at dt 1e-2 and 5e-3), so only populations are compared
    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_collision_population_converges_linearly_in_dt(self, make_cfg):
        beta, gamma = 2.0, 1.0
        t_final = 5.0
        errors = {}
        for dt in (1e-2, 5e-3):
            cfg = make_cfg(beta=beta, dt=dt, gamma=gamma)
            n = int(round(t_final / dt))
            res = evolve(cfg, sys_dm(projector(0)), n)
            oracle = damped_qubit(beta, gamma, 1.0, projector(0), dt * np.arange(1, n + 1))
            oracle_pops = oracle[:, 0, 0].real
            pops = res.states[:, 0, 0].real
            errors[dt] = np.abs(pops - oracle_pops).max()
        assert errors[1e-2] < 2e-2
        ratio = errors[1e-2] / errors[5e-3]
        assert 1.6 <= ratio <= 2.4


class TestSteadyHeatFlux:
    def test_setting1_flux_vanishes(self):
        assert abs(steady_heat_flux(cfg_i(beta=2.0, dt=0.05, delta=0.6))) < 1e-12

    def test_setting2_flux_orders_with_temperature(self):
        flux_hot = steady_heat_flux(cfg_ii(beta=0.5, dt=0.05))
        flux_cold = steady_heat_flux(cfg_ii(beta=2.0, dt=0.05))
        assert flux_hot > flux_cold > 0.0

    def test_setting2_zero_temperature_flux_vanishes(self):
        assert abs(steady_heat_flux(cfg_ii(beta=math.inf, dt=0.05))) < 1e-12

    def test_flux_equal_and_opposite_across_baths(self):
        cfg = cfg_ii(beta=1.0, dt=0.1, delta=0.7)
        rho = steady_state(embedded_step_channel(cfg))
        f0 = steady_heat_flux_from_state(cfg, rho, 0)
        f1 = steady_heat_flux_from_state(cfg, rho, 1)
        assert abs(f0 + f1) < 1e-12


# (dt, p_e tolerance, relative flux tolerance): 3-5x the worst error over
# beta {0.5, 2} measured at each dt, 7.1e-16, 1.9e-15, 9.9e-15 and 4.1e-13 in
# p_e and 6.4e-15, 7.6e-15, 1.0e-13 and 5.0e-12 in the flux, the last two
# growing as eps over the spectral gap, about gamma (2 nbar + 1) dt
TWO_BATH_MARKOV_CELLS = [(0.3, 2e-15, 3e-14), (0.1, 1e-14, 3e-14),
                         (0.01, 5e-14, 5e-13), (0.001, 2e-12, 2.5e-11)]


class TestTwoBathMarkov:
    """Setting II at delta = 0 against its closed form, ``oracles.two_bath_markov``."""

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("dt, tol_p, tol_flux", TWO_BATH_MARKOV_CELLS)
    def test_steady_state_and_flux_match_closed_form(self, beta, dt, tol_p, tol_flux):
        cfg = cfg_ii(beta=beta, dt=dt)
        rho = steady_state(embedded_step_channel(cfg))
        p_e, flux = two_bath_markov(beta, dt, cfg.omega, cfg.gamma)
        marg = np.einsum("ikjk->ij", rho.mat.reshape(2, 4, 2, 4))
        assert abs(marg[0, 0].real - p_e) <= tol_p
        assert abs(steady_heat_flux_from_state(cfg, rho, 0) / flux - 1) <= tol_flux

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_flux_tends_to_markov_limit_linearly_in_dt(self, beta):
        # flux = omega gamma nbar (nbar + 1) / (2 nbar + 1) (1 + c dt + O(dt^2)),
        # c = -gamma (3 nbar^2 + 3 nbar + 1) / (6 (2 nbar + 1)): -0.5206 at
        # beta 0.5 and -0.1959 at beta 2; the O(dt^2) rest measured
        # 0.26 |c| dt^2 and 0.12 |c| dt^2
        nb = nbar(beta, 1.0)
        limit = nb * (nb + 1) / (2 * nb + 1)
        coef = -(3 * nb * nb + 3 * nb + 1) / (6 * (2 * nb + 1))
        for dt in (1e-2, 1e-3):
            slope = (steady_heat_flux(cfg_ii(beta=beta, dt=dt)) / limit - 1) / dt
            assert abs(slope - coef) <= 0.5 * abs(coef) * dt


def _flux_state(bath):
    cfg = cfg_ii(dt=0.1)
    return steady_heat_flux_from_state(cfg, steady_state(embedded_step_channel(cfg)), bath=bath)


# a two-qubit system state, which no collision of the compound can take
_PAIR_DM = DensityMatrix(QubitRegister(["S", "X"]), np.eye(4, dtype=complex) / 4)


@pytest.mark.parametrize("call, error, match", [
    (lambda: evolve(cfg_i(), sys_dm(projector(0)), 0), InvalidParameter, "n_steps"),
    (lambda: evolve(cfg_i(), sys_dm(projector(0)), 2.5), InvalidParameter, "n_steps"),
    (lambda: evolve(cfg_i(), sys_dm(projector(0)), True), InvalidParameter, "n_steps"),
    (lambda: _flux_state(2), InvalidParameter, "bath"),
    (lambda: _flux_state(True), InvalidParameter, "bath"),
    (lambda: _flux_state(0.5), InvalidParameter, "bath"),
    (lambda: steady_heat_flux(cfg_ii(dt=0.1), bath=True), InvalidParameter, "bath"),
    (lambda: steady_heat_flux(cfg_ii(dt=0.1), bath=0.5), InvalidParameter, "bath"),
    # a cell whose solve fails (nonpositive) still reports the bad bath
    (lambda: steady_heat_flux(ModelConfig(beta=40, dt=0.005, delta=0.999 * HALF_PI,
                                          setting="II"), bath=7), InvalidParameter, "bath"),
    (lambda: cfg_i().bath_state(1), InvalidParameter, "single bath"),
    (lambda: cfg_ii().bath_state(2), InvalidParameter, "baths 0 and 1"),
    # a system state has the wrong size for the compound's readout rows
    (lambda: steady_heat_flux_from_state(cfg_ii(dt=0.1), gibbs_qubit(2.0, 1.0)),
     DimensionMismatch, "compound"),
    (lambda: evolve(cfg_i(), _PAIR_DM, 3), DimensionMismatch, r"\('S', 'X'\)"),
], ids=["evolve-zero-steps", "evolve-fractional-steps", "evolve-bool-steps",
        "heat-flux-third-bath", "heat-flux-bool-bath", "heat-flux-fractional-bath",
        "steady-flux-bool-bath", "steady-flux-fractional-bath", "steady-flux-bath-on-failing-cell",
        "setting1-bath-1",
        "setting2-bath-2", "heat-flux-system-state", "evolve-two-qubit-state"])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_numpy_integer_counts_accepted():
    rho0 = sys_dm(projector(0))
    a, b = evolve(cfg_i(), rho0, np.int64(3)), evolve(cfg_i(), rho0, 3)
    assert np.array_equal(a.states, b.states)
    assert _flux_state(np.int64(1)) == _flux_state(1)
