import math

import numpy as np
import pytest

from collideq.engine import (
    EvolutionResult,
    HeatRecord,
    ModelConfig,
    StepChannel,
    embedded_step_channel,
    evolve,
    heisenberg_interaction,
    intra_bath_unitary,
    markovian_channel,
    markovian_step,
    partial_swap,
    setting2_unitary,
    steady_heat_flux,
    steady_heat_flux_from_state,
    steady_state,
)
from collideq.errors import (
    FixedPointError,
    InvalidParameter,
    NonUniqueSteadyState,
    NotDiagonal,
    NumericalPositivityError,
)
from collideq.lindblad import integrate, thermal_qubit_spec
from collideq.metrics import effective_temperature, fidelity, gibbs_qubit, nbar
from collideq.tensor import (
    SIGMA_Z,
    SWAP_2,
    DensityMatrix,
    QubitRegister,
    embed,
    expm_i_hermitian,
    kron,
    kron_all,
    partial_trace,
    projector,
)

HALF_PI = math.pi / 2


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
        u_exp = expm_i_hermitian(heisenberg_interaction(j, ("S", "A"), reg), dt).mat
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
        u2 = expm_i_hermitian(heisenberg_interaction(c.coupling_j, ("S", "A"), reg), c.dt).mat
        rho = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])
        out1 = np.einsum("ikjk->ij", (u1 @ np.kron(rho, eta) @ u1.conj().T).reshape(2, 2, 2, 2))
        out2 = np.einsum("ikjk->ij", (u2 @ np.kron(rho, eta) @ u2.conj().T).reshape(2, 2, 2, 2))
        assert np.abs(np.diag(out1 - out2)).max() < 1e-12
        assert np.abs(np.abs(out1[0, 1]) - np.abs(out2[0, 1])) < 1e-12

    def test_intra_bath_unitary(self):
        reg = QubitRegister(["M", "F"])
        assert np.abs(intra_bath_unitary(0.0, ("M", "F"), reg).mat - np.eye(4)).max() == 0.0
        u = intra_bath_unitary(0.95 * HALF_PI, ("M", "F"), reg).mat
        v = intra_bath_unitary(0.95 * HALF_PI, ("M", "F"), reg).mat
        # composing delta with -delta via the adjoint gives identity
        assert np.abs(u @ v.conj().T - np.eye(4)).max() < 1e-12
        with pytest.raises(InvalidParameter):
            intra_bath_unitary(HALF_PI, ("M", "F"), reg)

    def test_setting2_unitary_factorizes_at_zero_temperature(self):
        c = cfg_ii(beta=math.inf, dt=0.02)
        reg = QubitRegister(["S", "A0", "A1"])
        u = setting2_unitary(c, reg, "S", "A0", "A1").mat
        ci = cfg_i(beta=math.inf, dt=0.02)
        u_i = expm_i_hermitian(
            heisenberg_interaction(ci.coupling_j, ("S", "A0"), reg), c.dt
        ).mat
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
    def test_thermal_fixed_point_and_zero_heat(self):
        c = cfg_i(beta=2.0, dt=0.05)
        rho = gibbs_qubit(2.0, 1.0)
        out, records = markovian_step(c, rho)
        assert np.abs(out.mat - rho.mat).max() < 1e-12
        assert len(records) == 1
        assert abs(records[0].q_sa) < 1e-12
        assert records[0].q_lifecycle == records[0].q_sa

    def test_setting2_heats_equal_and_opposite_at_steady_state(self):
        # away from the fixed point the imbalance equals the system energy
        # change; at the fixed point the two bath heats cancel exactly
        c = cfg_ii(beta=0.7, dt=0.08)
        rho = steady_state(markovian_channel(c))
        for _ in range(5):
            rho, records = markovian_step(c, rho)
            assert abs(records[0].q_sa + records[1].q_sa) < 1e-12
            assert records[0].q_sa > 0.0

    def test_setting2_transient_imbalance_matches_system_energy_change(self):
        c = cfg_ii(beta=0.7, dt=0.08)
        rho = sys_dm(np.diag([0.4, 0.6]))
        for _ in range(20):
            new, records = markovian_step(c, rho)
            de_sys = 0.5 * (new.mat[0, 0] - new.mat[1, 1] - rho.mat[0, 0] + rho.mat[1, 1]).real
            assert abs(de_sys + records[0].q_sa + records[1].q_sa) < 1e-12
            rho = new

    def test_setting2_zero_temperature_matches_setting1(self):
        rho1 = sys_dm(np.diag([0.55, 0.45]))
        rho2 = sys_dm(np.diag([0.55, 0.45]))
        c1 = cfg_i(beta=math.inf, dt=0.03)
        c2 = cfg_ii(beta=math.inf, dt=0.03)
        for _ in range(50):
            rho1, _ = markovian_step(c1, rho1)
            rho2, _ = markovian_step(c2, rho2)
            assert np.abs(rho1.mat - rho2.mat).max() < 1e-10

    def test_matches_explicit_bare_collision(self):
        # oracle built only from the public unitaries: system + fresh
        # ancillas, one conjugation, ancillas traced out
        for cfg in (cfg_i(beta=0.7, dt=0.08), cfg_ii(beta=0.7, dt=0.08)):
            labels = ["S"] + [f"A{b}" for b in range(cfg.n_baths)]
            reg = QubitRegister(labels)
            if cfg.setting == "I":
                u = partial_swap(cfg.coupling_j * cfg.dt, ("S", "A0"), reg).mat
            else:
                u = setting2_unitary(cfg, reg, "S", "A0", "A1").mat
            fresh = kron_all(*(cfg.bath_state(b) for b in range(cfg.n_baths)))
            rho = sys_dm(np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]]))
            for _ in range(5):
                before = np.kron(rho.mat, fresh)
                after = u @ before @ u.conj().T
                f = fresh.shape[0]
                expected = np.einsum("ikjk->ij", after.reshape(2, f, 2, f))
                out, records = markovian_step(cfg, rho)
                assert np.abs(out.mat - expected).max() < 1e-12
                for b, rec in enumerate(records):
                    h = embed(0.5 * cfg.omega * SIGMA_Z, [labels[b + 1]], reg)
                    q = np.trace(h @ (after - before)).real
                    assert abs(rec.q_sa - q) < 1e-12
                rho = out

    def test_rejects_nonzero_delta(self):
        with pytest.raises(InvalidParameter):
            markovian_step(cfg_i(delta=0.3), sys_dm(np.eye(2) / 2))


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
            step = intra_bath_unitary(cfg.delta, (m, f), ext).mat @ step
        tau = kron_all(*(cfg.bath_state(b) for b in range(cfg.n_baths)))
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
    def test_step_with_heat_propagates_by_the_channel(self, cfg):
        from collideq.engine import _step_ops

        d = 2 ** (1 + cfg.n_baths)
        x, y = np.random.default_rng(5).normal(size=(2, d, d))
        rho = (x + 1j * y) @ (x - 1j * y).T
        rho = rho / np.trace(rho)
        assert np.array_equal(_step_ops(cfg).step_with_heat(rho)[0],
                              embedded_step_channel(cfg).apply(rho))

    @pytest.mark.parametrize("cfg", [cfg_i(dt=0.1, delta=0.7),
                                     cfg_ii(beta=0.3, dt=0.3, delta=1.2)], ids=["I", "II"])
    def test_attach_is_kron_with_fresh_state(self, cfg):
        from collideq.engine import _step_ops

        ops = _step_ops(cfg)
        rng = np.random.default_rng(9)
        for d in (2, ops.compound_dim):
            x, y = rng.normal(size=(2, 3, 2, d, d))
            stack = x + 1j * y
            out = ops.attach(stack)
            assert out.shape == (3, 2, d * ops.fresh_state.shape[0], d * ops.fresh_state.shape[0])
            for idx in np.ndindex(3, 2):
                assert np.array_equal(out[idx], np.kron(stack[idx], ops.fresh_state))

    @pytest.mark.parametrize("cfg", [cfg_i(dt=0.1, delta=0.7),
                                     cfg_ii(beta=0.3, dt=0.3, delta=1.2)], ids=["I", "II"])
    def test_propagate_yields_every_step(self, cfg):
        from collideq.engine import _step_ops

        ops = _step_ops(cfg)
        v = np.random.default_rng(4).normal(size=(ops.compound_dim ** 2, 3)).astype(complex)
        steps = list(ops.propagate(v, 4))
        assert len(steps) == 4
        for out in steps:
            v = ops.superop @ v
            assert np.array_equal(out, v)

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
                compound = kron_all(rho_s.mat, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
            else:
                compound = np.kron(rho_s.mat, mem)
            rho_direct = rho_s
            for _ in range(200):
                compound = ch.apply(compound)
                rho_direct, _ = markovian_step(cfg, rho_direct)
            d = ch.dim // 2
            marg = np.einsum("ikjk->ij", compound.reshape(2, d, 2, d))
            assert np.abs(marg - rho_direct.mat).max() < 1e-10

    def test_setting1_thermal_product_is_fixed_point(self):
        for delta in (0.0, 0.4, 0.95 * HALF_PI):
            cfg = cfg_i(beta=2.0, dt=0.05, delta=delta)
            ch = embedded_step_channel(cfg)
            g = gibbs_qubit(2.0, 1.0).mat
            prod = np.kron(g, g)
            assert np.abs(ch.apply(prod) - prod).max() < 1e-12


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
        # only the 01 coherence survives: eigenvalue 1 is simple but its
        # eigenvector is traceless, so no unit-trace fixed point exists
        ch = StepChannel(QubitRegister(["S"]), np.diag([0.5, 1.0, 0.5, 0.5]).astype(complex))
        with pytest.raises(NonUniqueSteadyState):
            steady_state(ch)

    def test_traceless_fixed_point_in_trace_block_nonunique(self):
        # the populations' block holds the simple eigenvalue 1, but its
        # eigenvector (1, -1) is traceless: the bordered block is singular
        superop = np.diag([0.0, 0.3, 0.3, 0.0]).astype(complex)
        superop[np.ix_([0, 3], [0, 3])] = [[0.75, -0.25], [-0.25, 0.75]]
        with pytest.raises(NonUniqueSteadyState) as err:
            steady_state(StepChannel(QubitRegister(["S"]), superop))
        assert err.value.multiplicity == 2

    def test_nonpositive_fixed_point_raises(self):
        ch = StepChannel(QubitRegister(["S"]), replace_by(np.diag([1.5, -0.5])))
        with pytest.raises(NumericalPositivityError, match="-5.000e-01"):
            steady_state(ch)

    def test_large_residual_raises(self):
        # eigenvalue-1 vector of trace 1e-10: its unit-trace rescaling is
        # ~1e10 large and misses the fixed-point residual bound
        v = np.array([[5e-11, 1.0], [1.0, 5e-11]], dtype=complex).reshape(-1)
        w = np.array([1.0, 0.3, 0.2, 1.0])
        ch = StepChannel(QubitRegister(["S"]), np.outer(v, w) / (w @ v))
        with pytest.raises(FixedPointError, match="residual"):
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


    def test_mirror_block_not_conjugate_gets_its_own_spectrum(self):
        # the coherences |0><1| and |1><0| are mirror blocks, but this map
        # does not preserve Hermiticity: the second keeps its coherence, so
        # eigenvalue 1 is double; reusing the first's modulus 0.5 would miss it
        superop = np.diag([0.0, 0.5, 1.0, 0.0]).astype(complex)
        superop[np.ix_([0, 3], [0, 3])] = [[0.75, 0.25], [0.25, 0.75]]
        with pytest.raises(NonUniqueSteadyState) as err:
            steady_state(StepChannel(QubitRegister(["S"]), superop))
        assert err.value.multiplicity == 2

    @pytest.mark.parametrize("setting", ["I", "II"])
    @pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("delta", [0.0, 0.6 * HALF_PI, 0.95 * HALF_PI])
    def test_reused_mirror_moduli_match_direct_eigvals(self, setting, beta, delta):
        from collideq.engine import _block_moduli

        ch = embedded_step_channel(ModelConfig(beta=beta, dt=0.2, delta=delta, setting=setting))
        spectra = _block_moduli(ch.superop, ch.dim)
        for block, m in spectra:
            direct = np.abs(np.linalg.eigvals(ch.superop[np.ix_(block, block)]))
            assert np.abs(np.sort(m) - np.sort(direct)).max() <= 1e-14
        if setting == "II":  # fresh populations 0 and 1 make the mirrors exact
            assert len({id(m) for _, m in spectra}) < len(spectra)


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
                            kron_all(*(cfg.bath_state(b) for b in range(nb))))
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
                rho_c, q_sa, q_out, q_in_next = ops.step_with_heat(rho_c)
                lifecycle = (pending_in + q_sa + q_out).sum()
                e_s2, e_m2 = energies(rho_c)
                closure = (e_s2 - e_s) + (e_m2 - e_m) + lifecycle
                assert abs(closure) < 1e-10
                e_s, e_m = e_s2, e_m2
                pending_in = q_in_next

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
                v = v @ intra_bath_unitary(cfg.delta, (m, f), reg).mat
            tau = kron_all(*(cfg.bath_state(b) for b in range(nb)))
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
        _, q_sa, _, _ = ops.step_with_heat(rho_star.mat)
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

    def test_heat_records_view(self):
        cfg = cfg_ii(beta=1.0, dt=0.05, delta=0.5)
        res = evolve(cfg, sys_dm(projector(1)), 5)
        recs = res.heat_records(3)
        assert len(recs) == 2
        assert recs[0].bath == 0
        assert abs(recs[0].q_lifecycle - res.q_lifecycle[3, 0]) < 1e-15


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
        # step 50 the system and the final compound are positive again
        rho0 = sys_dm(projector(0))
        object.__setattr__(rho0, "mat", np.diag([1.01, -0.01]).astype(complex))
        with pytest.raises(ValueError, match="eigenvalue below"):
            evolve(make_cfg(dt=0.001, delta=0.5 * HALF_PI), rho0, 50)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the steps
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_non_finite_start_raises(self, make_cfg, value):
        # a start smuggled past DensityMatrix's checks: every step's state
        # is non-finite and the stacked check rejects the first
        rho0 = sys_dm(projector(0))
        object.__setattr__(rho0, "mat", np.array([[0.5, value], [value, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            evolve(make_cfg(delta=0.5 * HALF_PI), rho0, 10)

    @pytest.mark.parametrize("make_cfg", [cfg_i, cfg_ii], ids=["I", "II"])
    def test_pure_ground_at_zero_temperature_gives_inf_beta_e(self, make_cfg):
        res = evolve(make_cfg(beta=math.inf, delta=0.5 * HALF_PI), sys_dm(projector(1)), 50)
        assert np.all(res.beta_e == math.inf)
        assert np.all(res.fidelity_to_gibbs == 1.0)


class TestLindbladLimit:
    def test_collision_population_converges_linearly_in_dt(self):
        beta, gamma = 2.0, 1.0
        spec = thermal_qubit_spec(1.0, gamma, beta)
        t_final = 5.0
        errors = {}
        for dt in (1e-2, 5e-3):
            cfg = cfg_i(beta=beta, dt=dt, gamma=gamma)
            n = int(round(t_final / dt))
            res = evolve(cfg, sys_dm(projector(0)), n)
            _, oracle = integrate(spec, projector(0), t_final, h_step=min(dt, 1e-3))
            stride = int(round(dt / min(dt, 1e-3)))
            oracle_pops = oracle[stride::stride, 0, 0].real[: n]
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


@pytest.mark.parametrize("call, match", [
    (lambda: evolve(cfg_i(), sys_dm(projector(0)), 0), "n_steps"),
    (lambda: steady_heat_flux_from_state(
        cfg_ii(dt=0.1), steady_state(embedded_step_channel(cfg_ii(dt=0.1))), bath=2), "bath"),
    (lambda: cfg_i().bath_state(1), "single bath"),
    (lambda: cfg_ii().bath_state(2), "baths 0 and 1"),
], ids=["evolve-zero-steps", "heat-flux-third-bath", "setting1-bath-1", "setting2-bath-2"])
def test_input_checks_raise(call, match):
    with pytest.raises(InvalidParameter, match=match):
        call()
