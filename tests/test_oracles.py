import math

import numpy as np
import pytest

from collideq.metrics import gibbs_qubit, nbar
from oracles import _apply_gate, damped_qubit

# a start with populations off equilibrium and a coherence
RHO0 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
OMEGA = 1.0
TIMES = np.linspace(0.0, 3.0, 31)
CASES = pytest.mark.parametrize("beta, gamma", [(0.5, 0.3), (2.0, 1.0), (math.inf, 2.0)],
                                ids=["beta0.5", "beta2", "beta-inf"])
HAMILTONIAN = pytest.mark.parametrize("hamiltonian", [False, True], ids=["no-H", "H"])


def gksl_rhs(rho, beta, gamma, hamiltonian):
    """-i[H, rho] + sum_k rate_k (L rho L^dag - {L^dag L, rho} / 2), sigma_-/+ jumps."""
    nb = nbar(beta, OMEGA)
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = np.zeros((2, 2), dtype=complex)
    for op, rate in ((sigma_minus, gamma * (nb + 1.0)), (sigma_minus.T, gamma * nb)):
        ldl = op.T @ op
        out += rate * (op @ rho @ op.T - 0.5 * (ldl @ rho + rho @ ldl))
    if hamiltonian:
        h = 0.5 * OMEGA * np.diag([1.0, -1.0])
        out += -1j * (h @ rho - rho @ h)
    return out


@HAMILTONIAN
def test_zero_time_returns_the_start(hamiltonian):
    assert np.array_equal(damped_qubit(2.0, 1.0, OMEGA, RHO0, [0.0], hamiltonian)[0], RHO0)


@CASES
@HAMILTONIAN
def test_time_derivative_is_the_master_equation(beta, gamma, hamiltonian):
    # the closed form's derivative, taken by hand from rho0 and t alone (not from
    # the oracle's states, which would make the comparison hold for any rates)
    nb = nbar(beta, OMEGA)
    rate = gamma * (2.0 * nb + 1.0)
    p_eq = nb / (2.0 * nb + 1.0)
    coherence_rate = -0.5 * rate - (1j * OMEGA if hamiltonian else 0.0)
    states = damped_qubit(beta, gamma, OMEGA, RHO0, TIMES, hamiltonian)
    for t, rho in zip(TIMES, states):
        dp = -rate * (RHO0[0, 0].real - p_eq) * math.exp(-rate * t)
        dc = coherence_rate * RHO0[0, 1] * np.exp(coherence_rate * t)
        derivative = np.array([[dp, dc], [np.conj(dc), -dp]])
        assert np.abs(derivative - gksl_rhs(rho, beta, gamma, hamiltonian)).max() < 1e-13


@CASES
@HAMILTONIAN
def test_tends_to_gibbs(beta, gamma, hamiltonian):
    late = damped_qubit(beta, gamma, OMEGA, RHO0, [100.0], hamiltonian)[0]
    assert np.abs(late - gibbs_qubit(beta, OMEGA).mat).max() < 1e-14


@CASES
def test_hamiltonian_leaves_populations(beta, gamma):
    with_h = damped_qubit(beta, gamma, OMEGA, RHO0, TIMES, hamiltonian=True)
    without = damped_qubit(beta, gamma, OMEGA, RHO0, TIMES, hamiltonian=False)
    diagonal = (..., [0, 1], [0, 1])
    assert np.array_equal(with_h[diagonal], without[diagonal])
    assert not np.allclose(with_h[..., 0, 1], without[..., 0, 1])


def pure_state(theta, phi):
    psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    return np.outer(psi, psi.conj())


@CASES
@HAMILTONIAN
def test_gibbs_is_stationary(beta, gamma, hamiltonian):
    gibbs = gibbs_qubit(beta, OMEGA).mat
    states = damped_qubit(beta, gamma, OMEGA, gibbs, TIMES, hamiltonian)
    assert np.abs(states - gibbs[None]).max() < 1e-15


@CASES
@HAMILTONIAN
def test_trace_and_positivity_along_trajectory(beta, gamma, hamiltonian):
    # a pure start sits on the edge of the state space, where a coherence that
    # decays slower than Gamma / 2 would leave it at once
    for rho0 in (RHO0, pure_state(1.1, 0.4), pure_state(math.pi / 2, -2.0)):
        states = damped_qubit(beta, gamma, OMEGA, rho0, TIMES, hamiltonian)
        assert np.abs(np.einsum("kii->k", states) - 1.0).max() < 1e-14
        assert np.abs(states - states.conj().swapaxes(-1, -2)).max() == 0.0
        assert np.linalg.eigvalsh(states).min() > -1e-15


@CASES
@HAMILTONIAN
def test_evolution_is_a_semigroup(beta, gamma, hamiltonian):
    # a time-independent master equation: evolving for s, then for t, is
    # evolving for s + t
    for s in (0.1, 0.7, 2.0):
        mid = damped_qubit(beta, gamma, OMEGA, RHO0, [s], hamiltonian)[0]
        stepped = damped_qubit(beta, gamma, OMEGA, mid, TIMES, hamiltonian)
        direct = damped_qubit(beta, gamma, OMEGA, RHO0, TIMES + s, hamiltonian)
        assert np.abs(stepped - direct).max() < 1e-14


@CASES
@HAMILTONIAN
def test_map_is_completely_positive(beta, gamma, hamiltonian):
    # the Choi matrix sum_ij |i><j| (x) Phi(|i><j|), with Phi extended to the
    # off-diagonal units through differences of the six Pauli eigenstates
    # (the oracle's populations assume a unit-trace start)
    def phi(rho):
        return damped_qubit(beta, gamma, OMEGA, rho, TIMES, hamiltonian)

    plus, minus = pure_state(math.pi / 2, 0.0), pure_state(math.pi / 2, math.pi)
    plus_i, minus_i = pure_state(math.pi / 2, math.pi / 2), pure_state(math.pi / 2, -math.pi / 2)
    unit01 = 0.5 * (phi(plus) - phi(minus) + 1j * (phi(plus_i) - phi(minus_i)))
    blocks = [[phi(pure_state(0.0, 0.0)), unit01],
              [unit01.conj().swapaxes(-1, -2), phi(pure_state(math.pi, 0.0))]]
    choi = np.block(blocks)
    # at t = 0 the map is the identity, whose Choi matrix is |00 + 11><00 + 11|
    identity_choi = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
    assert np.abs(choi[0] - identity_choi).max() < 1e-15
    assert np.linalg.eigvalsh(choi).min() > -1e-14


@CASES
def test_relaxation_rate_is_gamma_coth(beta, gamma):
    # Gamma = gamma (2 nbar + 1) = gamma coth(beta omega / 2), read off the
    # excited population's log slope from the excited state
    states = damped_qubit(beta, gamma, OMEGA, np.diag([1.0, 0.0]), TIMES)
    p_eq = gibbs_qubit(beta, OMEGA).mat[0, 0].real
    slope = np.polyfit(TIMES, np.log(states[:, 0, 0].real - p_eq), 1)[0]
    coth = 1.0 if math.isinf(beta) else 1.0 / math.tanh(0.5 * beta * OMEGA)
    assert abs(-slope - gamma * coth) < 1e-12 * gamma * coth


@HAMILTONIAN
def test_ground_state_is_dark_at_zero_temperature(hamiltonian):
    ground = np.diag([0.0, 1.0]).astype(complex)
    states = damped_qubit(math.inf, 1.0, OMEGA, ground, TIMES, hamiltonian)
    assert np.array_equal(states, np.broadcast_to(ground, states.shape))


@pytest.mark.parametrize("axes", [(3, 1), (0, 2, 3)], ids=["two-qubit", "three-qubit"])
def test_gate_on_its_axes_is_the_embedded_conjugation(axes):
    # the explicit chain's gate step, against the gate lifted to the whole
    # register as one matrix
    from collideq.tensor import QubitRegister, embed

    rng = np.random.default_rng(33)
    labels = ["q0", "q1", "q2", "q3"]
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    gate, _ = np.linalg.qr(rng.normal(size=(2 ** len(axes),) * 2)
                           + 1j * rng.normal(size=(2 ** len(axes),) * 2))
    full = embed(gate, [labels[q] for q in axes], QubitRegister(labels))
    out = _apply_gate(rho.reshape((2,) * 8), gate, list(axes)).reshape(16, 16)
    assert np.abs(out - full @ rho @ full.conj().T).max() < 1e-13
