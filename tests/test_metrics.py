import math

import numpy as np
import pytest

from collideq.errors import DimensionMismatch, InvalidParameter, InvalidSubsystem, NotDiagonal
from collideq.metrics import (
    EffectiveTemperature,
    ThermalParams,
    effective_temperature,
    fidelity,
    fidelity_from_delta_beta,
    gibbs_qubit,
    nbar,
    negativity_2,
    negativity_bipartition,
    pair_negativities,
    trace_distance,
    tripartite_negativity,
)
from collideq.tensor import DensityMatrix, QubitRegister, embed, ket, kron, kron_all

RNG = np.random.default_rng(90210)


def dm(labels, mat):
    return DensityMatrix(QubitRegister(labels), mat)


def random_density(n_qubits, rng=RNG):
    d = 2 ** n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_local_unitary(rng=RNG):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell():
    v = (np.kron(ket(0), ket(0)) + np.kron(ket(1), ket(1))) / np.sqrt(2)
    return np.outer(v, v.conj())


def ghz():
    v = (kron_all(ket(0), ket(0), ket(0)) + kron_all(ket(1), ket(1), ket(1))) / np.sqrt(2)
    return np.outer(v, v.conj())


class TestThermal:
    def test_nbar_values(self):
        assert nbar(math.inf, 1.0) == 0.0
        assert abs(nbar(1.0, 1.0) - 1.0 / (math.e - 1.0)) < 1e-12
        assert abs(nbar(2.0, 1.0) - 0.156518) < 1e-6

    def test_nbar_past_expm1_overflow(self):
        # expm1 overflows above beta*omega ~ 709.8; 1/expm1 is exp(-x) there
        assert nbar(709.0, 1.0) == 1.0 / math.expm1(709.0)
        assert nbar(710.0, 1.0) == math.exp(-710.0)
        assert nbar(500.0, 2.0) == 0.0
        assert np.array_equal(gibbs_qubit(500.0, 2.0).mat, np.diag([0.0, 1.0]))

    def test_nbar_rejects_bad_params(self):
        with pytest.raises(InvalidParameter):
            nbar(-1.0, 1.0)
        with pytest.raises(InvalidParameter):
            nbar(1.0, 0.0)

    def test_g_equals_tanh(self):
        for beta in (0.3, 1.0, 2.5, 8.0):
            p = ThermalParams.from_bath(beta, 1.3)
            assert abs(p.g - math.tanh(beta * 1.3 / 2.0)) < 1e-12

    def test_gibbs_zero_temperature(self):
        rho = gibbs_qubit(math.inf, 1.0)
        assert np.allclose(rho.mat, np.diag([0.0, 1.0]), atol=1e-15)

    def test_gibbs_beta2(self):
        rho = gibbs_qubit(2.0, 1.0)
        g = math.tanh(1.0)
        assert abs(rho.mat[0, 0].real - (1 - g) / 2) < 1e-12
        assert abs(rho.mat[0, 0].real - 0.119203) < 1e-6
        assert abs(rho.mat[1, 1].real - 0.880797) < 1e-6

    def test_gibbs_high_temperature_limit(self):
        rho = gibbs_qubit(1e-9, 1.0)
        assert np.abs(rho.mat - np.eye(2) / 2).max() < 1e-9

    def test_gibbs_rejects_bad_omega(self):
        with pytest.raises(InvalidParameter):
            gibbs_qubit(1.0, -1.0)


class TestFidelityTraceDistance:
    def test_fidelity_identical(self):
        rho = dm(["A", "B"], random_density(2))
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_fidelity_orthogonal_pure(self):
        r0 = dm(["A"], np.diag([1.0, 0.0]))
        r1 = dm(["A"], np.diag([0.0, 1.0]))
        assert fidelity(r0, r1) < 1e-12

    def test_fidelity_mixed_vs_pure(self):
        half = dm(["A"], np.eye(2) / 2)
        pure = dm(["A"], np.diag([1.0, 0.0]))
        assert abs(fidelity(half, pure) - 0.5) < 1e-12

    def test_fidelity_symmetric(self):
        for _ in range(20):
            rho = dm(["A", "B"], random_density(2))
            sig = dm(["A", "B"], random_density(2))
            assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10

    def test_trace_distance_basics(self):
        rho = dm(["A"], random_density(1))
        assert trace_distance(rho, rho) < 1e-14
        r0 = dm(["A"], np.diag([1.0, 0.0]))
        r1 = dm(["A"], np.diag([0.0, 1.0]))
        assert abs(trace_distance(r0, r1) - 1.0) < 1e-12
        a = dm(["A"], np.diag([0.7, 0.3]))
        b = dm(["A"], np.diag([0.5, 0.5]))
        assert abs(trace_distance(a, b) - 0.2) < 1e-12

    def test_register_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(dm(["A"], np.eye(2) / 2), dm(["B"], np.eye(2) / 2))

    def test_fuchs_van_de_graaf(self):
        for _ in range(50):
            rho = dm(["A"], random_density(1))
            sig = dm(["A"], random_density(1))
            f = fidelity(rho, sig)
            d = trace_distance(rho, sig)
            assert 1.0 - f <= d + 1e-10
            assert d <= math.sqrt(max(0.0, 1.0 - f ** 2)) + 1e-10


class TestEffectiveTemperature:
    def test_roundtrip_on_log_grid(self):
        for beta in np.geomspace(0.1, 20.0, 12):
            for omega in (0.7, 1.0):
                est = effective_temperature(gibbs_qubit(beta, omega), omega)
                assert est.valid
                assert abs(est.beta_e - beta) < 1e-10 * max(1.0, beta)

    def test_maximally_mixed(self):
        est = effective_temperature(dm(["S"], np.eye(2) / 2), 1.0)
        assert est.g_e == 0.0
        assert est.beta_e == 0.0

    def test_population_inversion(self):
        est = effective_temperature(dm(["S"], np.diag([0.6, 0.4])), 1.0)
        assert abs(est.g_e + 0.2) < 1e-12
        assert abs(est.beta_e - math.log(0.8 / 1.2)) < 1e-12
        assert est.beta_e < 0

    def test_pure_state_marker(self):
        est = effective_temperature(dm(["S"], np.diag([0.0, 1.0])), 1.0)
        assert not est.valid
        assert est.beta_e == math.inf
        est = effective_temperature(dm(["S"], np.diag([1.0, 0.0])), 1.0)
        assert not est.valid
        assert est.beta_e == -math.inf

    def test_rejects_coherent_state(self):
        mat = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        with pytest.raises(NotDiagonal):
            effective_temperature(dm(["S"], mat), 1.0)

    def test_delta_beta_helper(self):
        est = EffectiveTemperature(g_e=0.5, beta_e=2.0, omega=1.0, valid=True)
        assert est.delta_beta(1.5) == 0.5


class TestFidelityDeltaBetaRelation:
    def test_zero_delta(self):
        assert abs(fidelity_from_delta_beta(1.7, 0.0, 1.0) - 1.0) < 1e-14

    def test_matches_direct_fidelity_examples(self):
        f = fidelity_from_delta_beta(2.0, 1.0, 1.0)
        direct = fidelity(gibbs_qubit(2.0, 1.0), gibbs_qubit(3.0, 1.0))
        assert abs(f - direct) < 1e-10
        f = fidelity_from_delta_beta(1.0, -0.5, 1.0)
        direct = fidelity(gibbs_qubit(1.0, 1.0), gibbs_qubit(0.5, 1.0))
        assert abs(f - direct) < 1e-10

    def test_matches_direct_fidelity_random(self):
        rng = np.random.default_rng(2211)
        for _ in range(100):
            beta = float(rng.uniform(0.05, 6.0))
            delta = float(rng.uniform(-beta + 0.01, 6.0))
            omega = float(rng.uniform(0.5, 2.0))
            f = fidelity_from_delta_beta(beta, delta, omega)
            direct = fidelity(gibbs_qubit(beta, omega), gibbs_qubit(beta + delta, omega))
            assert abs(f - direct) < 1e-10

    def test_no_overflow_at_large_beta(self):
        assert 0.0 <= fidelity_from_delta_beta(500.0, 200.0, 2.0) <= 1.0

    def test_infinite_beta(self):
        assert fidelity_from_delta_beta(math.inf, 0.0, 1.0) == 1.0
        direct = fidelity(gibbs_qubit(2.0, 1.0), gibbs_qubit(math.inf, 1.0))
        assert fidelity_from_delta_beta(2.0, math.inf, 1.0) == pytest.approx(direct, rel=1e-15)
        assert fidelity_from_delta_beta(2.0, math.inf, 1.0) == pytest.approx(0.880797, abs=1e-6)


class TestNegativity:
    def test_product_state_zero(self):
        rho = dm(["A", "B"], kron(random_density(1), random_density(1)))
        assert negativity_2(rho) == 0.0

    def test_bell_state_one(self):
        assert abs(negativity_2(dm(["A", "B"], bell())) - 1.0) < 1e-12

    def test_werner_threshold(self):
        for p, expect_zero in ((1.0 / 3.0, True), (0.5, False)):
            mat = p * bell() + (1 - p) * np.eye(4) / 4
            n = negativity_2(dm(["A", "B"], mat))
            if expect_zero:
                assert n < 1e-12
            else:
                assert n > 1e-3

    def test_bipartition_product_zero(self):
        rho = dm(["A", "B", "C"], kron_all(*(random_density(1) for _ in range(3))))
        for label in "ABC":
            n = negativity_bipartition(rho, label)
            assert n == 0.0 and math.copysign(1.0, n) == 1.0  # +0.0, which prints as 0

    def test_bipartition_ghz(self):
        rho = dm(["A", "B", "C"], ghz())
        for label in "ABC":
            assert abs(negativity_bipartition(rho, label) - 1.0) < 1e-12
        assert abs(tripartite_negativity(rho) - 1.0) < 1e-12

    def test_bell_times_spectator(self):
        rho = dm(["A", "B", "C"], kron(bell(), random_density(1)))
        assert negativity_bipartition(rho, "C") < 1e-12
        assert abs(negativity_bipartition(rho, "A") - 1.0) < 1e-12
        assert tripartite_negativity(rho) == 0.0

    def test_consistency_with_two_qubit_form(self):
        # bipartition restricted to 2 qubits must match negativity_2
        for _ in range(10):
            mat = random_density(2)
            rho2 = dm(["A", "B"], mat)
            lam = np.linalg.eigvalsh(
                mat.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
            )
            from_sum = 2.0 * float(-lam[lam < 0].sum())
            assert abs(negativity_2(rho2) - from_sum) < 1e-12

    def test_local_unitary_invariance(self):
        rho = dm(["A", "B", "C"], ghz())
        reg = rho.register
        for _ in range(5):
            u = embed(random_local_unitary(), ["A"], reg) \
                @ embed(random_local_unitary(), ["B"], reg) \
                @ embed(random_local_unitary(), ["C"], reg)
            rotated = dm(["A", "B", "C"], u @ rho.mat @ u.conj().T)
            for label in "ABC":
                assert abs(
                    negativity_bipartition(rotated, label)
                    - negativity_bipartition(rho, label)
                ) < 1e-10
            assert abs(tripartite_negativity(rotated) - tripartite_negativity(rho)) < 1e-10

    def test_stacked_negativities_equal_one_state_path(self):
        from collideq.tensor import partial_trace

        states = [0.7 * ghz() + 0.3 * random_density(3) for _ in range(4)]
        states.append(kron(bell(), random_density(1)))
        for mat in states:
            rho = dm(["A", "B", "C"], mat)
            for pair, n in pair_negativities(rho).items():
                assert n == negativity_2(partial_trace(rho, pair))
            product = 1.0
            for label in "ABC":
                product *= negativity_bipartition(rho, label)
            expected = product ** (1.0 / 3.0) if product else 0.0
            assert tripartite_negativity(rho) == expected

    def test_pair_negativities(self):
        rho = dm(["A", "B", "C"], kron(bell(), np.eye(2) / 2))
        pairs = pair_negativities(rho)
        assert abs(pairs[("A", "B")] - 1.0) < 1e-12
        assert pairs[("A", "C")] < 1e-12
        assert pairs[("B", "C")] < 1e-12


_QUBIT = dm(["S"], np.diag([0.7, 0.3]).astype(complex))
_PAIR = dm(["S", "M"], np.eye(4, dtype=complex) / 4)
_TRIPLE = dm(["S", "M0", "M1"], np.eye(8, dtype=complex) / 8)


@pytest.mark.parametrize("call, error", [
    (lambda: effective_temperature(_PAIR, 1.0), DimensionMismatch),
    (lambda: effective_temperature(_QUBIT, 0.0), InvalidParameter),
    (lambda: effective_temperature(_QUBIT, -1.0), InvalidParameter),
    (lambda: negativity_2(_TRIPLE), DimensionMismatch),
    (lambda: negativity_bipartition(_PAIR, "S"), DimensionMismatch),
    (lambda: tripartite_negativity(_PAIR), DimensionMismatch),
    (lambda: pair_negativities(_PAIR), DimensionMismatch),
    (lambda: negativity_bipartition(_TRIPLE, "X"), InvalidSubsystem),
], ids=["beta-e-two-qubits", "beta-e-zero-omega", "beta-e-negative-omega",
        "negativity-2-three-qubits", "bipartition-two-qubits", "tripartite-two-qubits",
        "pairs-two-qubits", "bipartition-unknown-label"])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()
