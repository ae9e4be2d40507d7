import math

import numpy as np
import pytest

from collideq.errors import DimensionMismatch, IntegrationUnstable, InvalidParameter, NotHermitian
from collideq.lindblad import LindbladSpec, dissipator, integrate, thermal_qubit_spec
from collideq.metrics import gibbs_qubit, nbar
from collideq.tensor import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, projector

RNG = np.random.default_rng(5150)


def random_density(rng=RNG):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestDissipator:
    def test_ground_dark_to_decay(self):
        out = dissipator(SIGMA_MINUS, projector(1))
        assert np.abs(out).max() < 1e-15

    def test_excited_decays(self):
        out = dissipator(SIGMA_MINUS, projector(0))
        assert np.allclose(out, projector(1) - projector(0), atol=1e-15)

    def test_traceless(self):
        for _ in range(10):
            rho = random_density()
            for op in (SIGMA_MINUS, SIGMA_PLUS):
                assert abs(np.trace(dissipator(op, rho))) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dissipator(SIGMA_MINUS, np.eye(4) / 4)


class TestSpec:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameter):
            LindbladSpec(h_sys=None, jumps=((SIGMA_MINUS, -1.0),))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # a NaN rate passes `rate < 0`
        with pytest.raises(InvalidParameter):
            LindbladSpec(h_sys=None, jumps=((SIGMA_MINUS, rate),))

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(NotHermitian):
            LindbladSpec(h_sys=np.array([[0.0, 1.0], [0.0, 0.0]]), jumps=((SIGMA_MINUS, 1.0),))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            LindbladSpec(h_sys=np.eye(4), jumps=((SIGMA_MINUS, 1.0),))

    def test_thermal_rates(self):
        spec = thermal_qubit_spec(1.0, 0.7, 2.0)
        nb = nbar(2.0, 1.0)
        rates = dict()
        for op, rate in spec.jumps:
            rates[op.tobytes()] = rate
        assert abs(rates[SIGMA_MINUS.tobytes()] - 0.7 * (nb + 1)) < 1e-14
        assert abs(rates[SIGMA_PLUS.tobytes()] - 0.7 * nb) < 1e-14


class TestIntegrate:
    def test_gibbs_stationary(self):
        spec = thermal_qubit_spec(1.0, 1.0, 2.0)
        rho0 = gibbs_qubit(2.0, 1.0).mat
        _, states = integrate(spec, rho0, t_final=10.0, h_step=1e-3)
        assert np.abs(states - rho0[None]).max() < 1e-10

    def test_excited_relaxation_rate(self):
        # analytic relaxation: p(t) = p_ss + (p0 - p_ss) exp(-Gamma(2nbar+1) t)
        beta, gamma = 2.0, 1.0
        spec = thermal_qubit_spec(1.0, gamma, beta)
        times, states = integrate(spec, projector(0), t_final=5.0, h_step=1e-3)
        nb = nbar(beta, 1.0)
        p_ss = nb / (2 * nb + 1)
        assert abs(p_ss - 0.119203) < 1e-6
        p = states[:, 0, 0].real
        expected = p_ss + (1.0 - p_ss) * np.exp(-gamma * (2 * nb + 1) * times)
        assert np.abs(p - expected).max() < 1e-6

    def test_rk4_order(self):
        spec = thermal_qubit_spec(1.0, 1.0, 1.0, include_hamiltonian=True)
        rho0 = random_density()
        _, coarse = integrate(spec, rho0, t_final=1.0, h_step=2e-2)
        _, fine = integrate(spec, rho0, t_final=1.0, h_step=1e-2)
        _, finest = integrate(spec, rho0, t_final=1.0, h_step=5e-3)
        err_coarse = np.abs(coarse[-1] - finest[-1]).max()
        err_fine = np.abs(fine[-1] - finest[-1]).max()
        # halving h should shrink the error by roughly 2^4
        assert err_fine < err_coarse / 8.0

    def test_hamiltonian_does_not_touch_populations(self):
        rho0 = random_density()
        t1, with_h = integrate(thermal_qubit_spec(1.0, 1.0, 2.0, True), rho0, 2.0, 1e-3)
        t2, without = integrate(thermal_qubit_spec(1.0, 1.0, 2.0, False), rho0, 2.0, 1e-3)
        diag_dev = np.abs(
            np.diagonal(with_h, axis1=1, axis2=2) - np.diagonal(without, axis1=1, axis2=2)
        ).max()
        assert diag_dev < 1e-10

    def test_trace_and_positivity_along_trajectory(self):
        spec = thermal_qubit_spec(1.0, 1.0, 0.5)
        _, states = integrate(spec, projector(0), t_final=3.0, h_step=1e-3)
        traces = np.einsum("kii->k", states).real
        assert np.abs(traces - 1.0).max() < 1e-10
        eigs = np.linalg.eigvalsh(states)
        assert eigs.min() > -1e-9

    def test_unstable_step_raises(self):
        spec = thermal_qubit_spec(1.0, 200.0, 0.05)
        with pytest.raises(IntegrationUnstable):
            integrate(spec, projector(0), t_final=2.0, h_step=0.5)

    def test_nan_trace_raises(self):
        # a NaN drift passes every `drift > tol` comparison
        spec = thermal_qubit_spec(1.0, 1.0, 2.0)
        with pytest.raises(IntegrationUnstable):
            integrate(spec, np.full((2, 2), np.nan), t_final=0.1, h_step=0.01)


@pytest.mark.parametrize("h_step", [0.0, -0.01])
def test_nonpositive_step_rejected(h_step):
    spec = thermal_qubit_spec(omega=1.0, gamma=1.0, beta=2.0)
    with pytest.raises(InvalidParameter, match="h_step"):
        integrate(spec, projector(0).astype(complex), 1.0, h_step)
