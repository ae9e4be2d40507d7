"""Reference integrator for the GKSL master equation.

Used to validate the collision engines in the short-collision limit. The
generator is assembled as a matrix on row-major vectorized states and
stepped with classical fourth-order Runge-Kutta.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, IntegrationUnstable, InvalidParameter
from .metrics import nbar
from .tensor import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, _as_matrix, _check_hermitian

logger = logging.getLogger(__name__)

_RENORM_TOL = 1e-12
_UNSTABLE_TOL = 1e-6


@dataclass(frozen=True)
class LindbladSpec:
    """System Hamiltonian (may be None to drop the commutator) plus jump terms.

    ``h_sys`` must be Hermitian to 1e-12. Each jump is an ``(operator,
    rate)`` pair with a finite nonnegative rate; all operators share the
    system dimension, and at least one operator must be given.
    """

    h_sys: Optional[np.ndarray]
    jumps: Tuple[Tuple[np.ndarray, float], ...] = field(default=())

    def __post_init__(self):
        dims = set()
        if self.h_sys is not None:
            dims.add(_check_hermitian(_as_matrix(self.h_sys), "h_sys").shape[0])
        jumps = []
        for op, rate in self.jumps:
            if not 0 <= rate < math.inf:
                raise InvalidParameter(f"jump rate {rate} must be finite and nonnegative")
            op = _as_matrix(op)
            dims.add(op.shape[0])
            jumps.append((op, float(rate)))
        if not dims:
            raise InvalidParameter("a spec needs h_sys or at least one jump")
        if len(dims) > 1:
            raise DimensionMismatch(f"operators of mixed dimensions {dims}")
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def dim(self) -> int:
        if self.h_sys is not None:
            return _as_matrix(self.h_sys).shape[0]
        return self.jumps[0][0].shape[0]


def thermal_qubit_spec(omega: float, gamma: float, beta: float,
                       include_hamiltonian: bool = False) -> LindbladSpec:
    """Damped qubit: emission at gamma(nbar+1), absorption at gamma*nbar.

    The commutator with (omega/2) sigma_z is dropped by default since it
    leaves populations untouched; pass ``include_hamiltonian=True`` to keep it.
    """
    nb = nbar(beta, omega)
    h = (omega / 2.0) * SIGMA_Z if include_hamiltonian else None
    return LindbladSpec(h_sys=h, jumps=((SIGMA_MINUS, gamma * (nb + 1.0)),
                                        (SIGMA_PLUS, gamma * nb)))


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[L] rho = L rho L^dag - (1/2){L^dag L, rho}."""
    op = _as_matrix(op)
    rho = _as_matrix(rho)
    if op.shape != rho.shape:
        raise DimensionMismatch(f"operator {op.shape} vs state {rho.shape}")
    ldl = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)


def liouvillian_matrix(spec: LindbladSpec) -> np.ndarray:
    """Generator as a d^2 x d^2 matrix acting on row-major vec(rho)."""
    d = spec.dim
    eye = np.eye(d, dtype=complex)
    gen = np.zeros((d * d, d * d), dtype=complex)
    if spec.h_sys is not None:
        h = _as_matrix(spec.h_sys)
        gen += -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in spec.jumps:
        ldl = op.conj().T @ op
        gen += rate * (np.kron(op, op.conj())
                       - 0.5 * np.kron(ldl, eye)
                       - 0.5 * np.kron(eye, ldl.T))
    return gen


def integrate(spec: LindbladSpec, rho0: np.ndarray, t_final: float,
              h_step: float) -> Tuple[np.ndarray, np.ndarray]:
    """RK4 integration; returns (times, states) with states[k] at times[k].

    ``t_final`` must be a whole number of steps ``h_step`` (to 1e-9
    relative) and ``rho0`` a ``(spec.dim, spec.dim)`` matrix. The trace is
    renormalized whenever its drift exceeds 1e-12 (counted and logged);
    drift beyond 1e-6 in a single step raises IntegrationUnstable.
    """
    if not 0 < h_step < math.inf:
        raise InvalidParameter(f"h_step must be positive and finite (got {h_step})")
    if not 0 <= t_final < math.inf:
        raise InvalidParameter(f"t_final must be finite and nonnegative (got {t_final})")
    ratio = t_final / h_step
    if not math.isfinite(ratio):  # a subnormal h_step overflows the division
        raise InvalidParameter(f"t_final={t_final} / h_step={h_step} is not a finite step count")
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * max(n_steps, 1):
        raise InvalidParameter(f"t_final={t_final} is not a multiple of h_step={h_step}")
    d = spec.dim
    rho = _as_matrix(rho0).astype(complex)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"rho0 of shape {rho.shape}, not ({d}, {d})")
    rho = rho.reshape(-1)
    gen = liouvillian_matrix(spec)
    times = np.arange(n_steps + 1) * h_step
    out = np.empty((n_steps + 1, d, d), dtype=complex)
    out[0] = rho.reshape(d, d)
    n_renorm = 0
    for k in range(1, n_steps + 1):
        k1 = gen @ rho
        k2 = gen @ (rho + 0.5 * h_step * k1)
        k3 = gen @ (rho + 0.5 * h_step * k2)
        k4 = gen @ (rho + h_step * k3)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = np.trace(rho.reshape(d, d)).real
        drift = abs(tr - 1.0)
        if not drift <= _UNSTABLE_TOL:  # written so a NaN trace fails too
            raise IntegrationUnstable(
                f"trace drift {drift:.2e} at t={times[k]:.4g}; reduce h_step"
            )
        if drift > _RENORM_TOL:
            rho = rho / tr
            n_renorm += 1
        out[k] = rho.reshape(d, d)
    if n_renorm:
        logger.info("renormalized trace on %d of %d steps", n_renorm, n_steps)
    return times, out
