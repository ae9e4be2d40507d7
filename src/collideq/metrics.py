"""State constructors and scalar diagnostics.

Gibbs states, fidelity, trace distance, effective temperature, and
entanglement negativities. States follow the package-wide (excited, ground)
basis ordering, so a thermal qubit is ``diag((1-g)/2, (1+g)/2)`` with
``g = (2*nbar + 1)^-1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, InvalidSubsystem, NotDiagonal
from .tensor import (
    DensityMatrix,
    QubitRegister,
    _check_density_stack,
    _ptrace_raw,
    _ptranspose_raw,
    partial_transpose,
)

_DIAG_TOL = 1e-8
_GE_SATURATION = 1.0 - 1e-12


def nbar(beta: float, omega: float) -> float:
    """Bose-Einstein occupation of a mode at gap ``omega``; 0 exactly at beta=inf."""
    if not beta > 0:
        raise InvalidParameter(f"beta must be positive (got {beta})")
    if not omega > 0:
        raise InvalidParameter(f"omega must be positive (got {omega})")
    if math.isinf(beta):
        return 0.0
    try:
        return 1.0 / math.expm1(beta * omega)
    except OverflowError:  # beta*omega above ~709.8, where 1/expm1 is exp(-beta*omega)
        return math.exp(-beta * omega)


def gibbs_qubit(beta: float, omega: float) -> DensityMatrix:
    """Thermal qubit state diag((1-g)/2, (1+g)/2) in (excited, ground) order.

    Populations are evaluated as nbar/(2 nbar + 1) and (nbar+1)/(2 nbar + 1)
    so the excited population keeps full relative precision deep into the
    low-temperature tail.
    """
    nb = nbar(beta, omega)
    p_exc = nb / (2.0 * nb + 1.0)
    return DensityMatrix(QubitRegister(["S"]), np.diag([p_exc, 1.0 - p_exc]).astype(complex))


def _same_register(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.register.labels != sigma.register.labels:
        raise DimensionMismatch(
            f"states live on different registers: {rho.register.labels} vs {sigma.register.labels}"
        )


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    # Round-off can push eigenvalues slightly negative; clamp below 1e-12.
    w, v = np.linalg.eigh(mat)
    w = np.where(w < 1e-12, np.maximum(w, 0.0), w)
    return (v * np.sqrt(w)) @ v.conj().T


def _fidelities(mats: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of each matrix of a ``(k, d, d)`` stack to ``sigma``."""
    rs = _psd_sqrt(sigma)
    w = np.clip(np.linalg.eigvalsh(rs @ mats @ rs), 0.0, None)
    return np.minimum(np.sqrt(w).sum(axis=-1) ** 2, 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2."""
    _same_register(rho, sigma)
    return float(_fidelities(rho.mat[None], sigma.mat)[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    _same_register(rho, sigma)
    lam = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(0.5 * np.abs(lam).sum())


@dataclass(frozen=True)
class EffectiveTemperature:
    """Effective inverse temperature assigned to a diagonal qubit state.

    ``g_e`` is the ground/excited population difference. ``valid`` is False
    when the state is (numerically) pure, in which case ``beta_e`` is the
    signed infinity marker. Negative ``beta_e`` (population inversion) is
    permitted.
    """

    g_e: float
    beta_e: float
    omega: float
    valid: bool


def _effective_betas(mats: np.ndarray, omega: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(g_e, beta_e, coherent)`` for each qubit state of a ``(k, 2, 2)`` stack.

    ``beta_e`` is NaN where the off-diagonal magnitude exceeds 1e-8 (those
    states are marked ``coherent``), signed infinity where the state is
    numerically pure, and (1/omega) log((1+g_e)/(1-g_e)) otherwise.
    """
    coherent = np.abs(mats[:, 0, 1]) > _DIAG_TOL
    p_exc = mats[:, 0, 0].real
    p_gnd = mats[:, 1, 1].real
    g_e = p_gnd - p_exc
    pure = (np.abs(g_e) >= _GE_SATURATION) | (np.minimum(p_exc, p_gnd) <= 0.0)
    # log((1+g_e)/(1-g_e)) evaluated as log(p_gnd/p_exc): no cancellation
    # when one population is tiny.
    with np.errstate(divide="ignore", invalid="ignore"):
        thermal = np.log(p_gnd / p_exc) / omega
    beta_e = np.where(coherent, np.nan,
                      np.where(pure, np.copysign(np.inf, g_e), thermal))
    return g_e, beta_e, coherent


def effective_temperature(rho: DensityMatrix, omega: float) -> EffectiveTemperature:
    """Read off beta_e = (1/omega) log((1+g_e)/(1-g_e)) from a diagonal qubit state."""
    if rho.register.n_qubits != 1:
        raise DimensionMismatch("effective temperature is defined for a single qubit")
    if not omega > 0:
        raise InvalidParameter(f"omega must be positive (got {omega})")
    (g_e,), (beta_e,), (coherent,) = _effective_betas(rho.mat[None], omega)
    if coherent:
        raise NotDiagonal(f"off-diagonal element {abs(rho.mat[0, 1]):.2e} exceeds {_DIAG_TOL}")
    return EffectiveTemperature(g_e=float(g_e), beta_e=float(beta_e), omega=omega,
                                valid=not math.isinf(beta_e))


def fidelity_from_delta_beta(beta: float, delta_beta: float, omega: float) -> float:
    """Fidelity between thermal qubit states at beta and beta + delta_beta.

    Evaluated in log space so large exponents cannot overflow. Agrees with
    ``fidelity(gibbs_qubit(beta), gibbs_qubit(beta + delta_beta))``, also
    where ``beta + delta_beta`` is infinite.
    """
    if beta + delta_beta == math.inf:
        # that state is the ground state: F is the other's ground population
        return float(np.exp(-np.logaddexp(0.0, -omega * beta)))
    a = 0.5 * omega * (delta_beta + 2.0 * beta)
    b = omega * beta
    c = omega * (delta_beta + beta)
    log_f = 2.0 * np.logaddexp(0.0, a) - np.logaddexp(0.0, b) - np.logaddexp(0.0, c)
    return float(np.exp(log_f))


def _negativities(pts: np.ndarray) -> list:
    """Negativity of each partial transpose of a ``(k, d, d)`` stack, one ``eigvalsh``.

    Twice the summed magnitude of the negative eigenvalues; those within
    rounding (1e-12) of zero do not count, and none left gives +0.0, never -0.
    """
    out = []
    for lam in np.linalg.eigvalsh(pts):
        neg = lam[lam < -1e-12]
        out.append(-2.0 * float(neg.sum()) if neg.size else 0.0)
    return out


def negativity_2(rho: DensityMatrix) -> float:
    """Two-qubit negativity 2*max(0, -lambda_min) of the partial transpose."""
    if rho.register.n_qubits != 2:
        raise DimensionMismatch("negativity_2 requires a 2-qubit state")
    # a two-qubit partial transpose has at most one negative eigenvalue
    return _negativities(partial_transpose(rho, rho.register.labels[:1])[None])[0]


def negativity_bipartition(rho: DensityMatrix, part: str) -> float:
    """Negativity of one subsystem against the rest of a 3-qubit state.

    Equals the trace norm of the partial transpose minus one.
    """
    if rho.register.n_qubits != 3:
        raise DimensionMismatch("negativity_bipartition requires a 3-qubit state")
    if part not in rho.register.labels:
        raise InvalidSubsystem(f"{part!r} not in register {rho.register.labels}")
    return _negativities(partial_transpose(rho, [part])[None])[0]


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three bipartition negativities; zero if any vanishes."""
    if rho.register.n_qubits != 3:
        raise DimensionMismatch("tripartite negativity requires a 3-qubit state")
    pts = np.array([_ptranspose_raw(rho.mat, 3, (q,)) for q in range(3)])
    product = 1.0
    for n in _negativities(pts):
        if n == 0.0:
            return 0.0
        product *= n
    return product ** (1.0 / 3.0)


def pair_negativities(rho: DensityMatrix) -> dict:
    """Negativities of every reduced 2-qubit state of a 3-qubit state.

    The three reduced states are checked as density matrices together, as
    three :class:`DensityMatrix` constructions would check them.
    """
    if rho.register.n_qubits != 3:
        raise DimensionMismatch("pair_negativities requires a 3-qubit state")
    a, b, c = rho.register.labels
    pairs = ((a, b), (a, c), (b, c))
    reduced = np.array([_ptrace_raw(rho.mat, 3, keep) for keep in ((0, 1), (0, 2), (1, 2))])
    _check_density_stack(reduced)
    pts = np.array([_ptranspose_raw(m, 2, (0,)) for m in reduced])
    return dict(zip(pairs, _negativities(pts)))
