"""Collision unitaries, stroboscopic evolution, and steady-state machinery.

Two bath settings are supported. Setting I couples the system to a stream of
identical thermal qubits through a resonant exchange (partial-SWAP) collision
of angle J*dt with J = sqrt(gamma (2 nbar + 1)/dt). Setting II couples the
system simultaneously to a ground-state qubit and an excited-state qubit with
couplings J0 = sqrt(gamma (nbar+1)/dt) and J1 = sqrt(gamma nbar/dt), so the
bath temperature lives in the couplings rather than the ancilla states.

Non-Markovian runs add a partial-SWAP collision of fixed angle ``delta``
between the outgoing ancilla and the next one. Composing that collision with
a full SWAP and discarding the swapped-out qubit turns the system plus one
"memory" qubit per bath into a compound with history-independent one-step
dynamics; steady states are then fixed points of that one-step channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidParameter, NonUniqueSteadyState, NotDiagonal
from .metrics import (
    ThermalParams,
    effective_temperature,
    fidelity,
    gibbs_qubit,
)
from .tensor import (
    EXCITED,
    GROUND,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SWAP_2,
    DensityMatrix,
    HermitianOp,
    QubitRegister,
    UnitaryOp,
    embed,
    expm_i_hermitian,
    kron_all,
    projector,
)

SETTING_I = "I"
SETTING_II = "II"

_PERIPHERAL_TOL = 1e-9      # unit-circle degeneracy threshold
_FIXED_POINT_TOL = 1e-12    # residual bound for the returned fixed point

_HEISENBERG_2 = -(0.5) * (
    np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
)


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of one collision model run.

    ``delta`` is the intra-bath collision angle in radians, in [0, pi/2).
    ``beta`` may be ``math.inf`` for a zero-temperature bath.
    """

    beta: float
    dt: float
    omega: float = 1.0
    gamma: float = 1.0
    delta: float = 0.0
    setting: str = SETTING_I

    def __post_init__(self):
        if self.setting not in (SETTING_I, SETTING_II):
            raise InvalidParameter(f"setting must be 'I' or 'II', got {self.setting!r}")
        if not self.dt > 0:
            raise InvalidParameter(f"dt must be positive (got {self.dt})")
        if not (0.0 <= self.delta < math.pi / 2):
            raise InvalidParameter(f"delta must lie in [0, pi/2) (got {self.delta})")
        if not self.gamma > 0:
            raise InvalidParameter(f"gamma must be positive (got {self.gamma})")
        if not self.omega > 0:
            raise InvalidParameter(f"omega must be positive (got {self.omega})")
        if not self.beta > 0:
            raise InvalidParameter(f"beta must be positive (got {self.beta})")

    @property
    def thermal(self) -> ThermalParams:
        return ThermalParams.from_bath(self.beta, self.omega)

    @property
    def n_baths(self) -> int:
        return 1 if self.setting == SETTING_I else 2

    @property
    def coupling_j(self) -> float:
        """Setting I exchange coupling sqrt(gamma (2 nbar + 1)/dt)."""
        return math.sqrt(self.gamma * (2.0 * self.thermal.nbar + 1.0) / self.dt)

    @property
    def coupling_j0(self) -> float:
        """Setting II coupling to the ground-state bath."""
        return math.sqrt(self.gamma * (self.thermal.nbar + 1.0) / self.dt)

    @property
    def coupling_j1(self) -> float:
        """Setting II coupling to the excited-state bath."""
        return math.sqrt(self.gamma * self.thermal.nbar / self.dt)

    def bath_state(self, bath: int) -> np.ndarray:
        """Fresh ancilla state of the given bath (single-qubit matrix)."""
        if self.setting == SETTING_I:
            if bath != 0:
                raise InvalidParameter("setting I has a single bath")
            return gibbs_qubit(self.beta, self.omega).mat
        if bath == 0:
            return projector(GROUND)
        if bath == 1:
            return projector(EXCITED)
        raise InvalidParameter("setting II has baths 0 and 1")


@dataclass(frozen=True)
class HeatRecord:
    """Heat absorbed by one ancilla, resolved over its three collisions.

    ``q_intra_in`` is collected while the unit is the fresh partner of its
    predecessor, ``q_sa`` across the system collision, ``q_intra_out`` while
    handing off to its successor. Markovian runs have zero intra terms.
    """

    bath: int
    q_sa: float
    q_intra_in: float = 0.0
    q_intra_out: float = 0.0

    @property
    def q_lifecycle(self) -> float:
        return self.q_intra_in + self.q_sa + self.q_intra_out


def heisenberg_interaction(j: float, pair: Sequence[str], register: QubitRegister) -> HermitianOp:
    """-(J/2)(XX + YY + ZZ) on ``pair``, identity elsewhere."""
    return HermitianOp(register, embed(j * _HEISENBERG_2, pair, register))


def partial_swap(theta: float, pair: Sequence[str], register: QubitRegister) -> UnitaryOp:
    """cos(theta) 1 - i sin(theta) SWAP on ``pair``."""
    u2 = math.cos(theta) * np.eye(4, dtype=complex) - 1j * math.sin(theta) * SWAP_2
    return UnitaryOp(register, embed(u2, pair, register))


def intra_bath_unitary(delta: float, pair: Sequence[str], register: QubitRegister) -> UnitaryOp:
    """Ancilla-ancilla collision of fixed angle delta in [0, pi/2)."""
    if not (0.0 <= delta < math.pi / 2):
        raise InvalidParameter(f"delta must lie in [0, pi/2) (got {delta})")
    return partial_swap(delta, pair, register)


def setting2_unitary(cfg: ModelConfig, register: QubitRegister,
                     system: str, ancilla0: str, ancilla1: str) -> UnitaryOp:
    """exp(-i (H0 + H1) dt) with both exchange terms sharing the system qubit."""
    if cfg.setting != SETTING_II:
        raise InvalidParameter("setting2_unitary requires a setting II config")
    h = (heisenberg_interaction(cfg.coupling_j0, (system, ancilla0), register).mat
         + heisenberg_interaction(cfg.coupling_j1, (system, ancilla1), register).mat)
    return UnitaryOp(register, expm_i_hermitian(h, cfg.dt))


def _memory_labels(cfg: ModelConfig) -> list:
    """Labels of the memory qubits, one per bath."""
    return ["M"] if cfg.n_baths == 1 else [f"M{b}" for b in range(cfg.n_baths)]


def _collision_unitary(cfg: ModelConfig, register: QubitRegister,
                       memories: Sequence[str]) -> np.ndarray:
    """System-bath collision of one step on ``register``.

    Setting I: partial SWAP of angle J dt on (S, M). Setting II: the joint
    exchange on (S, M0, M1).
    """
    if cfg.setting == SETTING_I:
        return partial_swap(cfg.coupling_j * cfg.dt, ("S", *memories), register).mat
    return setting2_unitary(cfg, register, "S", *memories).mat


class _StepOps:
    """One collision step on the embedded compound, and its linear readouts.

    Extended register layout: compound labels first, fresh-ancilla labels
    trailing, one fresh qubit per bath. The engineered full SWAP plus trace
    over the swapped-out qubit is realized as a trace over the memory
    positions (the two compositions are identical maps).

    ``readout`` holds rows on the row-major vec(compound). Rows 0-3 give the
    system marginal (entries 00, 01, 10, 11). Then, per bath, four energy
    rows: the memory before the system collision, after it and after the
    intra collision, and the fresh unit after the intra collision. Each is
    the Heisenberg-picture operator Tr_F[(1 x fresh) W^dag H W], so a heat is
    a difference of two readout values on the pre-step compound.
    """

    def __init__(self, cfg: ModelConfig):
        mem = _memory_labels(cfg)
        fresh = ["F" + m[1:] for m in mem]
        self.compound_register = QubitRegister(["S"] + mem)
        ext = self.ext_register = QubitRegister(["S"] + mem + fresh)
        self.mem_positions = list(ext.positions(mem))

        self.u_coll = _collision_unitary(cfg, ext, mem)
        u_intra = np.eye(ext.dim, dtype=complex)
        for m, f in zip(mem, fresh):
            u_intra = u_intra @ intra_bath_unitary(cfg.delta, (m, f), ext).mat
        self.u_intra = u_intra
        self.u_step = u_intra @ self.u_coll
        self.fresh_state = kron_all(*(cfg.bath_state(b) for b in range(cfg.n_baths)))
        self.fresh_energies = np.array([
            float(0.5 * cfg.omega * (cfg.bath_state(b)[0, 0] - cfg.bath_state(b)[1, 1]).real)
            for b in range(cfg.n_baths)
        ])

        d = self.compound_dim
        f_dim = self.fresh_state.shape[0]

        def row(h: np.ndarray, w: np.ndarray) -> np.ndarray:
            o = (w.conj().T @ h @ w).reshape(d, f_dim, d, f_dim)
            return np.einsum("ikjl,lk->ji", o, self.fresh_state).reshape(-1)

        h_qubit = 0.5 * cfg.omega * SIGMA_Z
        one, u_step = np.eye(ext.dim), self.u_step
        rows = [np.kron(e, np.eye(d // 2)).reshape(-1) for e in np.eye(4).reshape(4, 2, 2)]
        for m, f in zip(mem, fresh):
            h_m, h_f = embed(h_qubit, [m], ext), embed(h_qubit, [f], ext)
            rows += [row(h_m, one), row(h_m, self.u_coll), row(h_m, u_step), row(h_f, u_step)]
        self.readout = np.array(rows, dtype=complex)

    @property
    def compound_dim(self) -> int:
        return self.compound_register.dim

    @property
    def system_rows(self) -> np.ndarray:
        return self.readout[:4]

    def heats(self, reads: np.ndarray):
        """(q_sa, q_intra_out, q_intra_in) per bath from readouts of pre-step compounds.

        ``q_intra_in`` is the heat picked up by the fresh unit attached this
        step, i.e. the incoming intra-collision heat of the *next* step's
        record. Leading axes of ``reads`` are kept.
        """
        e = reads[..., 4:].real.reshape(reads.shape[:-1] + (-1, 4))
        return e[..., 1] - e[..., 0], e[..., 2] - e[..., 1], e[..., 3] - self.fresh_energies

    def apply_channel_batch(self, mats: np.ndarray) -> np.ndarray:
        """Channel applied to a stack of compound-space matrices."""
        b = mats.shape[0]
        d = self.compound_dim
        f = self.fresh_state.shape[0]
        ext = np.einsum("bij,kl->bikjl", mats, self.fresh_state).reshape(b, d * f, d * f)
        ext = self.u_step @ ext @ self.u_step.conj().T
        t = ext.reshape([b] + [2] * (2 * self.ext_register.n_qubits))
        for offset, q in enumerate(sorted(self.mem_positions)):
            ax = q - offset
            n_cur = (t.ndim - 1) // 2
            t = np.trace(t, axis1=1 + ax, axis2=1 + ax + n_cur)
        return t.reshape(b, d, d)

    def step_with_heat(self, rho_c: np.ndarray):
        """One step returning (next compound, q_sa, q_intra_out, q_intra_in)."""
        q_sa, q_intra_out, q_intra_in = self.heats(self.readout @ rho_c.reshape(-1))
        return self.apply_channel_batch(rho_c[None])[0], q_sa, q_intra_out, q_intra_in


@functools.lru_cache(maxsize=32)
def _step_ops(cfg: ModelConfig) -> _StepOps:
    """Collision core of ``cfg``, shared by all callers, so its arrays are read-only."""
    ops = _StepOps(cfg)
    for value in vars(ops).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ops


def _bare_step_ops(cfg: ModelConfig) -> _StepOps:
    if cfg.delta != 0.0:
        raise InvalidParameter("the bare-system step requires delta = 0")
    return _step_ops(cfg)


@dataclass(frozen=True, eq=False)
class StepChannel:
    """One-collision CPTP map as a superoperator on row-major vectorized states."""

    register: QubitRegister
    superop: np.ndarray = field(repr=False)
    description: str = ""

    @property
    def dim(self) -> int:
        return self.register.dim

    def apply(self, mat: np.ndarray) -> np.ndarray:
        d = self.dim
        return (self.superop @ np.asarray(mat, dtype=complex).reshape(-1)).reshape(d, d)


def _superop_from_batch(apply_batch, d: int) -> np.ndarray:
    basis = np.zeros((d * d, d, d), dtype=complex)
    idx = np.arange(d * d)
    basis[idx, idx // d, idx % d] = 1.0
    # a few basis matrices at a time keep the extended-space stacks small
    images = np.concatenate([apply_batch(basis[i:i + 16]) for i in range(0, d * d, 16)])
    return images.reshape(d * d, d * d).T


def embedded_step_channel(cfg: ModelConfig) -> StepChannel:
    """One-step channel on the system+memory compound (works for delta = 0 too)."""
    ops = _step_ops(cfg)
    superop = _superop_from_batch(ops.apply_channel_batch, ops.compound_dim)
    return StepChannel(
        register=ops.compound_register,
        superop=superop,
        description=f"setting {cfg.setting} embedded, dt={cfg.dt:g}, delta={cfg.delta:g}",
    )


def markovian_step(cfg: ModelConfig, rho_s: DensityMatrix) -> Tuple[DensityMatrix, Tuple[HeatRecord, ...]]:
    """One fresh-ancilla collision on the bare system, with per-bath heat.

    This is the delta = 0 compound step with a fresh memory attached to the
    system beforehand and the compound's memory traced out afterwards.
    """
    ops = _bare_step_ops(cfg)
    rho_c, q_sa, _, _ = ops.step_with_heat(np.kron(rho_s.mat, ops.fresh_state))
    reduced = (ops.system_rows @ rho_c.reshape(-1)).reshape(2, 2)
    records = tuple(HeatRecord(bath=b, q_sa=float(q_sa[b])) for b in range(cfg.n_baths))
    return DensityMatrix(rho_s.register, reduced), records


def markovian_channel(cfg: ModelConfig) -> StepChannel:
    """One-collision channel on the system alone (delta = 0)."""
    ops = _bare_step_ops(cfg)
    # columns: vec(E_ij x fresh memories) for the four system basis matrices E_ij
    attach = np.einsum("xij,kl->ikjlx", np.eye(4).reshape(4, 2, 2), ops.fresh_state)
    superop = ops.system_rows @ embedded_step_channel(cfg).superop @ attach.reshape(-1, 4)
    return StepChannel(
        register=QubitRegister(["S"]),
        superop=superop,
        description=f"setting {cfg.setting} markovian, dt={cfg.dt:g}",
    )


def _power_fixed_point(superop: np.ndarray, d: int, max_doublings: int = 60) -> np.ndarray:
    """Fixed point by power iteration from the maximally mixed state.

    The iteration is accelerated by repeated squaring of the superoperator,
    so the number of effective channel applications grows as 2^k. Iterates
    are trace-normalized and the squared matrix rescaled so that non-normal
    transient growth cannot overflow.
    """
    trace_vec = np.eye(d, dtype=complex).reshape(-1)
    v = trace_vec / d
    b = superop.copy()
    for _ in range(max_doublings):
        w = b @ v
        tr = trace_vec @ w
        if not np.isfinite(tr.real) or abs(tr) < 1e-300:
            raise ArithmeticError("power iteration lost the trace of the iterate")
        w = w / tr
        if np.abs(w - v).max() < 1e-15:
            v = w
            break
        v = w
        b = b @ b
        scale = np.abs(b).max()
        if scale > 1e100:
            b = b / scale
    rho = v.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    if not np.all(np.isfinite(rho)):
        raise ArithmeticError("power iteration diverged")
    return rho


def steady_state(channel: StepChannel, cross_check: bool = True) -> DensityMatrix:
    """Unique fixed point of a trace-preserving one-step channel.

    Computed from the eigenvector of the superoperator at eigenvalue one and
    cross-validated against power iteration. The agreement tolerance widens
    from 1e-12 as the spectral gap closes, since the fixed point of the
    floating-point superoperator is itself only conditioned to eps/gap.
    """
    superop = channel.superop
    d = channel.dim
    w, v = np.linalg.eig(superop)
    moduli = np.sort(np.abs(w))[::-1]
    peripheral = int(np.sum(np.abs(w) > 1.0 - _PERIPHERAL_TOL))
    if peripheral != 1:
        raise NonUniqueSteadyState(max(peripheral, 2))
    k = int(np.argmin(np.abs(w - 1.0)))
    rho = v[:, k].reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-8:
        raise NonUniqueSteadyState(2)
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = np.abs(channel.apply(rho) - rho).max()
    if residual > _FIXED_POINT_TOL:
        raise ArithmeticError(f"fixed-point residual {residual:.2e} exceeds 1e-12")
    if cross_check:
        gap = 1.0 - moduli[1]
        rho_pi = _power_fixed_point(superop, d)
        tol = max(1e-12, 100.0 * np.finfo(float).eps / max(gap, 1e-15))
        dev = np.abs(rho - rho_pi).max()
        if not dev <= tol:  # written so NaN fails too
            raise ArithmeticError(
                f"eigendecomposition and power iteration disagree by {dev:.2e} "
                f"(tolerance {tol:.2e} at spectral gap {gap:.2e})"
            )
    return DensityMatrix(channel.register, rho)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Per-step reduced system states and diagnostics from ``evolve``.

    ``beta_e`` is NaN where the system state is not diagonal and signed
    infinity where it is numerically pure. Heat arrays have one column per
    bath; ``q_lifecycle[n]`` is complete once step n has run (the incoming
    intra-collision of the unit measured at step n happened at step n-1).
    """

    times: np.ndarray
    states: np.ndarray
    q_sa: np.ndarray
    q_intra_in: np.ndarray
    q_intra_out: np.ndarray
    fidelity_to_gibbs: np.ndarray
    beta_e: np.ndarray
    final_compound: DensityMatrix

    @property
    def q_lifecycle(self) -> np.ndarray:
        return self.q_intra_in + self.q_sa + self.q_intra_out

    def heat_records(self, step: int) -> Tuple[HeatRecord, ...]:
        return tuple(
            HeatRecord(
                bath=b,
                q_sa=float(self.q_sa[step, b]),
                q_intra_in=float(self.q_intra_in[step, b]),
                q_intra_out=float(self.q_intra_out[step, b]),
            )
            for b in range(self.q_sa.shape[1])
        )


def evolve(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int) -> EvolutionResult:
    """Stroboscopic evolution from ``rho0_s`` with memories in fresh bath states.

    Returns one row per collision at times t = n dt, including the per-bath
    heat bookkeeping of the unit retired at each step.
    """
    if n_steps < 1:
        raise InvalidParameter("n_steps must be at least 1")
    ops = _step_ops(cfg)
    superop = embedded_step_channel(cfg).superop
    target = gibbs_qubit(cfg.beta, cfg.omega)

    # readouts of the compound before every step and after the last one
    v = np.kron(rho0_s.mat, ops.fresh_state).reshape(-1)
    reads = np.empty((n_steps + 1, ops.readout.shape[0]), dtype=complex)
    reads[0] = ops.readout @ v
    for n in range(n_steps):
        v = superop @ v
        reads[n + 1] = ops.readout @ v

    times = cfg.dt * np.arange(1, n_steps + 1)
    states = reads[1:, :4].reshape(n_steps, 2, 2)
    q_sa, q_intra_out, next_q_in = ops.heats(reads[:-1])
    # the first memory is a fresh unit: no predecessor
    q_intra_in = np.vstack([np.zeros((1, cfg.n_baths)), next_q_in[:-1]])
    fid = np.empty(n_steps)
    beta_e = np.empty(n_steps)
    for n in range(n_steps):
        sys_dm = DensityMatrix(target.register, states[n])
        fid[n] = fidelity(sys_dm, target)
        try:
            beta_e[n] = effective_temperature(sys_dm, cfg.omega).beta_e
        except NotDiagonal:
            beta_e[n] = math.nan

    final = DensityMatrix(ops.compound_register, v.reshape(ops.compound_dim, -1))
    return EvolutionResult(
        times=times, states=states, q_sa=q_sa, q_intra_in=q_intra_in,
        q_intra_out=q_intra_out, fidelity_to_gibbs=fid, beta_e=beta_e,
        final_compound=final,
    )


def steady_heat_flux(cfg: ModelConfig, bath: int = 0) -> float:
    """Steady-state heat flux q_sa/dt into one bath's ancilla.

    Evaluated as the ancilla energy change across the system-ancilla
    collision, read off the compound fixed point through the readout rows.
    """
    rho_star = steady_state(embedded_step_channel(cfg))
    return steady_heat_flux_from_state(cfg, rho_star, bath)


def steady_heat_flux_from_state(cfg: ModelConfig, rho_star: DensityMatrix,
                                bath: int = 0) -> float:
    """Heat flux into ``bath`` given a precomputed compound steady state."""
    if not (0 <= bath < cfg.n_baths):
        raise InvalidParameter(f"bath must index one of {cfg.n_baths} baths")
    ops = _step_ops(cfg)
    q_sa, _, _ = ops.heats(ops.readout @ rho_star.mat.reshape(-1))
    return float(q_sa[bath]) / cfg.dt
