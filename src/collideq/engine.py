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
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FixedPointError,
    InvalidParameter,
    NonUniqueSteadyState,
    _check_count,
    _is_integer,
)
from .metrics import _effective_betas, _fidelities, gibbs_qubit, nbar
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
    _check_density_stack,
    connected_blocks,
    embed,
    expm_i_hermitian,
    kron,
    projector,
)

SETTING_I = "I"
SETTING_II = "II"

_PERIPHERAL_TOL = 1e-9      # unit-circle degeneracy threshold
_FIXED_POINT_TOL = 1e-12    # residual bound for the returned fixed point
_HERMITICITY_TOL = 1e-12    # how far a channel entry's mirror may miss its conjugate
_EVOLVE_CHUNK = 128         # compounds ``evolve`` steps into one buffer before reading them
_MAX_DOUBLINGS = 60         # power iteration squarings: up to 2^60 channel applications

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
        for name in ("dt", "gamma", "omega"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidParameter(f"{name} must be positive and finite (got {value})")
        if not (0.0 <= self.delta < math.pi / 2):
            raise InvalidParameter(f"delta must lie in [0, pi/2) (got {self.delta})")
        if not self.beta > 0:
            raise InvalidParameter(f"beta must be positive (got {self.beta})")

    @property
    def n_baths(self) -> int:
        return 1 if self.setting == SETTING_I else 2

    @property
    def coupling_j(self) -> float:
        """Setting I exchange coupling sqrt(gamma (2 nbar + 1)/dt)."""
        return math.sqrt(self.gamma * (2.0 * nbar(self.beta, self.omega) + 1.0) / self.dt)

    @property
    def coupling_j0(self) -> float:
        """Setting II coupling to the ground-state bath."""
        return math.sqrt(self.gamma * (nbar(self.beta, self.omega) + 1.0) / self.dt)

    @property
    def coupling_j1(self) -> float:
        """Setting II coupling to the excited-state bath."""
        return math.sqrt(self.gamma * nbar(self.beta, self.omega) / self.dt)

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


def heisenberg_interaction(j: float, pair: Sequence[str], register: QubitRegister) -> HermitianOp:
    """-(J/2)(XX + YY + ZZ) on ``pair``, identity elsewhere."""
    return HermitianOp(register, embed(j * _HEISENBERG_2, pair, register))


def partial_swap(theta: float, pair: Sequence[str], register: QubitRegister) -> UnitaryOp:
    """cos(theta) 1 - i sin(theta) SWAP on ``pair``."""
    u2 = math.cos(theta) * np.eye(4, dtype=complex) - 1j * math.sin(theta) * SWAP_2
    return UnitaryOp(register, embed(u2, pair, register))


def setting2_unitary(cfg: ModelConfig, register: QubitRegister,
                     system: str, ancilla0: str, ancilla1: str) -> UnitaryOp:
    """exp(-i (H0 + H1) dt) with both exchange terms sharing the system qubit."""
    if cfg.setting != SETTING_II:
        raise InvalidParameter("setting2_unitary requires a setting II config")
    h = (heisenberg_interaction(cfg.coupling_j0, (system, ancilla0), register).mat
         + heisenberg_interaction(cfg.coupling_j1, (system, ancilla1), register).mat)
    return UnitaryOp(register, expm_i_hermitian(h, cfg.dt))


def _read_only(*arrays: np.ndarray):
    """Mark cached arrays read-only, so no caller can change what the next one reads."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _compound_register(n_baths: int) -> QubitRegister:
    """(S, M) for one bath, (S, M0, M1, ...) for several."""
    return QubitRegister(["S"] + (["M"] if n_baths == 1 else [f"M{b}" for b in range(n_baths)]))


# The pieces of a core that only some configuration parameters reach are
# cached apart from the core, so a grid cell rebuilds only what its own
# parameters change. Each cache holds a fixed number of entries.

@functools.lru_cache(maxsize=16)
def _collision(setting: str, beta: float, dt: float, omega: float, gamma: float) -> np.ndarray:
    """Compound collision U of one (setting, beta, dt, omega, gamma); delta never reaches it."""
    cfg = ModelConfig(beta=beta, dt=dt, omega=omega, gamma=gamma, setting=setting)
    compound = _compound_register(cfg.n_baths)
    mem = compound.labels[1:]
    if setting == SETTING_I:
        u = partial_swap(cfg.coupling_j * cfg.dt, ("S", *mem), compound).mat
    else:
        u = setting2_unitary(cfg, compound, "S", *mem).mat
    _read_only(u)
    return u


@functools.lru_cache(maxsize=32)
def _bath_pieces(setting: str, beta: float, omega: float, delta: float):
    """``(fresh_state, memories, pops)`` of one (setting, beta, omega, delta).

    ``memories`` is every bath's intra Kraus pair joined and lifted to the
    compound, indexed (birth, outcome, F_out, compound in); ``pops[b]`` is
    bath ``b``'s (excited, ground) populations.
    """
    cfg = ModelConfig(beta=beta, dt=1.0, omega=omega, delta=delta, setting=setting)  # dt unread
    baths = [cfg.bath_state(b) for b in range(cfg.n_baths)]
    intra = partial_swap(delta, ("M", "F"), QubitRegister(["M", "F"])).mat
    # (M_out, F_out, M_in, F_in) -> (F_in, M_out, F_out, M_in)
    kraus = intra.reshape(2, 2, 2, 2).transpose(3, 0, 1, 2)
    # np.kron joins all four axes (birth, outcome, F_out, M_in) bath by
    # bath, bath 0 most significant; kron(1_S, .) lifts them to the compound
    memories = np.kron(np.eye(2), kron(*[kraus] * cfg.n_baths))
    pops = np.array([b.diagonal().real for b in baths])
    return _read_only(kron(*baths), memories, pops)


@functools.lru_cache(maxsize=4)
def _readout_pieces(n_baths: int, omega: float):
    """The readout operators of one (n_baths, omega) that no collision enters.

    ``(system_rows, energies)``: the four system-marginal rows, and per bath
    ``(H_m, e_m)``, its memory energy on the compound and the vector of the
    outgoing memory's energy over the joint outcomes.
    """
    compound = _compound_register(n_baths)
    mem = compound.labels[1:]
    h_qubit = 0.5 * omega * SIGMA_Z
    energies = tuple(_read_only(embed(h_qubit, [m], compound),
                                embed(h_qubit, [m], QubitRegister(mem)).diagonal().real)
                     for m in mem)
    rows = _read_only(*(np.kron(e, np.eye(compound.dim // 2)).reshape(-1)
                        for e in np.eye(4).reshape(4, 2, 2)))
    return rows, energies


class _StepOps:
    """The collision core of one configuration, the only place its step is built.

    The collision ``u_compound`` acts on the compound register (S, M...).
    Each bath's intra collision then meets a fresh unit in state ``f`` and
    leaves its memory measured in outcome ``o``; the engineered full SWAP
    makes the fresh unit the next memory. So the step is a Kraus stack on
    the compound alone: with the pair ``A_o[f] = <o|_M U_intra |f>_F``
    (indexed F_out, M_in) on each bath's memory slot, ``joint[c]`` stacks
    ``K_{c,o} = (A_{o_0}[f_0] x A_{o_1}[f_1] ...) U`` over the joint outcomes
    ``o = (o_0, o_1, ...)`` for the birth combination ``c = (f_0, f_1, ...)``,
    both read as binary numbers with bath 0 most significant. A
    trajectory's step and every bath's measurement are one
    ``(2^n_baths d, d)`` product with it; the trajectories also read
    ``p_exc``.

    Every fresh state is diagonal, so the channel is
    ``sum_c p_c sum_o K_{c,o} x conj(K_{c,o})`` with ``p_c`` the diagonal of
    ``fresh_state``. The sum runs over the births with ``p_c > 0`` only:
    setting II's fresh units are pure, so one birth combination of four
    has weight, and setting I's has one of two at beta = inf. A term of
    weight exactly 0 adds nothing, so this is the sum over all births bit
    for bit; ``joint`` keeps every birth, since a trajectory indexes it by
    the birth it samples. ``superop`` is that channel on the row-major
    vec(compound), and ``readout`` holds rows on the same vector. Rows 0-3
    give the system marginal (entries 00, 01, 10, 11). Each bath then has
    three heat rows, one operator each on the pre-step compound: ``q_sa =
    U^dag H_m U - H_m``, ``q_intra_out = sum_o e_m(o) E_o - U^dag H_m U``
    and the next unit's ``q_intra_in = S^dag(H_m) - e_fresh 1``. Here
    ``E_o = sum_c p_c K_co^dag K_co`` is the effect of joint outcome ``o``,
    ``e_m(o)`` the outgoing memory's energy in it, and ``S^dag(H_m)`` the
    memory energy after the step, where the fresh unit has become the memory.
    """

    def __init__(self, cfg: ModelConfig):
        compound = self.compound_register = _compound_register(cfg.n_baths)
        d = compound.dim
        u = self.u_compound = _collision(cfg.setting, cfg.beta, cfg.dt, cfg.omega, cfg.gamma)
        self.fresh_state, memories, pops = _bath_pieces(cfg.setting, cfg.beta, cfg.omega,
                                                        cfg.delta)
        self.joint = (memories @ u).reshape(len(memories), -1, d)
        self.p_exc = pops[:, 0]

        # every fresh state is diagonal: the step is sum_c p_c sum_o K_co x conj(K_co),
        # summed over the births c with p_c > 0 only
        p = self.fresh_state.diagonal().real
        born = np.flatnonzero(p)
        p, k = p[born], self.joint.reshape(len(p), -1, d, d)[born]
        self.superop = np.einsum("coai,cobj->ijab", p[:, None, None, None] * k,
                                 k.conj()).reshape(d * d, d * d).T

        # the effect sum_c p_c K_co^dag K_co of each joint outcome o
        effects = np.tensordot(p, k.conj().swapaxes(-1, -2) @ k, 1)
        system_rows, energies = _readout_pieces(cfg.n_baths, cfg.omega)
        # Tr[O rho] is the row O^T on the row-major vec(rho)
        rows = list(system_rows)
        for (h_m, e_m), e_fresh in zip(energies, 0.5 * cfg.omega * (pops[:, 0] - pops[:, 1])):
            h_mid = u.conj().T @ h_m @ u
            rows += [(h_mid - h_m).T.reshape(-1),
                     (np.tensordot(e_m, effects, 1) - h_mid).T.reshape(-1),
                     h_m.T.reshape(-1) @ self.superop - e_fresh * np.eye(d).reshape(-1)]
        self.readout = np.array(rows, dtype=complex)

    @property
    def system_rows(self) -> np.ndarray:
        return self.readout[:4]

    def attach(self, mats: np.ndarray) -> np.ndarray:
        """Compounds ``kron(m, fresh_state)``: fresh memories for each matrix ``m`` of a stack."""
        return np.kron(mats, self.fresh_state)

    def heats(self, reads: np.ndarray):
        """(q_sa, q_intra_out, q_intra_in) per bath from readouts of pre-step compounds.

        ``q_intra_in`` is the heat the fresh unit attached this step picks up,
        the *next* step's incoming heat. Leading axes of ``reads`` are kept.
        """
        q = reads[..., 4:].real.reshape(reads.shape[:-1] + (-1, 3))
        return q[..., 0], q[..., 1], q[..., 2]


@functools.lru_cache(maxsize=1)
def _step_ops(cfg: ModelConfig) -> _StepOps:
    """Collision core of ``cfg``, shared by all callers, so its arrays are read-only.

    One entry is enough: every caller reads one configuration's core in
    consecutive calls and never returns to an older one. A steady-state cell
    reads the channel and then the flux, a BLP cell reads the channel and
    the system rows, and the trajectories command runs ``evolve`` and then
    each of its ensemble chunks.

    A new core reuses the pieces that its parameters share with recent
    configurations, each from its own bounded cache: ``_collision`` keyed
    by (setting, beta, dt, omega, gamma), ``_bath_pieces`` (fresh state,
    lifted intra Kraus stack, populations) by (setting, beta, omega, delta),
    and ``_readout_pieces`` (system rows, memory and outcome energies) by
    (n_baths, omega). A grid row at fixed dt so builds its collision once.
    """
    ops = _StepOps(cfg)
    _read_only(*(v for v in vars(ops).values() if isinstance(v, np.ndarray)))
    return ops


def _system_matrix(rho_s: DensityMatrix) -> np.ndarray:
    """The matrix of a system state, ``DimensionMismatch`` unless on a single qubit."""
    if rho_s.register.n_qubits != 1:
        raise DimensionMismatch(f"system state on {rho_s.register.labels}, not a single qubit")
    return rho_s.mat


@functools.lru_cache(maxsize=4)
def _mirror_pairs(d: int):
    """``(p, q)``: flat indices of each entry of a ``(d^2, d^2)`` matrix and of its mirror.

    The mirror of entry ((i, j), (k, l)) is ((j, i), (l, k)): vec(|i><j|)
    read as vec(|j><i|) on both sides. Each pair comes once, entries that
    are their own mirror (i = j and k = l) included.
    """
    mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
    image = (mirror[:, None] * (d * d) + mirror).reshape(-1)
    p = np.flatnonzero(np.arange(d ** 4) <= image)
    return _read_only(p, image[p])


@functools.lru_cache(maxsize=4)
def _hermitian_coordinates(d: int) -> np.ndarray:
    """The vec indices of X_kk, then of X_kl over k < l, then of X_lk over k < l.

    The Hermitian coordinates of a d x d Hermitian X are the d^2 reals X_kk,
    then Re X_kl, then Im X_kl over k < l in ``np.triu_indices`` order: the
    first d are the diagonal, and the first d (d + 1) / 2 of these indices
    are the entries they read.
    """
    k, l = np.triu_indices(d, 1)
    return _read_only(np.concatenate((np.arange(d) * (d + 1), k * d + l, l * d + k)))[0]


def _hermitian_superop(superop: np.ndarray, d: int) -> np.ndarray:
    """The real matrix of a Hermiticity-preserving ``superop`` on Hermitian coordinates.

    Its columns are the images of |k><k|, |k><l| + |l><k| and
    i|k><l| - i|l><k|, read on the image's diagonal and upper triangle. It
    is ``superop`` on the real space of Hermitian matrices, so it has the
    same spectrum; a block of ``superop`` and its mirror block share their
    coordinates.
    """
    vec = _hermitian_coordinates(d)
    n = d * (d + 1) // 2
    rows = superop[vec[:n]][:, vec]
    kl, lk = rows[:, d:n], rows[:, n:]
    image = np.concatenate((rows[:, :d], kl + lk, 1j * (kl - lk)), axis=1)
    return np.concatenate((image.real, image[d:].imag))


@functools.lru_cache(maxsize=16)
def _spectral_blocks(d: int, raw: bytes):
    """``(blocks of S, blocks of R)`` from the raw nonzero pattern of ``S``.

    The blocks of S are the connected components of its pattern. R, the
    matrix of S on Hermitian coordinates, is split along the same pattern:
    its entry in the coordinates of (k, l) and (m, n) combines S's entries
    in row kl at columns mn and nm, so it is 0 wherever both are, and each
    +-k pair of coherence-order blocks of S is one block of R. (An entry of
    R that cancels to 0 leaves its block whole.) A grid of cells with one
    pattern finds both partitions once.
    """
    pattern = np.frombuffer(raw, dtype=bool).reshape(d * d, d * d)
    vec = _hermitian_coordinates(d)
    n = d * (d + 1) // 2
    rows = pattern[vec[:n]][:, vec]
    pair = rows[:, d:n] | rows[:, n:]
    read = np.concatenate((rows[:, :d], pair, pair), axis=1)
    return connected_blocks(pattern), connected_blocks(np.concatenate((read, read[d:])))


def _hermitian_matrix(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian d x d matrix of the real coordinate vector ``x``."""
    n = d * (d + 1) // 2
    upper = x[d:n] + 1j * x[n:]
    mat = np.empty(d * d, dtype=complex)
    mat[_hermitian_coordinates(d)] = np.concatenate((x[:d], upper, upper.conj()))
    return mat.reshape(d, d)


@dataclass(frozen=True, eq=False)
class StepChannel:
    """One-collision CPTP map as a superoperator on row-major vectorized states.

    From :func:`embedded_step_channel`, ``superop`` is the cached collision
    core's read-only array, the same object every caller of that
    configuration reads. Any other ``superop`` is read as a complex array; one
    that is not ``(dim^2, dim^2)`` raises :class:`DimensionMismatch`, one
    with a non-finite entry ``ValueError``, and so does one that does not
    preserve Hermiticity, ``S(X^dag) = S(X)^dag``, to 1e-12 in the real and
    imaginary part of every entry: :func:`steady_state` reads the map on
    Hermitian coordinates, where that makes it a real matrix. Every channel
    this package builds passes.
    """

    register: QubitRegister
    superop: np.ndarray = field(repr=False)

    def __post_init__(self):
        superop = np.asarray(self.superop, dtype=complex)  # the core's array itself, no copy
        d = self.dim
        if superop.shape != (d * d,) * 2:
            raise DimensionMismatch(f"superoperator shape {superop.shape} does not match "
                                    f"register dimension {d}")
        # S(X^dag) = S(X)^dag: each mirror entry of S is the conjugate of its
        # entry. So is each of S^T, which for a core's F-ordered array is a
        # view. A NaN or inf entry leaves a deviation that fails `<=` too
        flat = (superop if superop.flags.c_contiguous else superop.T).reshape(-1)
        p, q = _mirror_pairs(d)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, reported below
            dev = np.abs((flat[q] - flat[p].conj()).view(float)).max()
        if not dev <= _HERMITICITY_TOL:
            if not np.isfinite(superop).all():
                raise ValueError("superoperator has non-finite (NaN or inf) entries")
            raise ValueError(f"superoperator does not preserve Hermiticity: a mirror entry "
                             f"misses the conjugate of its entry by {dev:.2e} (tolerance 1e-12)")
        object.__setattr__(self, "superop", superop)

    @property
    def dim(self) -> int:
        return self.register.dim

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """``S(mat)`` for a ``(dim, dim)`` matrix; any other shape raises :class:`DimensionMismatch`."""
        d = self.dim
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {mat.shape} does not match "
                                    f"register dimension {d}")
        return (self.superop @ mat.reshape(-1)).reshape(d, d)


def embedded_step_channel(cfg: ModelConfig) -> StepChannel:
    """One-step channel on the system+memory compound (works for delta = 0 too)."""
    ops = _step_ops(cfg)
    return StepChannel(register=ops.compound_register, superop=ops.superop)


def markovian_channel(cfg: ModelConfig) -> StepChannel:
    """One-collision channel on the system alone (delta = 0)."""
    if cfg.delta != 0.0:
        raise InvalidParameter("the bare-system channel requires delta = 0")
    ops = _step_ops(cfg)
    # columns: vec(E_ij x fresh memories) for the four system basis matrices E_ij
    attach = ops.attach(np.eye(4, dtype=complex).reshape(4, 2, 2)).reshape(4, -1).T
    superop = ops.system_rows @ ops.superop @ attach
    return StepChannel(register=QubitRegister(["S"]), superop=superop)


def _power_fixed_point(block: np.ndarray, trace_vec: np.ndarray) -> np.ndarray:
    """Fixed point of ``block`` by power iteration from the maximally mixed state.

    ``trace_vec`` is the trace functional on the block's indices. The
    iteration is accelerated by repeated squaring of the block, so the
    number of effective channel applications grows as 2^k. Iterates are
    trace-normalized and the squared matrix rescaled so that non-normal
    transient growth cannot overflow. Returns the unit-trace block vector.
    """
    v = trace_vec / trace_vec.sum()
    b = block.copy()
    for _ in range(_MAX_DOUBLINGS):
        w = b @ v
        tr = trace_vec @ w
        if not math.isfinite(tr.real) or abs(tr) < 1e-300:
            raise FixedPointError("power iteration lost the trace of the iterate")
        w = w / tr
        if np.abs(w - v).max() < 1e-15:
            v = w
            break
        v = w
        b = b @ b
        scale = np.abs(b).max()
        if scale > 1e100:
            b = b / scale
    if not np.all(np.isfinite(v)):
        raise FixedPointError("power iteration diverged")
    return v


def steady_state(channel: StepChannel) -> DensityMatrix:
    """Unique fixed point of a trace-preserving one-step channel.

    The channel preserves Hermiticity (:class:`StepChannel` checks it), so
    on Hermitian coordinates (the diagonal, then Re and Im of the upper
    triangle) ``S`` is a real matrix ``R`` with the same spectrum. ``R`` is
    split into blocks along the exact nonzero pattern of ``S`` (a dense
    ``S`` gives one); for these collisions each pair of coherence-order
    blocks +-k of ``S`` is one block of ``R``. One real ``eigvals`` per
    block, every block alike, gives the moduli behind the peripheral count
    (more than one raises :class:`NonUniqueSteadyState`) and the spectral
    gap. The fixed point lives on the one block holding the peripheral
    eigenvalue; if that holds no diagonal coordinate, the fixed point is
    traceless, which raises too. (Under a trace-preserving ``S`` the trace
    functional on a block with diagonal entries is a left eigenvector of
    eigenvalue 1, so with a unique fixed point no other block has any.) The
    fixed point solves, on the connected component of ``S``'s pattern that
    holds those diagonal entries, ``S - 1`` with its first row
    replaced by the trace functional and right-hand side ``e_0`` (singular:
    no unique unit-trace fixed point). That solve stays complex: a real
    solve on ``R`` would move the fixed point by about eps/gap, and at tiny
    gaps that decides the sign of eigenvalues near 0. Power iteration on the
    real block cross-checks it, to a tolerance that widens from 1e-12
    as the gap closes, since the fixed point of the floating-point ``S`` is
    only conditioned to eps/gap. Raises :class:`FixedPointError` when the
    residual under the full ``S`` exceeds 1e-12 or the two solutions
    disagree. The returned :class:`DensityMatrix` runs the density check, so
    a fixed point with an eigenvalue below -1e-10 raises
    :class:`NumericalPositivityError` there.
    """
    superop = channel.superop
    d = channel.dim
    real = _hermitian_superop(superop, d)
    complex_blocks, blocks = _spectral_blocks(d, (superop != 0).tobytes())
    moduli = np.concatenate([np.abs(np.linalg.eigvals(real[b[:, None], b])) for b in blocks])
    peripheral = int(np.count_nonzero(moduli > 1.0 - _PERIPHERAL_TOL))
    if peripheral != 1:
        raise NonUniqueSteadyState(max(peripheral, 2))
    k = int(np.argmax(moduli))  # the moduli come block by block
    for peripheral_block in blocks:
        if k < len(peripheral_block):
            break
        k -= len(peripheral_block)
    # the diagonal coordinates come first, and a block is ascending
    if peripheral_block[0] >= d:
        raise NonUniqueSteadyState(2)  # the fixed point is traceless
    first = peripheral_block[0] * (d + 1)  # vec index of that diagonal entry
    block = next(b for b in complex_blocks if first in b)
    trace_vec = (block % (d + 1) == 0).astype(complex)
    bordered = superop[block[:, None], block] - np.eye(len(block))
    bordered[0] = trace_vec
    rhs = np.zeros(len(block), dtype=complex)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        raise NonUniqueSteadyState(2) from None
    vec = np.zeros(d * d, dtype=complex)
    vec[block] = x
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = np.abs(channel.apply(rho) - rho).max()
    if residual > _FIXED_POINT_TOL:
        raise FixedPointError(f"fixed-point residual {residual:.2e} exceeds 1e-12")
    gap = 1.0 - np.sort(moduli)[-2]
    coordinates = np.zeros(d * d)
    coordinates[peripheral_block] = _power_fixed_point(
        real[peripheral_block[:, None], peripheral_block], (peripheral_block < d).astype(float))
    rho_pi = _hermitian_matrix(coordinates, d)
    tol = max(1e-12, 100.0 * np.finfo(float).eps / max(gap, 1e-15))
    dev = np.abs(rho - rho_pi).max()
    if not dev <= tol:  # written so NaN fails too
        raise FixedPointError(
            f"bordered solve and power iteration disagree by {dev:.2e} "
            f"(tolerance {tol:.2e} at spectral gap {gap:.2e})"
        )
    return DensityMatrix(channel.register, rho)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Per-step reduced system states and diagnostics from ``evolve``.

    ``fidelity_to_gibbs`` and ``beta_e`` are read off the stacked
    ``states`` in one pass. ``beta_e`` is NaN where the system state is not
    diagonal and signed infinity where it is numerically pure. Heat arrays
    have one column per bath; row n is the heat absorbed by the ancilla
    retired at step n, resolved over its three collisions: ``q_intra_in``
    while it was the fresh partner of its predecessor, ``q_sa`` across the
    system collision and ``q_intra_out`` while handing off to its successor.
    Markovian runs have intra terms of zero to rounding. ``q_lifecycle[n]``
    is complete once step n has run (the incoming intra-collision of the
    unit measured at step n happened at step n-1).
    """

    times: np.ndarray
    states: np.ndarray
    q_sa: np.ndarray
    q_intra_in: np.ndarray
    q_intra_out: np.ndarray
    fidelity_to_gibbs: np.ndarray
    beta_e: np.ndarray

    @property
    def q_lifecycle(self) -> np.ndarray:
        return self.q_intra_in + self.q_sa + self.q_intra_out


def evolve(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int) -> EvolutionResult:
    """Stroboscopic evolution from ``rho0_s`` with memories in fresh bath states.

    Returns one row per collision at times t = n dt, including the per-bath
    heat bookkeeping of the unit retired at each step. The system states of
    all steps go through the density check as one stack, which raises on
    the first that fails (``NotHermitian``, or ``NumericalPositivityError``
    for a trace, positivity or finiteness failure), and are read out as one
    stack.
    """
    _check_count("n_steps", n_steps)
    rho0 = _system_matrix(rho0_s)
    ops = _step_ops(cfg)
    target = gibbs_qubit(cfg.beta, cfg.omega)

    # readouts of the compound before every step and after the last one; a
    # chunk's steps fill one buffer that one stacked product reads, bit for
    # bit the per-step superop @ v and readout @ v
    buf = np.empty((min(n_steps, _EVOLVE_CHUNK) + 1, ops.superop.shape[0]), dtype=complex)
    v = buf[0] = ops.attach(rho0).reshape(-1)
    reads = np.empty((n_steps + 1, ops.readout.shape[0]), dtype=complex)
    reads[0] = ops.readout @ v
    for start in range(0, n_steps, _EVOLVE_CHUNK):
        m = min(_EVOLVE_CHUNK, n_steps - start)
        for k in range(m):  # np.dot: superop @ v's BLAS gemv, with less call overhead than matmul
            np.dot(ops.superop, buf[k], out=buf[k + 1])
        reads[start + 1:start + m + 1] = np.matmul(ops.readout, buf[1:m + 1, :, None])[..., 0]
        buf[0] = buf[m]

    times = cfg.dt * np.arange(1, n_steps + 1)
    states = reads[1:, :4].reshape(n_steps, 2, 2)
    q_sa, q_intra_out, next_q_in = ops.heats(reads[:-1])
    # the first memory is a fresh unit: no predecessor
    q_intra_in = np.vstack([np.zeros((1, cfg.n_baths)), next_q_in[:-1]])
    _check_density_stack(states)
    fid = _fidelities(states, target.mat)
    _, beta_e, _ = _effective_betas(states, cfg.omega)

    return EvolutionResult(
        times=times, states=states, q_sa=q_sa, q_intra_in=q_intra_in,
        q_intra_out=q_intra_out, fidelity_to_gibbs=fid, beta_e=beta_e,
    )


def steady_heat_flux(cfg: ModelConfig, bath: int = 0) -> float:
    """Steady-state heat flux q_sa/dt into one bath's ancilla.

    Evaluated as the ancilla energy change across the system-ancilla
    collision, read off the compound fixed point through the readout rows.
    """
    _check_bath(cfg, bath)  # before the solve, whose own failure would hide it
    return steady_heat_flux_from_state(cfg, steady_state(embedded_step_channel(cfg)), bath)


def _check_bath(cfg: ModelConfig, bath) -> None:
    if not (_is_integer(bath) and 0 <= bath < cfg.n_baths):
        raise InvalidParameter(f"bath must index one of {cfg.n_baths} baths")


def steady_heat_flux_from_state(cfg: ModelConfig, rho_star: DensityMatrix,
                                bath: int = 0) -> float:
    """Heat flux into ``bath`` given a precomputed compound steady state."""
    _check_bath(cfg, bath)
    ops = _step_ops(cfg)
    if rho_star.register != ops.compound_register:
        raise DimensionMismatch(f"state on {rho_star.register.labels}, "
                                f"not the compound {ops.compound_register.labels}")
    q_sa, _, _ = ops.heats(ops.readout @ rho_star.mat.reshape(-1))
    return float(q_sa[bath]) / cfg.dt
