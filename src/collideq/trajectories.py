"""Monte Carlo quantum trajectories with two-point measurements on ancillas.

Each auxiliary unit is projectively measured in its energy basis at birth
(before any interaction) and again after its last interaction, the collision
with its successor. The outcome difference defines the stochastic heat
omega * (z_second - z_first) / 2 with z = +1 excited, -1 ground.

Every unit is born in an energy eigenstate and only meets unitaries and
projective measurements, so a pure start stays pure: whole ensembles
propagate as a batched stack of (S, M...) kets. A mixed initial system state
is unravelled into the eigenstates of rho0, each trajectory starting in one
of them with probability equal to its eigenvalue.

Per step, the sequence "collide the system with the memories, then for each
bath attach a fresh unit, intra-collide it with the outgoing memory, measure
the memory and discard it" is one linear map per joint outcome: the Kraus
pair A_o = <o|_M U_intra |birth>_F of every bath, applied after the
collision. The collision core stacks these maps over the joint outcomes, so
one batched matmul forms every branch of a ket without leaving the
system+memory dimension. The baths are then sampled in order, from the
same variate slots as one bath at a time: bath 0 from its marginal Born
weights, each later bath from its conditional given the earlier outcomes.
Each bath's weights are one contraction over the branches that share the
earlier outcomes, and the branch chosen last is kept. The births do not
depend on the state and are sampled for all steps up front. Every product
and sum is per trajectory, so a trajectory rounds the same at every batch
size.

Randomness is counter-based: trajectory k of an ensemble draws from a Philox
stream keyed by the first uint64 of numpy's SeedSequence(entropy=master_seed,
spawn_key=(k,)). numpy mixes the master seed; the index stage is ported to
uint32 arrays and runs for a whole chunk of indices at once, so an ensemble
holds at most 2**32 trajectories. Every variate has a fixed (step, bath,
purpose) slot in its trajectory's table, so adding diagnostics can never
shift the sample sequence. A batch draws the tables a sub-block of
trajectories at a time (a Philox stream is keyed per trajectory, so the
bits do not depend on the sub-block) and keeps only what the step reads:
the births, sampled as int8, the eigenstate draws, and the measurement
variates, step-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .engine import ModelConfig, _step_ops, _system_matrix
from .errors import InvalidParameter, NumericalPositivityError, _check_count, _is_integer
from .tensor import EXCITED, GROUND, DensityMatrix, QubitRegister

_CHUNK = 8192
# trajectories whose variate tables are drawn at once inside a batch; small
# enough that a 400-trajectory batch splits, with no time cost seen at 8192
_SUB_BLOCK = 64
_PROB_TOL = 1e-10

# variate-table purpose slots; row 0 has no measurement, so its slot 1
# draws the system's initial eigenstate
_SLOT_BIRTH = 0
_SLOT_MEASURE = 1
_SLOT_EIGEN = 1


# numpy's SeedSequence (M. E. O'Neill's seed_seq design): pool of four
# 32-bit words, hash constants and multipliers of its mixing and output stages
_POOL_SIZE = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a uint32 array; returns (hash, next constant)."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _trajectory_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``trajectory_seed(master_seed, k)`` for every k in [start, stop), as uint64.

    Needs stop <= 2**32, since each index is mixed in as one uint32 word.
    ``SeedSequence(master_seed).pool`` holds the mixed master; mixing it made
    ``_POOL_SIZE * max(_POOL_SIZE, n_words)`` hashmix calls, each of which
    multiplied the hash constant by ``_MULT_A``. The index word and the
    output stage then run over the whole index range at once.
    """
    master_seed = int(master_seed)
    n_words = (master_seed.bit_length() + 31) // 32
    n_calls = _POOL_SIZE * max(_POOL_SIZE, n_words)
    hash_const = _INIT_A * pow(_MULT_A, n_calls, 1 << 32) & _MASK32
    pool = np.random.SeedSequence(master_seed).pool[:, None]  # broadcast over the indices
    index = np.arange(start, stop, dtype=np.uint32)
    h0, hash_const = _hashmix(index, hash_const)
    h1, _ = _hashmix(index, hash_const)
    # the output stage reads pool words 0 and 1: a uint64 is the two, low word first
    low, out_const = _hashmix(_mix(pool[0], h0), _INIT_B, _MULT_B)
    high, _ = _hashmix(_mix(pool[1], h1), out_const, _MULT_B)
    return low.astype(np.uint64) | high.astype(np.uint64) << 32


def _check_nonnegative(name: str, value) -> None:
    if not (_is_integer(value) and value >= 0):
        raise InvalidParameter(f"{name} must be a non-negative integer (got {value!r})")


def trajectory_seed(master_seed: int, index: int) -> int:
    """Deterministic, order-independent per-trajectory seed, for any index.

    Member ``index`` of an ensemble with master seed ``master_seed`` draws
    from this seed; ensembles vectorise it with :func:`_trajectory_seeds`.
    """
    _check_nonnegative("master_seed", master_seed)
    _check_nonnegative("index", index)
    sequence = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return int(sequence.generate_state(1, np.uint64)[0])


def _uniform_tables(seeds, n_steps: int, n_baths: int) -> np.ndarray:
    """Fixed-layout variate tables, shape (B, n_steps+1, n_baths, 2).

    Row 0 holds the birth draws of the very first memories (slot 0) and, at
    bath 0, the draw of the system's initial eigenstate of rho0 (slot 1);
    row n >= 1 holds the birth draw of the unit attached during step n
    (slot 0) and the second-measurement draw of step n (slot 1). Unconsumed
    slots stay allocated so the layout never shifts. A batch calls this one
    sub-block of trajectories at a time and keeps only the slots its step
    reads, with the measurement slots stored step-major, (n_steps, n_baths, B).
    """
    out = np.empty((len(seeds), n_steps + 1, n_baths, 2))
    # one Philox re-keyed per trajectory: the same stream as a fresh
    # Generator(Philox(key=seed)), without building one per trajectory
    bits = np.random.Philox(key=0)
    gen, fresh = np.random.Generator(bits), bits.state  # zero counter, empty buffer
    key = fresh["state"]["key"]
    for i, seed in enumerate(seeds):
        key[1], key[0] = divmod(int(seed), 1 << 64)
        bits.state = fresh
        gen.random(out=out[i])
    return out


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One seeded run: TPM outcome pairs, stochastic heats, final state.

    ``outcomes[n, b]`` holds (first, second) basis indices (0 excited,
    1 ground) for the ancilla of bath b retired at step n; ``heats[n, b]``
    is the matching stochastic heat omega * (first - second).
    """

    seed: int
    outcomes: np.ndarray = field(repr=False)
    heats: np.ndarray = field(repr=False)
    final_system_state: DensityMatrix = field(repr=False)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-step ensemble means and standard errors over M trajectories."""

    n_trajectories: int
    mean_heat: np.ndarray
    std_error: np.ndarray
    mean_final_state: np.ndarray
    se_final_state: np.ndarray


def _check_probs(p: np.ndarray):
    # min and max propagate NaN, which fails both comparisons
    if not (p.min() >= -_PROB_TOL and p.max() <= 1.0 + _PROB_TOL):
        raise NumericalPositivityError(
            f"Born probabilities outside [0,1]: range [{p.min()}, {p.max()}]"
        )


def _sample(uniforms, p_exc) -> np.ndarray:
    """Outcome EXCITED where the variate falls below its probability, as int8."""
    return np.where(uniforms < p_exc, np.int8(EXCITED), np.int8(GROUND))


def _initial_kets(rho0_s: np.ndarray, births: np.ndarray, uniforms) -> np.ndarray:
    """Eigenstate of rho0 drawn with its eigenvalue as weight, times born memories."""
    w, v = np.linalg.eigh(rho0_s)
    cdf = np.cumsum(np.clip(w, 0.0, None))
    psi = v.T[np.searchsorted(cdf / cdf[-1], uniforms, side="right")]
    for born in births.T:
        psi = np.einsum("b...,bm->b...m", psi, np.eye(2)[born])
    return psi


def _run_batch(cfg: ModelConfig, rho0_s: np.ndarray, n_steps: int, seeds) -> Tuple:
    """Propagate a batch of trajectories; returns (outcomes, heats, finals)."""
    ops = _step_ops(cfg)
    b, nb = len(seeds), cfg.n_baths
    rows = np.arange(b)

    # the whole batch's table never exists, so a batch needs about one table
    # of memory, not two: a sub-block's births are sampled at once, and its
    # measurement variates are kept step-major
    births = np.empty((b, n_steps + 1, nb), dtype=np.int8)
    eigen = np.empty(b)
    measures = np.empty((n_steps, nb, b))
    for lo in range(0, b, _SUB_BLOCK):
        block = slice(lo, lo + _SUB_BLOCK)
        tables = _uniform_tables(seeds[block], n_steps, nb)
        births[block] = _sample(tables[..., _SLOT_BIRTH], ops.p_exc)
        eigen[block] = tables[:, 0, 0, _SLOT_EIGEN]
        measures[..., block] = tables[:, 1:, :, _SLOT_MEASURE].transpose(1, 2, 0)
    del tables
    psi = _initial_kets(rho0_s, births[:, 0], eigen).reshape(b, -1)
    outcomes = np.empty((b, n_steps, nb, 2), dtype=np.int8)
    outcomes[..., 0] = births[:, :-1]
    # birth combination of the units attached during each step, bath 0 most significant
    combos = births[:, 1:, 0]
    for k in range(1, nb):
        combos = 2 * combos + births[:, 1:, k]
    shared = ops.joint[combos[0, 0]] if (combos == combos[0, 0]).all() else None
    for n in range(n_steps):
        g = shared if shared is not None else ops.joint[combos[:, n]]
        # stacked: one (B, d) @ (d, P) product would round by batch size
        branches = np.matmul(g, psi[:, :, None])
        # bath k: the branches that share the earlier outcomes, (B, o_k, rest)
        norm = None
        for k in range(nb):
            branches = branches.reshape(b, 2, -1)
            x = branches.view(float)
            marginal = np.einsum("bor,bor->bo", x, x)
            # bath 0's marginal unnormalized, later baths' conditionals
            p = marginal if norm is None else marginal / norm[:, None]
            _check_probs(p)
            second = _sample(measures[n, k], p[:, EXCITED])
            outcomes[:, n, k, 1] = second
            branches, norm = branches[rows, second], marginal[rows, second]
        # divided as floats: dividing the complex array would promote the divisor
        psi = (branches.view(float) / np.sqrt(norm)[:, None]).view(complex)

    del measures
    # the int8 difference is exact; a float omega makes the heats float64
    # whatever omega's own type, an int would keep them int8
    heats = float(cfg.omega) * (outcomes[..., 0] - outcomes[..., 1])
    psi = psi.reshape(b, 2, -1)
    finals = np.einsum("bik,bjk->bij", psi, psi.conj())
    return outcomes, heats, finals


def run_trajectory(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int,
                   seed: int) -> TrajectoryRecord:
    """Single seeded trajectory; bit-identical to the same ensemble member."""
    _check_count("n_steps", n_steps)
    if not (_is_integer(seed) and 0 <= seed < 1 << 128):
        raise InvalidParameter(f"seed must be an integer in [0, 2**128) (got {seed!r})")
    outcomes, heats, finals = _run_batch(cfg, _system_matrix(rho0_s), n_steps, [seed])
    final = DensityMatrix(QubitRegister(["S"]), finals[0])
    return TrajectoryRecord(seed=int(seed), outcomes=outcomes[0], heats=heats[0],
                            final_system_state=final)


def ensemble_mean_heat(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int,
                       n_trajectories: int, master_seed: int) -> EnsembleStats:
    """Run M seeded trajectories and reduce to per-step heat statistics.

    Trajectory k uses ``trajectory_seed(master_seed, k)``, so any member can
    be reproduced in isolation with :func:`run_trajectory`. The reduction is
    associative over fixed-size chunks, keeping output independent of how
    the work is sliced.
    """
    _check_count("n_steps", n_steps)
    _check_count("n_trajectories", n_trajectories)
    if n_trajectories > 1 << 32:  # _trajectory_seeds takes each index as one uint32 word
        raise InvalidParameter(f"n_trajectories must be at most 2**32 (got {n_trajectories})")
    _check_nonnegative("master_seed", master_seed)
    rho0 = _system_matrix(rho0_s)
    nb = cfg.n_baths
    sum_h = np.zeros((n_steps, nb))
    sum_h2 = np.zeros((n_steps, nb))
    sum_fin = np.zeros((2, 2), dtype=complex)
    sum_fin_re2 = np.zeros((2, 2))
    sum_fin_im2 = np.zeros((2, 2))
    m = n_trajectories
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        seeds = _trajectory_seeds(master_seed, start, stop)
        _, heats, finals = _run_batch(cfg, rho0, n_steps, seeds)
        sum_h += heats.sum(axis=0)
        # the batch's own heats, already summed, are squared in place
        sum_h2 += np.multiply(heats, heats, out=heats).sum(axis=0)
        sum_fin += finals.sum(axis=0)
        sum_fin_re2 += (finals.real ** 2).sum(axis=0)
        sum_fin_im2 += (finals.imag ** 2).sum(axis=0)
    mean = sum_h / m
    mean_fin = sum_fin / m
    # at m = 1 each sum of squares equals m * mean**2 exactly, so the variances are 0
    dof = max(m - 1, 1)
    var = np.maximum(sum_h2 - m * mean * mean, 0.0) / dof
    var_fin = (np.maximum(sum_fin_re2 - m * mean_fin.real ** 2, 0.0)
               + np.maximum(sum_fin_im2 - m * mean_fin.imag ** 2, 0.0)) / dof
    return EnsembleStats(
        n_trajectories=m,
        mean_heat=mean,
        std_error=np.sqrt(var / m),
        mean_final_state=mean_fin,
        se_final_state=np.sqrt(var_fin / m),
    )
