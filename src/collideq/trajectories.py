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
depend on the state and are drawn for all steps up front. Every product
and sum is per trajectory, so a trajectory rounds the same at every batch
size.

Randomness is counter-based: trajectory k of an ensemble draws from a Philox
stream keyed by a seed derived from (master_seed, k), and every variate has a
fixed (step, bath, purpose) slot in a pregenerated table, so adding
diagnostics can never shift the sample sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .engine import ModelConfig, _step_ops
from .errors import InvalidParameter, NumericalPositivityError
from .tensor import EXCITED, GROUND, DensityMatrix, QubitRegister

_CHUNK = 8192
_PROB_TOL = 1e-10

# variate-table purpose slots; row 0 has no measurement, so its slot 1
# draws the system's initial eigenstate
_SLOT_BIRTH = 0
_SLOT_MEASURE = 1
_SLOT_EIGEN = 1


def trajectory_seed(master_seed: int, index: int) -> int:
    """Deterministic, order-independent per-trajectory seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _uniform_tables(seeds, n_steps: int, n_baths: int) -> np.ndarray:
    """Fixed-layout variate tables, shape (B, n_steps+1, n_baths, 2).

    Row 0 holds the birth draws of the very first memories (slot 0) and, at
    bath 0, the draw of the system's initial eigenstate of rho0 (slot 1);
    row n >= 1 holds the birth draw of the unit attached during step n
    (slot 0) and the second-measurement draw of step n (slot 1). Unconsumed
    slots stay allocated so the layout never shifts.
    """
    out = np.empty((len(seeds), n_steps + 1, n_baths, 2))
    # one Philox re-keyed per trajectory: the same stream as a fresh
    # Generator(Philox(key=seed)), without building one per trajectory
    bits = np.random.Philox(key=0)
    gen, fresh = np.random.Generator(bits), bits.state  # zero counter, empty buffer
    for i, seed in enumerate(seeds):
        fresh["state"]["key"] = np.array(divmod(int(seed), 1 << 64)[::-1], np.uint64)
        bits.state = fresh
        out[i] = gen.random((n_steps + 1, n_baths, 2))
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
    """Outcome EXCITED where the variate falls below its probability."""
    return np.where(uniforms < p_exc, EXCITED, GROUND).astype(np.int8)


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
    tables = _uniform_tables(seeds, n_steps, nb)
    rows = np.arange(b)

    births = _sample(tables[..., _SLOT_BIRTH], ops.p_exc)
    psi = _initial_kets(rho0_s, births[:, 0], tables[:, 0, 0, _SLOT_EIGEN]).reshape(b, -1)
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
            second = _sample(tables[:, n + 1, k, _SLOT_MEASURE], p[:, EXCITED])
            outcomes[:, n, k, 1] = second
            branches, norm = branches[rows, second], marginal[rows, second]
        # divided as floats: dividing the complex array would promote the divisor
        psi = (branches.view(float) / np.sqrt(norm)[:, None]).view(complex)

    heats = cfg.omega * (outcomes[..., 0].astype(float) - outcomes[..., 1])
    psi = psi.reshape(b, 2, -1)
    finals = np.einsum("bik,bjk->bij", psi, psi.conj())
    return outcomes, heats, finals


def run_trajectory(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int,
                   seed: int) -> TrajectoryRecord:
    """Single seeded trajectory; bit-identical to the same ensemble member."""
    if n_steps < 1:
        raise InvalidParameter("n_steps must be at least 1")
    if not 0 <= seed < 1 << 128:
        raise InvalidParameter(f"seed must lie in [0, 2**128) (got {seed})")
    outcomes, heats, finals = _run_batch(cfg, rho0_s.mat, n_steps, [seed])
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
    if n_steps < 1:
        raise InvalidParameter("n_steps must be at least 1")
    if n_trajectories < 1:
        raise InvalidParameter("n_trajectories must be at least 1")
    nb = cfg.n_baths
    sum_h = np.zeros((n_steps, nb))
    sum_h2 = np.zeros((n_steps, nb))
    sum_fin = np.zeros((2, 2), dtype=complex)
    sum_fin_re2 = np.zeros((2, 2))
    sum_fin_im2 = np.zeros((2, 2))
    m = n_trajectories
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        seeds = [trajectory_seed(master_seed, k) for k in range(start, stop)]
        _, heats, finals = _run_batch(cfg, rho0_s.mat, n_steps, seeds)
        sum_h += heats.sum(axis=0)
        sum_h2 += (heats * heats).sum(axis=0)
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
