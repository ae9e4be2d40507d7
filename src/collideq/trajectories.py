"""Monte Carlo quantum trajectories with two-point measurements on ancillas.

Each auxiliary unit is projectively measured in its energy basis at birth
(before any interaction) and again after its last interaction, the collision
with its successor. The outcome difference defines the stochastic heat
omega * (z_second - z_first) / 2 with z = +1 excited, -1 ground. Conditional
states are kept as density matrices so mixed initial systems and setting I's
thermal ancillas are handled uniformly, and whole ensembles propagate as a
batched stack.

Per step and bath, the sequence "attach a fresh unit, intra-collide it with
the outgoing memory, measure the memory, discard it" is applied as a
two-outcome Kraus pair A_o = <o|_M U_intra |fresh>_F acting on the memory
slot, which is algebraically identical to forming the enlarged window but
never leaves the system+memory dimension.

Randomness is counter-based: trajectory k of an ensemble draws from a Philox
stream keyed by a seed derived from (master_seed, k), and every variate has a
fixed (step, bath, purpose) slot in a pregenerated table, so adding
diagnostics can never shift the sample sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .engine import SETTING_I, ModelConfig, _collision_unitary, _memory_labels, intra_bath_unitary
from .errors import InvalidParameter, NumericalPositivityError
from .tensor import (
    EXCITED,
    GROUND,
    DensityMatrix,
    QubitRegister,
    embed,
    kron_all,
    projector,
)

_CHUNK = 8192
_PROB_TOL = 1e-10

# variate-table purpose slots
_SLOT_BIRTH = 0
_SLOT_MEASURE = 1


def trajectory_seed(master_seed: int, index: int) -> int:
    """Deterministic, order-independent per-trajectory seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _uniform_tables(seeds, n_steps: int, n_baths: int) -> np.ndarray:
    """Fixed-layout variate tables, shape (B, n_steps+1, n_baths, 2).

    Row 0 holds the birth draws of the very first memories; row n >= 1 holds
    the birth draw of the unit attached during step n (slot 0) and the
    second-measurement draw of step n (slot 1). Slots a setting does not
    consume stay allocated so the layout never shifts.
    """
    out = np.empty((len(seeds), n_steps + 1, n_baths, 2))
    for i, seed in enumerate(seeds):
        gen = np.random.Generator(np.random.Philox(key=int(seed)))
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


class _TrajOps:
    """Precomputed collision unitary and measurement Kraus pairs."""

    def __init__(self, cfg: ModelConfig):
        intra4 = intra_bath_unitary(
            cfg.delta, ("M", "F"), QubitRegister(["M", "F"])
        ).mat.reshape(2, 2, 2, 2)  # (M_out, F_out, M_in, F_in)

        def kraus_pair(fresh_index: int, slot_label: str, reg: QubitRegister) -> List[np.ndarray]:
            return [embed(intra4[o, :, :, fresh_index], [slot_label], reg) for o in (0, 1)]

        mem = _memory_labels(cfg)
        reg = self.window_register = QubitRegister(["S"] + mem)
        self.u_coll = _collision_unitary(cfg, reg, mem)
        if cfg.setting == SETTING_I:
            # first index: birth eigenstate of the fresh unit
            self.kraus_by_birth = [kraus_pair(f, "M", reg) for f in (EXCITED, GROUND)]
            self.p_exc_birth = float(cfg.bath_state(0)[0, 0].real)
        else:
            self.kraus_bath = (
                kraus_pair(GROUND, "M0", reg),   # cold bath units are born ground
                kraus_pair(EXCITED, "M1", reg),  # hot bath units are born excited
            )


def _conj(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.matmul(np.matmul(u, rho), u.conj().T)


def _check_probs(p: np.ndarray):
    if p.min() < -_PROB_TOL or p.max() > 1.0 + _PROB_TOL:
        raise NumericalPositivityError(
            f"Born probabilities outside [0,1]: range [{p.min()}, {p.max()}]"
        )


def _select_and_collapse(cand_exc, cand_gnd, uniforms):
    p_exc = np.einsum("bii->b", cand_exc).real
    p_gnd = np.einsum("bii->b", cand_gnd).real
    _check_probs(p_exc)
    _check_probs(p_gnd)
    outcome = np.where(uniforms < p_exc, EXCITED, GROUND).astype(np.int8)
    pick = (outcome == EXCITED)
    chosen = np.where(pick, p_exc, p_gnd)
    rho = np.where(pick[:, None, None], cand_exc, cand_gnd) / chosen[:, None, None]
    return rho, outcome


def _measure_subchain(rho, kraus_pair, uniforms):
    """Fresh unit in a fixed eigenstate: one Kraus pair for everyone."""
    return _select_and_collapse(
        _conj(kraus_pair[EXCITED], rho), _conj(kraus_pair[GROUND], rho), uniforms
    )


def _measure_subchain_sampled(rho, kraus_by_birth, births, uniforms):
    """Fresh units in per-trajectory eigenstates (setting I thermal births)."""
    born_exc = (births == EXCITED)[:, None, None]
    cand = {
        o: np.where(
            born_exc,
            _conj(kraus_by_birth[EXCITED][o], rho),
            _conj(kraus_by_birth[GROUND][o], rho),
        )
        for o in (EXCITED, GROUND)
    }
    return _select_and_collapse(cand[EXCITED], cand[GROUND], uniforms)


def _sample_births(uniforms, p_exc: float) -> np.ndarray:
    return np.where(uniforms < p_exc, EXCITED, GROUND).astype(np.int8)


def _run_batch(cfg: ModelConfig, rho0_s: np.ndarray, n_steps: int, seeds) -> Tuple:
    """Propagate a batch of trajectories; returns (outcomes, heats, finals)."""
    ops = _TrajOps(cfg)
    b = len(seeds)
    nb = cfg.n_baths
    omega = cfg.omega
    tables = _uniform_tables(seeds, n_steps, nb)

    outcomes = np.empty((b, n_steps, nb, 2), dtype=np.int8)
    heats = np.empty((b, n_steps, nb))

    if cfg.setting == SETTING_I:
        births = _sample_births(tables[:, 0, 0, _SLOT_BIRTH], ops.p_exc_birth)
        init_exc = np.kron(rho0_s, projector(EXCITED))
        init_gnd = np.kron(rho0_s, projector(GROUND))
        rho = np.where((births == EXCITED)[:, None, None], init_exc[None], init_gnd[None])
        first_outcome = births
        for n in range(n_steps):
            rho = _conj(ops.u_coll, rho)
            births = _sample_births(tables[:, n + 1, 0, _SLOT_BIRTH], ops.p_exc_birth)
            rho, second = _measure_subchain_sampled(
                rho, ops.kraus_by_birth, births, tables[:, n + 1, 0, _SLOT_MEASURE]
            )
            outcomes[:, n, 0, 0] = first_outcome
            outcomes[:, n, 0, 1] = second
            heats[:, n, 0] = omega * (first_outcome.astype(float) - second)
            first_outcome = births
    else:
        init = kron_all(rho0_s, projector(GROUND), projector(EXCITED))
        rho = np.broadcast_to(init, (b, 8, 8)).copy()
        for n in range(n_steps):
            rho = _conj(ops.u_coll, rho)
            rho, second0 = _measure_subchain(
                rho, ops.kraus_bath[0], tables[:, n + 1, 0, _SLOT_MEASURE]
            )
            rho, second1 = _measure_subchain(
                rho, ops.kraus_bath[1], tables[:, n + 1, 1, _SLOT_MEASURE]
            )
            outcomes[:, n, 0, 0] = GROUND
            outcomes[:, n, 0, 1] = second0
            outcomes[:, n, 1, 0] = EXCITED
            outcomes[:, n, 1, 1] = second1
            heats[:, n, 0] = omega * (float(GROUND) - second0)
            heats[:, n, 1] = omega * (float(EXCITED) - second1)

    w = ops.window_register.dim // 2
    finals = np.einsum("bikjk->bij", rho.reshape(b, 2, w, 2, w))
    return outcomes, heats, finals


def run_trajectory(cfg: ModelConfig, rho0_s: DensityMatrix, n_steps: int,
                   seed: int) -> TrajectoryRecord:
    """Single seeded trajectory; bit-identical to the same ensemble member."""
    if n_steps < 1:
        raise InvalidParameter("n_steps must be at least 1")
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
    if m > 1:
        var = np.maximum(sum_h2 - m * mean * mean, 0.0) / (m - 1)
    else:
        var = np.zeros_like(mean)
    se = np.sqrt(var / m)
    mean_fin = sum_fin / m
    if m > 1:
        var_fin = (np.maximum(sum_fin_re2 - m * mean_fin.real ** 2, 0.0)
                   + np.maximum(sum_fin_im2 - m * mean_fin.imag ** 2, 0.0)) / (m - 1)
    else:
        var_fin = np.zeros((2, 2))
    return EnsembleStats(
        n_trajectories=m,
        mean_heat=mean,
        std_error=se,
        mean_final_state=mean_fin,
        se_final_state=np.sqrt(var_fin / m),
    )
