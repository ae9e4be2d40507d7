"""Discretized BLP non-Markovianity measure over collision-model dynamics.

The measure accumulates positive increments of the trace distance between two
system states evolved under identical dynamics, maximized over antipodal pure
initial pairs on a Bloch-sphere grid. Because both branches share the same
memory initialization, their difference operator evolves linearly under the
one-step channel, so the whole grid is propagated as one block of vectorized
difference operators. Trace distances below 1e-14 are reported as zero: they
sit at the propagation noise floor, and flooring them makes the measure
exactly zero for divisible (Markovian) dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .engine import ModelConfig, _step_ops
from .errors import InvalidParameter

_DISTANCE_FLOOR = 1e-14
_CONVERGENCE_TOL = 1e-6
_MAX_DEFAULT_STEPS = 10 ** 6


def default_n_steps(cfg: ModelConfig) -> int:
    """Convergence horizon ceil(20/(gamma dt)), capped at 1e6 steps."""
    return min(int(math.ceil(20.0 / (cfg.gamma * cfg.dt))), _MAX_DEFAULT_STEPS)


@dataclass(frozen=True, eq=False)
class BlpResult:
    """Outcome of the grid-maximized BLP evaluation.

    ``value`` is the accumulated revival sum for the best pair, whose Bloch
    angles are ``argmax_pair``; ``series`` holds that pair's per-step trace
    distances starting from D_0 = 1. ``pair_values`` and
    ``max_increment_per_pair`` cover the full grid (theta-major order).
    ``converged`` is False when the final distance still exceeds 1e-6.
    """

    value: float
    argmax_pair: Tuple[float, float]
    series: np.ndarray
    converged: bool
    final_distance: float
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    pair_values: np.ndarray = field(repr=False)
    max_increment_per_pair: np.ndarray = field(repr=False)


def _bloch_grid(n_theta: int, n_phi: int) -> Tuple[np.ndarray, np.ndarray]:
    # antipodal pairs cover the sphere twice, so phi only needs half a turn
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    return thetas, phis


def _pair_difference(theta: float, phi: float) -> np.ndarray:
    """|psi><psi| - |perp><perp| for the antipodal pure pair at (theta, phi)."""
    psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    perp = np.array([math.sin(theta / 2), -np.exp(1j * phi) * math.cos(theta / 2)])
    return np.outer(psi, psi.conj()) - np.outer(perp, perp.conj())


def _distances(sys_block: np.ndarray) -> np.ndarray:
    """Trace distances from vectorized 2x2 traceless Hermitian differences."""
    a = sys_block[0].real
    b = sys_block[1]
    d = np.sqrt(a * a + np.abs(b) ** 2)
    d[d < _DISTANCE_FLOOR] = 0.0
    return d


def blp_measure(cfg: ModelConfig, n_steps: Optional[int] = None,
                grid: Tuple[int, int] = (32, 16)) -> BlpResult:
    """Maximize the revival sum over a Bloch grid of antipodal pure pairs.

    Memories are identically initialized in fresh bath states for both
    branches, so revivals reflect system information backflow only; at
    delta = 0 the value is exactly zero.

    Parameters
    ----------
    cfg : model parameters; both settings supported.
    n_steps : horizon; defaults to ceil(20/(gamma dt)) capped at 1e6. The
        result is flagged unconverged when the final trace distance of the
        best pair exceeds 1e-6.
    grid : (n_theta, n_phi) resolution, at least (8, 8).
    """
    n_theta, n_phi = grid
    if n_theta < 8 or n_phi < 8:
        raise InvalidParameter("grid must be at least (8, 8)")
    if n_steps is None:
        n_steps = default_n_steps(cfg)
    if n_steps < 1:
        raise InvalidParameter("n_steps must be at least 1")

    core = _step_ops(cfg)
    superop = core.superop
    mem = core.fresh_state
    proj = core.system_rows

    thetas, phis = _bloch_grid(n_theta, n_phi)
    cols = []
    for th in thetas:
        for ph in phis:
            cols.append(np.kron(_pair_difference(th, ph), mem).reshape(-1))
    block = np.array(cols).T  # (d^2, n_pairs)
    n_pairs = block.shape[1]

    values = np.zeros(n_pairs)
    max_inc = np.full(n_pairs, -np.inf)
    d_prev = np.ones(n_pairs)
    for _ in range(n_steps):
        block = superop @ block
        d_cur = _distances(proj @ block)
        inc = d_cur - d_prev
        np.maximum(max_inc, inc, out=max_inc)
        values += np.where(inc > 0.0, inc, 0.0)
        d_prev = d_cur

    best = int(np.argmax(values))  # first occurrence = lexicographic (theta, phi)
    theta_opt = float(thetas[best // n_phi])
    phi_opt = float(phis[best % n_phi])

    # second pass records the optimal pair's distance series
    col = np.kron(_pair_difference(theta_opt, phi_opt), mem).reshape(-1)
    series = np.empty(n_steps + 1)
    series[0] = 1.0
    for n in range(1, n_steps + 1):
        col = superop @ col
        series[n] = _distances((proj @ col).reshape(4, 1))[0]

    final_distance = float(d_prev[best])
    return BlpResult(
        value=float(values[best]),
        argmax_pair=(theta_opt, phi_opt),
        series=series,
        converged=final_distance < _CONVERGENCE_TOL,
        final_distance=final_distance,
        thetas=thetas,
        phis=phis,
        pair_values=values,
        max_increment_per_pair=max_inc,
    )


def recompute_value_from_series(series: np.ndarray) -> float:
    """Revival sum from a stored distance series (consistency helper)."""
    inc = np.diff(series)
    return float(inc[inc > 0.0].sum())
