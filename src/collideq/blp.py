"""Discretized BLP non-Markovianity measure over collision-model dynamics.

The measure accumulates positive increments of the trace distance between two
system states evolved under identical dynamics, maximized over antipodal pure
initial pairs on a Bloch-sphere grid. Because both branches share the same
memory initialization, their difference operator evolves linearly under the
one-step channel, so the grid's vectorized difference operators are
propagated together, one column per pair. The step is exactly
block-diagonal (the connected blocks of its nonzero pattern), and a trace
distance reads only the system entries 00 and 01, so only the blocks that
hold their compound terms are propagated, each by its own product, and
each entry is the plain sum of its terms. The other blocks never reach the
readout. The steps run in chunks of ``_CHUNK_STEPS``: each step's products
go into a buffer that holds the chunk, and the chunk is read out at once,
one row per step. The readout is elementwise, and the revival sums take a
chunk's gains in one reduce over the step axis, which adds them row after
row, in step order, so every bit is what a readout after each step gives.
The best pair's ``series`` is a second pass over that pair alone, run when
the series is first read. Trace distances below 1e-14, the propagation noise
floor, are reported as zero; divisible (delta = 0) dynamics give values at
that floor: zero, or ~1e-14 where a distance straddles it from step to step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .engine import ModelConfig, _step_ops
from .errors import InvalidParameter, _check_count, _is_integer
from .tensor import connected_blocks

_DISTANCE_FLOOR = 1e-14
_CONVERGENCE_TOL = 1e-6
_MAX_DEFAULT_STEPS = 10 ** 6
_CHUNK_STEPS = 12  # steps propagated between two readouts


def default_n_steps(cfg: ModelConfig) -> int:
    """Convergence horizon ceil(20/(gamma dt)), capped at 1e6 steps."""
    return min(int(math.ceil(20.0 / (cfg.gamma * cfg.dt))), _MAX_DEFAULT_STEPS)


@dataclass(frozen=True, eq=False)
class BlpResult:
    """Outcome of the grid-maximized BLP evaluation.

    ``value`` is the accumulated revival sum for the best pair, whose Bloch
    angles are ``argmax_pair``; ``series`` holds that pair's per-step trace
    distances starting from D_0 = 1, from a second pass that propagates
    the best pair alone. That pass runs the first time ``series`` is read,
    and the array is kept for later reads; ``series`` is not a dataclass
    field, so ``dataclasses.fields`` and ``asdict`` do not list it. The pass
    rounds apart from the grid pass behind ``value``, so the two agree to
    about 1e-14, not bit for bit. ``pair_values`` and
    ``max_increment_per_pair`` cover the full grid (theta-major order).
    ``converged`` is False when the final distance still exceeds 1e-6.
    """

    value: float
    argmax_pair: Tuple[float, float]
    converged: bool
    final_distance: float
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    pair_values: np.ndarray = field(repr=False)
    max_increment_per_pair: np.ndarray = field(repr=False)
    _series_pass: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def series(self) -> np.ndarray:
        return self._series_pass()


def _bloch_grid(n_theta: int, n_phi: int) -> Tuple[np.ndarray, np.ndarray]:
    # antipodal pairs cover the sphere twice, so phi only needs half a turn
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    return thetas, phis


def _pair_differences(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """|psi><psi| - |perp><perp| of every antipodal pure pair, theta-major.

    ``psi = (cos(theta/2), e^{i phi} sin(theta/2))`` and ``perp`` its
    orthogonal partner; the grid is one broadcast, shape ``(pairs, 2, 2)``.
    """
    cos = np.array([math.cos(t / 2) for t in thetas])[:, None]
    sin = np.array([math.sin(t / 2) for t in thetas])[:, None]
    phase = np.exp(1j * phis)
    psi = np.stack(np.broadcast_arrays(cos, phase * sin), axis=-1)
    perp = np.stack(np.broadcast_arrays(sin, -phase * cos), axis=-1)
    diff = (psi[..., :, None] * psi.conj()[..., None, :]
            - perp[..., :, None] * perp.conj()[..., None, :])
    return diff.reshape(-1, 2, 2)


def _readout_blocks(core):
    """The part of the step that the system entries 00 and 01 see.

    Returns ``(rows, steps, terms)``. ``rows`` are the compound indices of
    the connected blocks of ``superop != 0`` that hold a term of either
    entry, block after block; ``steps`` pairs each block's slice of
    ``rows`` with its square of ``superop``; ``terms[e]`` are the positions
    in ``rows`` of entry ``e``'s terms, in ascending compound order, so
    summing them adds what the 0/1 readout row adds, in its order.
    """
    read = [np.flatnonzero(row) for row in core.system_rows[:2]]
    blocks = [b for b in connected_blocks(core.superop != 0)
              if any(np.isin(r, b).any() for r in read)]
    rows = np.concatenate(blocks)
    stops = np.cumsum([len(b) for b in blocks])
    steps = [(slice(int(stop) - len(b), int(stop)), core.superop[np.ix_(b, b)])
             for b, stop in zip(blocks, stops)]
    order = rows.tolist()
    return rows, steps, [[order.index(i) for i in r] for r in read]


def _distance_series(steps, terms, cols: np.ndarray, n_steps: int) -> Iterator[np.ndarray]:
    """Trace distances of the columns after each of ``n_steps`` steps, in chunks.

    ``cols`` holds the read blocks' entries of vectorized difference
    operators, one column per pair; each block is stepped by its own product,
    one step at a time, into a buffer of ``_CHUNK_STEPS + 1`` states. Each
    chunk is then read at once and yielded as a new ``(k, pairs)`` array, one
    row per step, ``k <= _CHUNK_STEPS``. The readout is elementwise, so its
    bits do not depend on the chunk. ``cols`` itself is left as it is.
    """
    buf = np.empty((_CHUNK_STEPS + 1, *cols.shape), dtype=cols.dtype)
    buf[0] = cols
    # (block, source, destination) of each product of a full chunk, in order
    products = [(block, buf[t, sl], buf[t + 1, sl])
                for t in range(_CHUNK_STEPS) for sl, block in steps]
    (first00, *rest00), (first01, *rest01) = terms
    for start in range(0, n_steps, _CHUNK_STEPS):
        k = min(_CHUNK_STEPS, n_steps - start)
        for block, src, dst in products[:k * len(steps)]:
            np.matmul(block, src, out=dst)
        chunk = buf[1:k + 1]
        # the 0/1 readout row adds its terms in this order; a complex sum's
        # real part is the sum of the real parts, bit for bit
        a = chunk[:, first00].real.copy()
        for i in rest00:
            a += chunk[:, i].real
        b = chunk[:, first01].copy()
        for i in rest01:
            b += chunk[:, i]
        yield _distances(a, b)
        buf[0] = buf[k]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distances of 2x2 traceless Hermitian differences [[a, b], [b*, -a]].

    ``a`` is overwritten. The sum a*a + |b|^2 is formed in place as
    |b|^2 + a*a, which rounds alike since one addition commutes.
    """
    d = np.abs(b)
    d *= d
    a *= a
    d += a
    np.sqrt(d, out=d)
    d[d < _DISTANCE_FLOOR] = 0.0
    return d


def _series(steps, terms, col: np.ndarray, n_steps: int) -> np.ndarray:
    """D_0 = 1, then the trace distance of the single column after each step."""
    chunks = _distance_series(steps, terms, col, n_steps)
    return np.concatenate([np.ones(1), *(d[:, 0] for d in chunks)])


def blp_measure(cfg: ModelConfig, n_steps: Optional[int] = None,
                grid: Tuple[int, int] = (32, 16)) -> BlpResult:
    """Maximize the revival sum over a Bloch grid of antipodal pure pairs.

    Memories are identically initialized in fresh bath states for both
    branches, so revivals reflect system information backflow only; at
    delta = 0 the value sits at the 1e-14 distance floor (zero or ~1e-14).

    Parameters
    ----------
    cfg : model parameters; both settings supported.
    n_steps : horizon, an integer; defaults to ceil(20/(gamma dt)) capped at
        1e6. The result is flagged unconverged when the final trace distance
        of the best pair exceeds 1e-6.
    grid : (n_theta, n_phi) resolution, two integers, at least (8, 8).
    """
    if not (isinstance(grid, (tuple, list)) and len(grid) == 2 and all(map(_is_integer, grid))):
        raise InvalidParameter(f"grid must be two integers (n_theta, n_phi), got {grid!r}")
    n_theta, n_phi = grid
    if n_theta < 8 or n_phi < 8:
        raise InvalidParameter("grid must be at least (8, 8)")
    if n_steps is None:
        n_steps = default_n_steps(cfg)
    _check_count("n_steps", n_steps)

    core = _step_ops(cfg)
    rows, steps, terms = _readout_blocks(core)

    thetas, phis = _bloch_grid(n_theta, n_phi)
    n_pairs = n_theta * n_phi
    cols = core.attach(_pair_differences(thetas, phis)).reshape(n_pairs, -1).T[rows]

    # row 0 carries the last distance read and the revival sums; rows 1..k
    # take a chunk's distances and its gains max(d_k - d_{k-1}, 0)
    dist = np.empty((_CHUNK_STEPS + 1, n_pairs))
    gains = np.empty_like(dist)
    dist[0] = 1.0
    gains[0] = 0.0
    max_inc = np.full(n_pairs, -np.inf)
    for d in _distance_series(steps, terms, cols, n_steps):
        k = len(d)
        dist[1:k + 1] = d
        inc = np.subtract(dist[1:k + 1], dist[:k], out=gains[1:k + 1])
        np.maximum(max_inc, inc.max(axis=0), out=max_inc)
        np.fmax(inc, 0.0, out=inc)  # like where(inc > 0, inc, 0): a NaN gains 0
        # a reduce over the outer axis adds row after row: one addition per
        # step, in step order, as a running sum does
        np.add.reduce(gains[:k + 1], axis=0, out=gains[0])
        dist[0] = dist[k]
    values = gains[0].copy()

    best = int(np.argmax(values))  # first occurrence = lexicographic (theta, phi)
    theta_opt = float(thetas[best // n_phi])
    phi_opt = float(phis[best % n_phi])

    final_distance = float(dist[0, best])
    return BlpResult(
        value=float(values[best]),
        argmax_pair=(theta_opt, phi_opt),
        converged=final_distance < _CONVERGENCE_TOL,
        final_distance=final_distance,
        thetas=thetas,
        phis=phis,
        pair_values=values,
        max_increment_per_pair=max_inc,
        # the best pair alone, on first read; it rounds apart from its column
        # of the grid pass, so it matches that pass to ~1e-14, not bit for bit
        _series_pass=partial(_series, steps, terms, cols[:, [best]], n_steps),
    )
