"""Dense complex linear algebra over labeled multi-qubit registers.

Conventions used throughout the package:

* Basis index 0 of every qubit is the excited state (the +1 eigenvector of
  sigma_z), index 1 is the ground state, so single-qubit energies are
  ``(omega/2) * sigma_z`` with ``sigma_z = diag(1, -1)``.
* Tensor-factor order is fixed by the register: the leftmost label is the
  most significant index bit of the flattened matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, InvalidSubsystem, NotHermitian, NumericalPositivityError

ENTRY_TOL = 1e-12      # entrywise comparisons
STRUCT_TOL = 1e-10     # structural invariants (unitarity, trace, positivity)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Two-qubit SWAP in the fixed product basis.
SWAP_2 = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)

EXCITED = 0
GROUND = 1


def projector(index: int) -> np.ndarray:
    """Single-qubit basis projector |index><index|."""
    p = np.zeros((2, 2), dtype=complex)
    p[index, index] = 1.0
    return p


def _as_matrix(op) -> np.ndarray:
    mat = op.mat if hasattr(op, "mat") else np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat


@dataclass(frozen=True)
class QubitRegister:
    """Ordered collection of unique qubit labels; leftmost = most significant."""

    labels: Tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(labels))
        if len(set(self.labels)) != len(self.labels):
            raise InvalidSubsystem(f"duplicate labels in register {self.labels}")
        if not self.labels:
            raise InvalidSubsystem("register needs at least one label")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def positions(self, labels: Iterable[str]) -> Tuple[int, ...]:
        """Positions of the given labels, validating membership and uniqueness."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidSubsystem(f"repeated labels in {labels}")
        try:
            return tuple(self.labels.index(l) for l in labels)
        except ValueError:
            unknown = [l for l in labels if l not in self.labels]
            raise InvalidSubsystem(f"labels {unknown} not in register {self.labels}") from None


def _check_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    """``mat`` itself if finite and Hermitian to 1e-12, else ``NotHermitian``."""
    if not np.isfinite(mat).all():  # NaN passes the tolerance, and inf - inf warns
        raise NotHermitian(f"{what} has non-finite (NaN or inf) entries")
    if np.abs(mat - mat.conj().T).max() > ENTRY_TOL:
        raise NotHermitian(f"{what} is not Hermitian to 1e-12")
    return mat


def _check_register_matrix(register: QubitRegister, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (register.dim, register.dim):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match register dimension {register.dim}"
        )
    if not np.isfinite(mat).all():  # NaN passes every tolerance comparison
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    return mat


def _check_density_stack(mats: np.ndarray) -> None:
    """Check every matrix of a ``(k, d, d)`` stack is a density matrix.

    Finite, then Hermitian, unit trace and no eigenvalue below zero to 1e-10.
    The first matrix of the stack that fails raises the error of its first
    failing check: ``NotHermitian``, else ``NumericalPositivityError``. This
    is the one place that picks the error of a failing state, so a computed
    state (a steady state, its marginal, an evolved system state) fails with
    the typed error that flags a grid cell.
    """
    nonfinite = ~np.isfinite(mats).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > STRUCT_TOL
        tr = np.trace(mats, axis1=-2, axis2=-1)
        unit = np.abs(tr - 1.0) > STRUCT_TOL
        lam_min = np.linalg.eigvalsh(mats).min(axis=-1)
    neg = lam_min < -STRUCT_TOL
    bad = np.flatnonzero(nonfinite | herm | unit | neg)
    if not bad.size:
        return
    k = bad[0]
    if nonfinite[k]:
        raise NumericalPositivityError("density matrix has non-finite (NaN or inf) entries")
    if herm[k]:
        raise NotHermitian("density matrix is not Hermitian to 1e-10")
    if unit[k]:
        raise NumericalPositivityError(f"density matrix trace {tr[k]} differs from 1 beyond 1e-10")
    raise NumericalPositivityError(
        f"density matrix has an eigenvalue below -1e-10 (minimum {lam_min[k]:.3e})")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace, Hermitian, positive-semidefinite state over a register."""

    register: QubitRegister
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = _check_register_matrix(self.register, self.mat)
        object.__setattr__(self, "mat", mat)
        _check_density_stack(mat[None])


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """Hermitian operator over a register (tolerance 1e-12)."""

    register: QubitRegister
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = _check_register_matrix(self.register, self.mat)
        object.__setattr__(self, "mat", _check_hermitian(mat, "operator"))


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Unitary operator over a register (tolerance 1e-10)."""

    register: QubitRegister
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = _check_register_matrix(self.register, self.mat)
        object.__setattr__(self, "mat", mat)
        dev = np.abs(mat @ mat.conj().T - np.eye(self.register.dim)).max()
        if dev > STRUCT_TOL:
            raise ValueError(f"operator fails unitarity by {dev:.2e} (> 1e-10)")


def kron(*ops: np.ndarray) -> np.ndarray:
    """Complex Kronecker product of one or more factors, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _ptrace_raw(mat: np.ndarray, n_qubits: int, keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a 2^n x 2^n matrix keeping the qubits at ``keep``."""
    traced = [q for q in range(n_qubits) if q not in keep]
    t = mat.reshape((2,) * (2 * n_qubits))
    for offset, q in enumerate(traced):
        ax = q - offset  # axes shift left as earlier ones are consumed
        t = np.trace(t, axis1=ax, axis2=ax + n_qubits - offset)
    return t.reshape((2 ** len(keep),) * 2)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep``.

    The result register preserves the original label order. Trace and
    Hermiticity are preserved exactly up to rounding.
    """
    keep = tuple(keep)
    if not keep:
        raise InvalidSubsystem("keep must name at least one subsystem")
    positions = rho.register.positions(keep)
    sub = QubitRegister(l for l in rho.register.labels if l in keep)
    red = _ptrace_raw(rho.mat, rho.register.n_qubits, positions)
    return DensityMatrix(sub, red)


def _ptranspose_raw(mat: np.ndarray, n_qubits: int, part: Sequence[int]) -> np.ndarray:
    t = mat.reshape([2] * (2 * n_qubits))
    axes = list(range(2 * n_qubits))
    for p in part:
        axes[p], axes[p + n_qubits] = axes[p + n_qubits], axes[p]
    d = 2 ** n_qubits
    return t.transpose(axes).reshape(d, d)


def partial_transpose(rho: DensityMatrix, part: Iterable[str]) -> np.ndarray:
    """Transpose the indices of ``part`` only; Hermiticity and trace survive."""
    part = tuple(part)
    if not part or len(part) >= rho.register.n_qubits:
        raise InvalidSubsystem("part must be a nonempty proper subset of the register")
    positions = rho.register.positions(part)
    return _ptranspose_raw(rho.mat, rho.register.n_qubits, positions)


def eig_hermitian(h) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns eigenvalues in ascending order and the matrix of eigenvectors
    as columns, so that ``h = V diag(w) V^dagger``. Within degenerate
    eigenspaces any orthonormal basis may be returned. ``NotHermitian``
    unless ``h`` is finite and Hermitian to 1e-12.
    """
    return np.linalg.eigh(_check_hermitian(_as_matrix(h), "eig_hermitian input"))


def connected_blocks(pattern: np.ndarray) -> List[np.ndarray]:
    """Index sets of the connected components of a square boolean ``pattern``.

    Indices i and j are linked when ``pattern[i, j]`` or ``pattern[j, i]``.
    Each index takes the smallest label among its neighbours, then its
    label's label, until nothing changes; the labels left are the
    components' smallest indices. Blocks come in that order, each ascending
    and read-only: the partitions of the last few patterns are kept, keyed
    by the pattern's raw bytes, and a pattern seen again reuses its partition.
    """
    pattern = np.asarray(pattern, dtype=bool)
    return list(_components(pattern.shape, pattern.tobytes()))


@functools.lru_cache(maxsize=16)
def _components(shape: Tuple[int, ...], raw: bytes) -> Tuple[np.ndarray, ...]:
    pattern = np.frombuffer(raw, dtype=bool).reshape(shape)
    n = len(pattern)
    linked = pattern | pattern.T | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:
        nearest = np.where(linked, labels, n).min(axis=1)
        nearest = nearest[nearest]
        if np.array_equal(nearest, labels):
            break
        labels = nearest
    blocks = tuple(np.flatnonzero(labels == root)
                   for root in np.flatnonzero(labels == np.arange(n)))
    for block in blocks:
        block.setflags(write=False)
    return blocks


def expm_i_hermitian(h, t: float):
    """exp(-i h t) for Hermitian h, one eigendecomposition per decoupled block.

    Each connected component of ``h != 0`` is exponentiated by its own
    ``eigh``, and every entry between components is exactly 0. (A single
    ``eigh`` may mix degenerate eigenvectors across blocks, which leaves
    rounding noise where the exponential is exactly 0.)

    ``h`` is a :class:`HermitianOp` or a raw matrix; the result is a matrix.
    """
    mat = _as_matrix(h)
    u = np.zeros(mat.shape, dtype=complex)
    # every nonzero entry and its transpose share a block, so checking each
    # block for Hermiticity checks all of h
    for block in connected_blocks(mat != 0):
        sub = np.ix_(block, block)
        w, v = eig_hermitian(mat[sub])
        u[sub] = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u


def _embed_raw(op: np.ndarray, positions: Sequence[int], n_qubits: int) -> np.ndarray:
    k = len(positions)
    rest = [q for q in range(n_qubits) if q not in positions]
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    current = list(positions) + rest
    perm = [current.index(q) for q in range(n_qubits)]
    t = full.reshape([2] * (2 * n_qubits))
    t = t.transpose(perm + [p + n_qubits for p in perm])
    d = 2 ** n_qubits
    return t.reshape(d, d)


def embed(op: np.ndarray, on: Iterable[str], register: QubitRegister) -> np.ndarray:
    """Lift ``op`` to the full register, acting as identity elsewhere.

    Handles non-adjacent and permuted subsystem orderings: ``on`` gives the
    factor order of ``op`` itself.
    """
    on = tuple(on)
    op = _as_matrix(op)
    if op.shape[0] != 2 ** len(on):
        raise DimensionMismatch(
            f"operator dimension {op.shape[0]} does not match {len(on)} qubits"
        )
    positions = register.positions(on)
    return _embed_raw(op, positions, register.n_qubits)
