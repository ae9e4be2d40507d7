import numpy as np
import pytest

from collideq.errors import (CollideqError, DimensionMismatch, InvalidSubsystem, NotHermitian,
                             NumericalPositivityError)
from collideq.tensor import (
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
    eig_hermitian,
    expm_i_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    projector,
)

RNG = np.random.default_rng(7041)


def random_density(n_qubits, rng=RNG):
    d = 2 ** n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_state():
    # (|ee> + |gg>)/sqrt2 as a 2-qubit density matrix
    e, g = np.eye(2)
    v = (kron(e, e) + kron(g, g)) / np.sqrt(2)
    return np.outer(v, v.conj())


def ghz_state():
    e, g = np.eye(2)
    v = (kron(e, e, e) + kron(g, g, g)) / np.sqrt(2)
    return np.outer(v, v.conj())


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4), atol=1e-12)

    def test_sigma_x_pair(self):
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert np.allclose(kron(SIGMA_X, SIGMA_X), expected, atol=1e-12)

    def test_projector_product(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_associativity(self):
        a, b, c = (RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)) for _ in range(3))
        assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12

    def test_several_factors_left_to_right(self):
        a, b, c = (RNG.normal(size=(2, 2)) for _ in range(3))
        out = kron(a, b, c)
        assert out.dtype == complex
        assert np.array_equal(out, np.kron(np.kron(a, b), c))

    def test_one_factor_is_its_complex_matrix(self):
        out = kron(np.diag([1.0, 0.0]))
        assert out.dtype == complex
        assert np.array_equal(out, np.diag([1.0, 0.0]))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        reg = QubitRegister(["A", "B"])
        rho_a = random_density(1)
        rho_b = random_density(1)
        rho = DensityMatrix(reg, kron(rho_a, rho_b))
        red = partial_trace(rho, ["A"])
        assert red.register.labels == ("A",)
        assert np.abs(red.mat - rho_a).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), bell_state())
        red = partial_trace(rho, ["A"])
        assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-12

    def test_ghz_two_qubit_marginal(self):
        # independent oracle: direct index contraction of the GHZ tensor
        ghz = ghz_state().reshape([2] * 6)
        expected = np.einsum("abcdec->abde", ghz).reshape(4, 4)
        rho = DensityMatrix(QubitRegister(["A", "B", "C"]), ghz_state())
        red = partial_trace(rho, ["A", "B"])
        assert np.abs(red.mat - expected).max() < 1e-12
        assert np.allclose(red.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_keep_order_follows_register(self):
        reg = QubitRegister(["A", "B", "C"])
        rho_parts = [random_density(1) for _ in range(3)]
        rho = DensityMatrix(reg, kron(*rho_parts))
        red = partial_trace(rho, ["C", "A"])  # request order must not matter
        assert red.register.labels == ("A", "C")
        assert np.abs(red.mat - kron(rho_parts[0], rho_parts[2])).max() < 1e-12

    def test_unknown_label_raises(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), bell_state())
        with pytest.raises(InvalidSubsystem):
            partial_trace(rho, ["X"])

    def test_keeping_every_label_returns_the_state(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), random_density(2))
        full = partial_trace(rho, ["A", "B"])
        assert np.abs(full.mat - rho.mat).max() < 1e-15

    def test_conjugated_state_stays_physical(self):
        reg = QubitRegister(["A", "B", "C"])
        for _ in range(10):
            rho = random_density(3)
            u = random_unitary(8)
            evolved = DensityMatrix(reg, u @ rho @ u.conj().T)
            red = partial_trace(evolved, ["B"])
            assert abs(np.trace(red.mat) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red.mat).min() >= -1e-10


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), kron(random_density(1), random_density(1)))
        pt = partial_transpose(rho, ["A"])
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(pt)), np.sort(np.linalg.eigvalsh(rho.mat)), atol=1e-12
        )

    def test_bell_state_spectrum(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), bell_state())
        lam = np.linalg.eigvalsh(partial_transpose(rho, ["A"]))
        assert np.allclose(np.sort(lam), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rho = DensityMatrix(QubitRegister(["A", "B", "C"]), random_density(3))
        pt = partial_transpose(rho, ["B"])
        reg = rho.register
        from collideq.tensor import _ptranspose_raw

        again = _ptranspose_raw(pt, 3, reg.positions(["B"]))
        assert np.abs(again - rho.mat).max() < 1e-15

    def test_trace_and_hermiticity_preserved(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), random_density(2))
        pt = partial_transpose(rho, ["B"])
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12

    def test_full_register_rejected(self):
        rho = DensityMatrix(QubitRegister(["A", "B"]), random_density(2))
        with pytest.raises(InvalidSubsystem):
            partial_transpose(rho, ["A", "B"])


class TestEigHermitian:
    def test_sigma_z_spectrum(self):
        w, _ = eig_hermitian(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_sigma_x_spectrum_and_vectors(self):
        w, v = eig_hermitian(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        for k in range(2):
            assert np.abs(SIGMA_X @ v[:, k] - w[k] * v[:, k]).max() < 1e-12

    def test_heisenberg_spectrum(self):
        # brute-force oracle: -(J/2)(XX+YY+ZZ) with J=1 on two qubits
        h = -0.5 * (kron(SIGMA_X, SIGMA_X) + kron(SIGMA_Y, SIGMA_Y) + kron(SIGMA_Z, SIGMA_Z))
        w, _ = eig_hermitian(h)
        assert np.allclose(w, [-0.5, -0.5, -0.5, 1.5], atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        h = random_density(3)  # PSD Hermitian works fine as input
        w, v = eig_hermitian(h)
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10
        assert np.abs(v @ v.conj().T - np.eye(8)).max() < 1e-10
        assert np.all(np.diff(w) >= -1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    def test_zero_time_is_identity(self):
        h = random_density(2)
        assert np.abs(expm_i_hermitian(h, 0.0) - np.eye(4)).max() < 1e-12

    def test_sigma_z_full_period(self):
        u = expm_i_hermitian(SIGMA_Z / 2, 2 * np.pi)
        assert np.abs(u + np.eye(2)).max() < 1e-12

    def test_group_property(self):
        h = random_density(2)
        u1 = expm_i_hermitian(h, 0.37)
        u2 = expm_i_hermitian(h, 1.21)
        u12 = expm_i_hermitian(h, 0.37 + 1.21)
        assert np.abs(u1 @ u2 - u12).max() < 1e-10

    def test_decoupled_blocks_are_exactly_zero_between(self):
        # one 2x2 block on indices {0, 2} and again on {1, 4}: eigenvalues
        # degenerate across blocks, which one eigh of h may mix
        blk = np.array([[0.3, 0.7 - 0.2j], [0.7 + 0.2j, -0.4]])
        h = np.zeros((5, 5), dtype=complex)
        h[np.ix_([0, 2], [0, 2])] = blk
        h[np.ix_([1, 4], [1, 4])] = blk
        h[3, 3] = 0.3
        u = expm_i_hermitian(h, 0.9)
        w, v = np.linalg.eigh(blk)
        u_blk = (v * np.exp(-0.9j * w)) @ v.conj().T
        inside = np.zeros((5, 5), dtype=bool)
        for idx in ([0, 2], [1, 4], [3]):
            inside[np.ix_(idx, idx)] = True
        assert np.all(u[~inside] == 0)
        assert np.abs(u[np.ix_([0, 2], [0, 2])] - u_blk).max() < 1e-15
        assert np.abs(u[np.ix_([1, 4], [1, 4])] - u_blk).max() < 1e-15
        assert abs(u[3, 3] - np.exp(-0.27j)) < 1e-15

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            expm_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)

    def test_hermitian_op_input_gives_unitary_matrix(self):
        h = HermitianOp(QubitRegister(["A", "B"]), random_density(2))
        u = expm_i_hermitian(h, 0.83)
        assert isinstance(u, np.ndarray)
        assert np.array_equal(u, expm_i_hermitian(h.mat, 0.83))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


class TestConnectedBlocks:
    def test_one_way_links_join_components(self):
        pattern = np.zeros((7, 7), dtype=bool)
        for i, j in [(6, 3), (3, 1), (0, 4), (5, 6)]:
            pattern[i, j] = True
        blocks = connected_blocks(pattern)
        assert [b.tolist() for b in blocks] == [[0, 4], [1, 3, 5, 6], [2]]

    def test_repeated_pattern_reuses_read_only_partition(self):
        pattern = np.zeros((7, 7), dtype=bool)
        for i, j in [(6, 3), (3, 1), (0, 4), (5, 6)]:
            pattern[i, j] = True
        first = connected_blocks(pattern)
        second = connected_blocks(pattern.copy())
        assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
        assert not any(b.flags.writeable for b in first)
        pattern[2, 0] = True  # a changed pattern gets its own partition
        assert [b.tolist() for b in connected_blocks(pattern)] == [[0, 2, 4], [1, 3, 5, 6]]
        assert [b.tolist() for b in connected_blocks(pattern.T)] == [[0, 2, 4], [1, 3, 5, 6]]


class TestEmbed:
    def test_identity_lifts_to_identity(self):
        reg = QubitRegister(["A", "B", "C"])
        assert np.abs(embed(np.eye(4), ["A", "B"], reg) - np.eye(8)).max() < 1e-12

    def test_full_register_passthrough(self):
        reg = QubitRegister(["A", "B"])
        assert np.abs(embed(SWAP_2, ["A", "B"], reg) - SWAP_2).max() < 1e-12

    def test_nonadjacent_swap_permutes_basis_state(self):
        # index-permutation oracle: SWAP on (A, C) sends |100> to |001>
        reg = QubitRegister(["A", "B", "C"])
        u = embed(SWAP_2, ["A", "C"], reg)
        # |100>: A excited (bit 0), B ground, C ground -> flat index 0b011
        e, g = np.eye(2)
        src = kron(e, g, g)
        dst = kron(g, g, e)
        assert np.abs(u @ src - dst).max() < 1e-12

    def test_permuted_factor_order(self):
        reg = QubitRegister(["A", "B"])
        op = kron(projector(0), SIGMA_X)  # acts as |e><e| on first arg, X on second
        direct = embed(op, ["B", "A"], reg)
        expected = kron(SIGMA_X, projector(0))
        assert np.abs(direct - expected).max() < 1e-12

    def test_composition_commutes(self):
        reg = QubitRegister(["A", "B", "C"])
        u = random_unitary(4)
        v = random_unitary(4)
        lhs = embed(u @ v, ["A", "C"], reg)
        rhs = embed(u, ["A", "C"], reg) @ embed(v, ["A", "C"], reg)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_dimension_mismatch(self):
        reg = QubitRegister(["A", "B", "C"])
        with pytest.raises(DimensionMismatch):
            embed(np.eye(4), ["A"], reg)
        with pytest.raises(InvalidSubsystem):
            embed(np.eye(4), ["A", "X"], reg)


class TestValidation:
    def test_register_rejects_duplicates(self):
        with pytest.raises(InvalidSubsystem):
            QubitRegister(["A", "A"])

    def test_density_matrix_invariants(self):
        reg = QubitRegister(["A"])
        with pytest.raises(NotHermitian):
            DensityMatrix(reg, np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(reg, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(reg, np.diag([1.5, -0.5]))  # negative eigenvalue

    BAD = {
        "non-hermitian": (np.array([[0.6, 0.2 + 1e-9], [0.2, 0.4]]),
                          np.array([[0.6, 0.2 + 5e-11], [0.2, 0.4]])),
        "trace": (np.diag([0.61, 0.4]), np.diag([0.6 + 5e-11, 0.4])),
        "negative": (np.diag([1.0 + 1e-9, -1e-9]), np.diag([1.0 + 5e-11, -5e-11])),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_stack_check_raises_as_density_matrix(self, kind, at):
        reg = QubitRegister(["A"])
        bad, inside = (m.astype(complex) for m in self.BAD[kind])
        stack = np.stack([random_density(1) for _ in range(5)])
        stack[at] = bad
        with pytest.raises((NotHermitian, ValueError)) as alone:
            DensityMatrix(reg, bad)
        with pytest.raises(type(alone.value)) as stacked:
            _check_density_stack(stack)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        stack[at] = inside
        _check_density_stack(stack)
        DensityMatrix(reg, inside)

    def test_stack_check_reports_first_bad_matrix(self):
        stack = np.stack([random_density(1) for _ in range(4)])
        stack[1] = np.diag([0.61, 0.4])
        stack[3, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="trace"):
            _check_density_stack(stack)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_entries_rejected(self, value, where):
        bad = np.diag([0.5, 0.5]).astype(complex)
        if where == "diagonal":
            bad[0, 0] = value
        else:
            bad[0, 1] = bad[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(QubitRegister(["A"]), bad)
        rng = np.random.default_rng(5)
        stack = np.stack([random_density(1, rng) for _ in range(5)])
        _check_density_stack(stack)
        for at in (0, 2, 4):
            broken = stack.copy()
            broken[at] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _check_density_stack(broken)

    def test_first_bad_matrix_decides_over_non_finite(self):
        rng = np.random.default_rng(6)
        stack = np.stack([random_density(1, rng) for _ in range(4)])
        stack[1] = np.diag([0.61, 0.4])
        stack[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="trace"):
            _check_density_stack(stack)
        stack[0, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            _check_density_stack(stack)

    @pytest.mark.parametrize("bad, match", [
        (np.diag([np.nan, 1.0]), "non-finite"),
        (np.diag([0.61, 0.4]), "trace"),
        (np.diag([1.5, -0.5]), r"eigenvalue below -1e-10 \(minimum -5.000e-01\)"),
    ], ids=["non-finite", "trace", "negative"])
    def test_failing_state_raises_typed_positivity_error(self, bad, match):
        # the one error of a state failing its checks: a CollideqError, which
        # flags a CLI cell, and a ValueError, as a bad input is
        stack = np.stack([random_density(1, np.random.default_rng(8)), bad.astype(complex)])
        with pytest.raises(NumericalPositivityError, match=match) as err:
            _check_density_stack(stack)
        assert isinstance(err.value, CollideqError) and isinstance(err.value, ValueError)

    def test_marginal_below_the_bound_raises_typed_error(self):
        # four populations of -0.9e-10 with S excited pass the -1e-10 bound on
        # (S, M0, M1); tracing out both memories sums them to -3.6e-10
        pops = np.array([-0.9e-10] * 4 + [(1.0 + 3.6e-10) / 4] * 4)
        rho = DensityMatrix(QubitRegister(["S", "M0", "M1"]), np.diag(pops).astype(complex))
        with pytest.raises(NumericalPositivityError, match=r"minimum -3\.600e-10"):
            partial_trace(rho, ["S"])

    def test_unitary_invariant(self):
        reg = QubitRegister(["A"])
        with pytest.raises(ValueError):
            UnitaryOp(reg, np.diag([1.0, 2.0]))
        u = UnitaryOp(reg, expm_i_hermitian(SIGMA_X, 0.3))
        assert np.abs(u.mat @ u.mat.conj().T - np.eye(2)).max() < 1e-10

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_unitary_rejects_non_finite_entries(self, value):
        # a NaN deviation passes the 1e-10 comparison, so finiteness is checked first
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryOp(QubitRegister(["A"]), np.full((2, 2), value))
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryOp(QubitRegister(["A"]), bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_hermitian_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianOp(QubitRegister(["A"]), np.full((2, 2), value))
        bad = SIGMA_X.copy()
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            HermitianOp(QubitRegister(["A"]), bad)


@pytest.mark.parametrize("call, error", [
    (lambda: HermitianOp(QubitRegister(["S"]), np.array([[0.0, 1.0], [0.0, 0.0]])),
     NotHermitian),
    (lambda: QubitRegister([]), InvalidSubsystem),
    (lambda: QubitRegister(["S", "M"]).positions(["S", "S"]), InvalidSubsystem),
    (lambda: partial_trace(DensityMatrix(QubitRegister(["S", "M"]), np.eye(4) / 4), []),
     InvalidSubsystem),
    (lambda: eig_hermitian(np.ones((2, 3))), DimensionMismatch),
    (lambda: DensityMatrix(QubitRegister(["A"]), np.eye(4) / 4), DimensionMismatch),
    # NaN passes the 1e-12 Hermitian comparison; eigh would return it as an eigenvalue
    (lambda: eig_hermitian(np.diag([np.nan, 1.0])), NotHermitian),
    (lambda: expm_i_hermitian(np.diag([np.nan, 1.0]), 0.5), NotHermitian),
    (lambda: eig_hermitian(np.diag([np.inf, 1.0])), NotHermitian),
], ids=["finite-non-hermitian-op", "empty-register", "repeated-position-label",
        "partial-trace-keeps-nothing", "non-square-matrix", "matrix-register-size-mismatch",
        "eig-hermitian-nan", "expm-nan", "eig-hermitian-inf"])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()
