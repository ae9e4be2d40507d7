"""Exact references that the tests compare the library against."""

import math

import numpy as np

from collideq.metrics import nbar


def damped_qubit(beta, gamma, omega, rho0, times, hamiltonian=False):
    """Exact solution of the damped-qubit master equation, one state per time.

    Emission at ``gamma (nbar + 1)`` and absorption at ``gamma nbar`` give
    ``Gamma = gamma (2 nbar + 1)``; the excited population (index 0) relaxes
    as ``p_eq + (p(0) - p_eq) exp(-Gamma t)`` with ``p_eq = nbar / (2 nbar +
    1)``, and the coherence as ``rho01(0) exp(-Gamma t / 2)``, times
    ``exp(-i omega t)`` when the Hamiltonian ``(omega / 2) sigma_z`` is kept.
    Each population is written as ``x(0) decay + x_eq (1 - decay)``, so
    ``t = 0`` returns ``rho0`` exactly.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    t = np.asarray(times, dtype=float)
    nb = nbar(beta, omega)
    rate = gamma * (2.0 * nb + 1.0)
    p_eq = nb / (2.0 * nb + 1.0)
    decay = np.exp(-rate * t)
    relaxed = -np.expm1(-rate * t)
    coherence = np.exp(-0.5 * rate * t)
    if hamiltonian:
        coherence = coherence * np.exp(-1j * omega * t)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = rho0[0, 0].real * decay + p_eq * relaxed
    out[..., 1, 1] = rho0[1, 1].real * decay + (1.0 - p_eq) * relaxed
    out[..., 0, 1] = rho0[0, 1] * coherence
    out[..., 1, 0] = rho0[1, 0] * coherence.conj()
    return out


def two_bath_markov(beta, dt, omega, gamma):
    """Exact ``(p_e, flux)`` of the setting II steady state at delta = 0, at any dt.

    Without intra-bath collisions each step meets fresh units, ground (bath 0)
    and excited (bath 1), through ``U = exp(-i H dt)`` with ``H = -J0 SWAP_{S,A0}
    - J1 SWAP_{S,A1}`` up to a constant. ``H`` conserves the excitation
    number. A ground system starts in the 1-excitation sector, with the
    excitation on A1; an excited one in the 2-excitation sector, with the
    hole on A0. In both sectors a SWAP moves the odd qubit, the excitation or
    the hole, between its two sites, so both 3x3 blocks, over the odd qubit's
    site (S, A0, A1), are ``exp(i dt (J0 P_{S,A0} + J1 P_{S,A1}))``. The
    system goes up with ``u = |V[S, A1]|**2`` and down with ``w = |V[S, A0]|**2``,
    so ``p_e = u / (u + w)``. The heat per step into bath 0 is ``omega`` times
    the probability that A0 leaves excited, a sum of squared moduli with no
    O(1) - O(1) difference; ``flux`` is that heat over ``dt``.
    """
    nb = nbar(beta, omega)
    j0, j1 = np.sqrt(gamma * (nb + 1.0) / dt), np.sqrt(gamma * nb / dt)
    s, a0, a1 = 0, 1, 2
    swap_0 = np.eye(3)[[a0, s, a1]]
    swap_1 = np.eye(3)[[a1, a0, s]]
    w_k, v_k = np.linalg.eigh(j0 * swap_0 + j1 * swap_1)
    prob = np.abs((v_k * np.exp(1j * dt * w_k)) @ v_k.T) ** 2  # prob[i, j]: site j to site i
    up, down = prob[s, a1], prob[s, a0]
    p_e = up / (up + down)
    a0_excited = (1.0 - p_e) * prob[a0, a1] + p_e * (prob[s, a0] + prob[a1, a0])
    return p_e, omega * a0_excited / dt


def all_births_step(cfg):
    """``(superop, readout)`` of ``cfg``'s step summed over every birth combination.

    The engine's sum keeps only the births with ``p_c > 0``. This reference
    keeps the zero-weight ones too: the same ``einsum`` for ``sum_c p_c
    sum_o K_co x conj(K_co)`` and the same effects ``E_o = sum_c p_c
    K_co^dag K_co``, over the core's own cached pieces (collision, fresh
    state, lifted intra Kraus stack, readout operators). A term of weight
    exactly 0 adds nothing, so the two agree bit for bit.
    """
    from collideq.engine import _bath_pieces, _collision, _readout_pieces

    u = _collision(cfg.setting, cfg.beta, cfg.dt, cfg.omega, cfg.gamma)
    fresh, memories, pops = _bath_pieces(cfg.setting, cfg.beta, cfg.omega, cfg.delta)
    d = len(u)
    p = fresh.diagonal().real
    k = (memories @ u).reshape(len(p), -1, d, d)
    superop = np.einsum("coai,cobj->ijab", p[:, None, None, None] * k,
                        k.conj()).reshape(d * d, d * d).T
    effects = np.tensordot(p, k.conj().swapaxes(-1, -2) @ k, 1)
    system_rows, energies = _readout_pieces(cfg.n_baths, cfg.omega)
    rows = list(system_rows)
    for (h_m, e_m), e_fresh in zip(energies, 0.5 * cfg.omega * (pops[:, 0] - pops[:, 1])):
        h_mid = u.conj().T @ h_m @ u
        rows += [(h_mid - h_m).T.reshape(-1),
                 (np.tensordot(e_m, effects, 1) - h_mid).T.reshape(-1),
                 h_m.T.reshape(-1) @ superop - e_fresh * np.eye(d).reshape(-1)]
    return superop, np.array(rows, dtype=complex)


def complex_block_steady_state(channel):
    """``steady_state`` from the complex blocks of ``S`` itself.

    The connected components of ``S``'s exact nonzero pattern, one complex
    ``eigvals`` per component for the peripheral count and the gap; the
    bordered solve on the component holding the peripheral eigenvalue, and
    the power iteration cross-check on that same complex component. The
    engine shares this solve and cross-check, on the same complex component,
    and differs only in its spectral pass, which reads the real matrix of
    ``S`` on Hermitian coordinates; so the two fixed points agree bit for bit.
    """
    from collideq.engine import _FIXED_POINT_TOL, _PERIPHERAL_TOL, _power_fixed_point
    from collideq.errors import FixedPointError, NonUniqueSteadyState
    from collideq.tensor import DensityMatrix, connected_blocks

    superop = channel.superop
    d = channel.dim
    moduli, block = [], None
    for b in connected_blocks(superop != 0):
        m = np.abs(np.linalg.eigvals(superop[b[:, None], b]))
        moduli.append(m)
        if np.any(m > 1.0 - _PERIPHERAL_TOL):
            block = b
    moduli = np.sort(np.concatenate(moduli))[::-1]
    peripheral = int(np.sum(moduli > 1.0 - _PERIPHERAL_TOL))
    if peripheral != 1:
        raise NonUniqueSteadyState(max(peripheral, 2))
    trace_vec = (block % (d + 1) == 0).astype(complex)
    if not trace_vec.any():
        raise NonUniqueSteadyState(2)
    sub = superop[block[:, None], block]
    bordered = sub - np.eye(len(block))
    bordered[0] = trace_vec
    rhs = np.zeros(len(block), dtype=complex)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        raise NonUniqueSteadyState(2) from None

    def unit_state(x):
        vec = np.zeros(d * d, dtype=complex)
        vec[block] = x
        rho = vec.reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    rho = unit_state(x)
    residual = np.abs(channel.apply(rho) - rho).max()
    if residual > _FIXED_POINT_TOL:
        raise FixedPointError(f"fixed-point residual {residual:.2e} exceeds 1e-12")
    gap = 1.0 - moduli[1]
    rho_pi = unit_state(_power_fixed_point(sub, trace_vec))
    tol = max(1e-12, 100.0 * np.finfo(float).eps / max(gap, 1e-15))
    dev = np.abs(rho - rho_pi).max()
    if not dev <= tol:
        raise FixedPointError(f"bordered solve and power iteration disagree by {dev:.2e}")
    return DensityMatrix(channel.register, rho)


def per_step_evolve(cfg, rho0, n_steps):
    """``(states, q_sa, q_intra_in, q_intra_out)`` of ``evolve`` from a per-step loop.

    Each step is one ``v = superop @ v`` and one ``readout @ v`` on the
    compound, as ``evolve`` ran before it stepped in chunks. The states are
    the system rows read after each step; the heats are read before each
    step, and a step's incoming intra heat is the previous step's reading
    (0 for the first, fresh memory).
    """
    from collideq.engine import _step_ops

    ops = _step_ops(cfg)
    v = ops.attach(np.asarray(rho0, dtype=complex)).reshape(-1)
    reads = [ops.readout @ v]
    for _ in range(n_steps):
        v = ops.superop @ v
        reads.append(ops.readout @ v)
    reads = np.array(reads)
    heats = reads[:-1, 4:].real.reshape(n_steps, cfg.n_baths, 3)
    q_intra_in = np.zeros((n_steps, cfg.n_baths))
    q_intra_in[1:] = heats[:-1, :, 2]
    return reads[1:, :4].reshape(n_steps, 2, 2), heats[:, :, 0], q_intra_in, heats[:, :, 1]


def full_table_batch(cfg, rho0_s, n_steps, seeds):
    """``(outcomes, heats, finals)`` of ``_run_batch`` from the whole variate table.

    The batch draws every trajectory's ``(n_steps + 1, n_baths, 2)`` table
    at once and reads it in place for the whole step loop, samples through
    ``np.where`` and forms the heats from float outcomes, as ``_run_batch``
    did before it drew its variates a sub-block of trajectories at a time
    and kept only the slots the step reads. The step, the slots and every
    product are the same, so the two agree bit for bit.
    """
    from collideq.engine import _step_ops
    from collideq.tensor import EXCITED, GROUND
    from collideq.trajectories import (
        _SLOT_BIRTH,
        _SLOT_EIGEN,
        _SLOT_MEASURE,
        _check_probs,
        _initial_kets,
        _uniform_tables,
    )

    def sample(uniforms, p_exc):
        return np.where(uniforms < p_exc, EXCITED, GROUND).astype(np.int8)

    ops = _step_ops(cfg)
    b, nb = len(seeds), cfg.n_baths
    tables = _uniform_tables(seeds, n_steps, nb)
    rows = np.arange(b)

    births = sample(tables[..., _SLOT_BIRTH], ops.p_exc)
    psi = _initial_kets(rho0_s, births[:, 0], tables[:, 0, 0, _SLOT_EIGEN]).reshape(b, -1)
    outcomes = np.empty((b, n_steps, nb, 2), dtype=np.int8)
    outcomes[..., 0] = births[:, :-1]
    combos = births[:, 1:, 0]
    for k in range(1, nb):
        combos = 2 * combos + births[:, 1:, k]
    shared = ops.joint[combos[0, 0]] if (combos == combos[0, 0]).all() else None
    for n in range(n_steps):
        g = shared if shared is not None else ops.joint[combos[:, n]]
        branches = np.matmul(g, psi[:, :, None])
        norm = None
        for k in range(nb):
            branches = branches.reshape(b, 2, -1)
            x = branches.view(float)
            marginal = np.einsum("bor,bor->bo", x, x)
            p = marginal if norm is None else marginal / norm[:, None]
            _check_probs(p)
            second = sample(tables[:, n + 1, k, _SLOT_MEASURE], p[:, EXCITED])
            outcomes[:, n, k, 1] = second
            branches, norm = branches[rows, second], marginal[rows, second]
        psi = (branches.view(float) / np.sqrt(norm)[:, None]).view(complex)

    heats = cfg.omega * (outcomes[..., 0].astype(float) - outcomes[..., 1])
    psi = psi.reshape(b, 2, -1)
    finals = np.einsum("bik,bjk->bij", psi, psi.conj())
    return outcomes, heats, finals


def _apply_gate(rho, gate, axes):
    """``G rho G^dag`` for ``gate`` on the qubits ``axes`` of the tensor ``rho``.

    ``rho`` has one ket axis per qubit, then one bra axis per qubit, in the
    same order; ``gate`` is ``(2^k, 2^k)`` with ``axes[0]`` most significant.
    """
    n, k = rho.ndim // 2, len(axes)
    g = gate.reshape((2,) * (2 * k))
    gate_in = list(range(k, 2 * k))
    rho = np.moveaxis(np.tensordot(g, rho, (gate_in, axes)), range(k), axes)
    bras = [a + n for a in axes]
    return np.moveaxis(np.tensordot(rho, g.conj(), (bras, gate_in)), range(2 * n - k, 2 * n), bras)


def explicit_chain(cfg, rho0, n_steps):
    """``(states, q_sa, q_intra_in, q_intra_out)`` of ``evolve`` from an explicit ancilla chain.

    The register is S plus ``n_steps + 1`` ancillas per bath, all born in
    the bath's fresh state and all kept: no memory embedding, no engineered
    SWAP, no compound. Step k applies the system collision to S and
    ancilla k of every bath, then, per bath, the intra partial SWAP of angle
    ``delta`` to ancillas k and k + 1; ancilla k then meets nothing more.
    Setting I's collision is ``cos(J dt) 1 - i sin(J dt) SWAP``; setting
    II's is ``exp(-i H dt)`` from one ``eigh`` of the Heisenberg sum ``H =
    -(J0/2) (XX + YY + ZZ)_{S,A0} - (J1/2) (XX + YY + ZZ)_{S,A1}``. Every
    gate acts on its own axes of the state tensor. The heats of row k are
    the energy changes of ancilla k of each bath: ``q_intra_in`` across the
    intra collision of step k - 1 (0 at k = 0, which meets no predecessor),
    ``q_sa`` across the system collision and ``q_intra_out`` across its own
    intra collision. The states are the system marginals after each step.
    """
    n_baths, n_anc = cfg.n_baths, n_steps + 1
    n = 1 + n_baths * n_anc

    def anc(bath, k):  # qubit of ancilla k of a bath; S is qubit 0
        return 1 + bath * n_anc + k

    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    swap = np.eye(4)[[0, 2, 1, 3]]

    def partial_swap_gate(theta):
        return math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * swap

    if n_baths == 1:
        collision = partial_swap_gate(cfg.coupling_j * cfg.dt)
    else:  # on (S, A0, A1)
        h = sum(-0.5 * j * (np.kron(np.kron(p, p), np.eye(2)) if b == 0 else
                            np.kron(p, np.kron(np.eye(2), p)))
                for b, j in enumerate((cfg.coupling_j0, cfg.coupling_j1)) for p in paulis)
        w, v = np.linalg.eigh(h)
        collision = (v * np.exp(-1j * w * cfg.dt)) @ v.conj().T
    intra = partial_swap_gate(cfg.delta)

    fresh = [cfg.bath_state(b) for b in range(n_baths)]
    rho = np.asarray(rho0, dtype=complex)
    for b in range(n_baths):
        for _ in range(n_anc):
            rho = np.kron(rho, fresh[b])
    rho = rho.reshape((2,) * (2 * n))
    half_omega = 0.5 * cfg.omega
    e_fresh = np.array([half_omega * (f[0, 0] - f[1, 1]).real for f in fresh])

    kets, bras = list(range(n)), [n] + list(range(1, n))  # bras share every ket label but S's

    def energies(rho, k):  # energy of ancilla k of every bath, from its populations
        return np.array([half_omega * np.subtract(*np.einsum(rho, kets + kets, [anc(b, k)]).real)
                         for b in range(n_baths)])

    states = np.empty((n_steps, 2, 2), dtype=complex)
    q_sa, q_intra_in, q_intra_out = (np.empty((n_steps, n_baths)) for _ in range(3))
    for k in range(n_steps):
        e_pre = energies(rho, k)
        rho = _apply_gate(rho, collision, [0] + [anc(b, k) for b in range(n_baths)])
        e_mid = energies(rho, k)
        for b in range(n_baths):
            rho = _apply_gate(rho, intra, [anc(b, k), anc(b, k + 1)])
        e_post = energies(rho, k)
        q_intra_in[k] = 0.0 if k == 0 else e_pre - e_fresh
        q_sa[k], q_intra_out[k] = e_mid - e_pre, e_post - e_mid
        states[k] = np.einsum(rho, kets + bras, [0, n])
    return states, q_sa, q_intra_in, q_intra_out


def covariant_blp(cfg, n_steps, thetas):
    """BLP revival sum of each polar angle in ``thetas``, from two columns.

    The step is phase covariant: its superoperator is block-diagonal in
    coherence order. So ``sigma_z`` with fresh memories stays in the trace
    block, whose system marginal is ``c_k sigma_z`` after step k (entry 00),
    and ``sigma_+ = |0><1|`` stays in a coherence-1 block, with entry 01
    ``lambda_k``. The antipodal pair at ``(theta, phi)`` differs by ``n.sigma
    = cos(theta) sigma_z + sin(theta) (e^{-i phi} sigma_+ + h.c.)``, so its
    trace distance is ``sqrt(c_k^2 cos^2 theta + |lambda_k|^2 sin^2 theta)``
    for every ``phi``. Each column is stepped by a plain ``superop @ v`` on
    the whole compound; a distance below 1e-14 reads as 0, and the revival
    sum adds the positive increments from ``D_0 = 1``. Shares only the step
    and the system rows with ``blp_measure``.
    """
    from collideq.engine import _step_ops

    ops = _step_ops(cfg)
    z = ops.attach(np.diag([1.0, -1.0]).astype(complex)).reshape(-1)
    plus = ops.attach(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)).reshape(-1)
    c, lam = np.empty(n_steps), np.empty(n_steps)
    for k in range(n_steps):
        z, plus = ops.superop @ z, ops.superop @ plus
        c[k] = (ops.system_rows[0] @ z).real
        lam[k] = abs(ops.system_rows[1] @ plus)
    cos2 = np.cos(np.asarray(thetas, dtype=float)) ** 2
    d = np.sqrt(np.outer(c * c, cos2) + np.outer(lam * lam, 1.0 - cos2))
    d[d < 1e-14] = 0.0
    inc = np.diff(np.vstack([np.ones(len(cos2)), d]), axis=0)
    return np.where(inc > 0.0, inc, 0.0).sum(axis=0)


def recompute_value_from_series(series):
    """Revival sum from a stored distance series (consistency helper)."""
    inc = np.diff(series)
    return float(inc[inc > 0.0].sum())


def csv_line(row):
    """The CSV text of one row of values, as the CLI formatted rows value by value
    before it formatted each column once: a float (numpy's included) to 12
    significant digits, anything else by ``str``."""
    return ",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row)


def eager_parser():
    """The CLI parser with every command's options added up front, one
    ``add_argument`` per option and command, as ``build_parser`` built it
    before its subparsers added their options on first use."""
    import argparse

    from collideq.cli import _COMMANDS, _OPTIONS, _flag

    parser = argparse.ArgumentParser(
        prog="collideq",
        description="multi-bath collision model experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        for name, opt in _OPTIONS.items():
            if opt.flag:
                p.add_argument(_flag(name), dest=name, choices=opt.choices,
                               help=opt.help if command in opt.commands else argparse.SUPPRESS)
    return parser
