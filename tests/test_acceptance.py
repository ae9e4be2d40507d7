"""Acceptance suite: one test per criterion clause, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every
``ACCEPTANCE`` line. Three clauses (6c, 7c, 10b) pin target values that
the cross-validated engine does not reproduce; they are kept as written
and fail with the measured value printed in the verdict line.
"""

import math
import time

import numpy as np
import pytest

from collideq.blp import blp_measure
from collideq.cli import main as cli_main
from collideq.engine import (
    ModelConfig,
    embedded_step_channel,
    evolve,
    markovian_channel,
    steady_heat_flux,
    steady_heat_flux_from_state,
    steady_state,
)
from collideq.metrics import (
    effective_temperature,
    fidelity,
    gibbs_qubit,
    nbar,
    negativity_2,
    tripartite_negativity,
)
from collideq.tensor import DensityMatrix, QubitRegister, partial_trace, projector
from collideq.trajectories import ensemble_mean_heat
from oracles import damped_qubit

HALF_PI = math.pi / 2
MASTER_SEED = 20260811

SYS = QubitRegister(["S"])
EXCITED_DM = DensityMatrix(SYS, projector(0))
GROUND_DM = DensityMatrix(SYS, projector(1))


def verdict(tag: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {tag} {status}: {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit, f"{tag}: runtime {elapsed:.1f}s exceeded {limit}s"
    assert ok, f"{tag}: {detail}"


def test_c01_homogenization_fixed_point():
    t0 = time.time()
    worst = 1.0
    for beta in (0.5, 2.0):
        target = gibbs_qubit(beta, 1.0)
        for dt in (0.001, 0.01, 0.1):
            for delta in (0.0, 0.5, 0.8 * HALF_PI, 0.95 * HALF_PI):
                cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting="I")
                rho = steady_state(embedded_step_channel(cfg))
                f = fidelity(partial_trace(rho, ["S"]), target)
                worst = min(worst, f)
    verdict("1", worst >= 1.0 - 1e-8,
            f"setting I steady-state fidelity to gibbs >= 1-1e-8 (worst {worst:.12f})",
            time.time() - t0, 10.0)


def test_c02_small_dt_slope():
    t0 = time.time()
    details = []
    ok = True
    for beta in (1.0, 2.0):
        nb = nbar(beta, 1.0)
        coef = nb * (nb + 1) / (6.0 * (2.0 * nb + 1.0) ** 2)
        g_e = {}
        for dt in (1e-3, 1e-4):
            cfg = ModelConfig(beta=beta, dt=dt, setting="II")
            rho = steady_state(markovian_channel(cfg))
            g_e[dt] = effective_temperature(rho, 1.0).g_e
        slope = (g_e[1e-3] - g_e[1e-4]) / (1e-3 - 1e-4)
        rel = abs(slope - coef) / coef
        details.append(f"beta={beta}: slope {slope:.6f} vs {coef:.6f} ({rel:.2%})")
        ok = ok and rel < 0.02
    verdict("2", ok, "; ".join(details), time.time() - t0, 5.0)


def test_c03_lindblad_limit_convergence():
    t0 = time.time()
    beta, gamma, t_final = 2.0, 1.0, 5.0
    errors = {}
    for dt in (1e-2, 5e-3):
        cfg = ModelConfig(beta=beta, dt=dt, gamma=gamma, setting="I")
        n = int(round(t_final / dt))
        res = evolve(cfg, EXCITED_DM, n)
        oracle = damped_qubit(beta, gamma, 1.0, projector(0), dt * np.arange(1, n + 1))
        oracle_pops = oracle[:, 0, 0].real
        errors[dt] = np.abs(res.states[:, 0, 0].real - oracle_pops).max()
    ratio = errors[1e-2] / errors[5e-3]
    ok = errors[1e-2] < 2e-2 and 1.6 <= ratio <= 2.4
    verdict("3", ok,
            f"max dev {errors[1e-2]:.2e} < 2e-2, halving ratio {ratio:.2f} in [1.6,2.4]",
            time.time() - t0, 10.0)


def test_c04_heat_conservation():
    t0 = time.time()
    from collideq.engine import _StepOps

    worst_pair = 0.0
    for beta in (0.5, 2.0):
        for dt in (0.01, 0.1):
            for delta in (0.0, 0.7, 0.95 * HALF_PI):
                cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting="II")
                rho = steady_state(embedded_step_channel(cfg))
                ops = _StepOps(cfg)
                v = rho.mat.reshape(-1)
                for _ in range(3):
                    q_sa, _, _ = ops.heats(ops.readout @ v)
                    v = ops.superop @ v
                    worst_pair = max(worst_pair, abs(float(q_sa.sum())))
    worst_flux = 0.0
    for beta in (0.5, 2.0):
        for delta in (0.0, 0.8 * HALF_PI):
            cfg = ModelConfig(beta=beta, dt=0.05, delta=delta, setting="I")
            worst_flux = max(worst_flux, abs(steady_heat_flux(cfg)))
    ok = worst_pair < 1e-12 and worst_flux < 1e-12
    verdict("4", ok,
            f"setting II |q0+q1| per NESS step {worst_pair:.1e} < 1e-12; "
            f"setting I |flux| {worst_flux:.1e} < 1e-12",
            time.time() - t0, 5.0)


def _delta_beta_markovian(beta: float, dt: float) -> float:
    cfg = ModelConfig(beta=beta, dt=dt, setting="II")
    rho = steady_state(markovian_channel(cfg))
    return effective_temperature(rho, 1.0).beta_e - beta


def _delta_beta_embedded(beta: float, dt: float, delta: float) -> float:
    cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting="II")
    rho = steady_state(embedded_step_channel(cfg))
    marginal = partial_trace(rho, ["S"])
    return effective_temperature(marginal, 1.0).beta_e - beta


def test_c05_delta_beta_sign_structure():
    t0 = time.time()
    ok = True
    details = []
    for beta in (0.5, 2.0):
        dbs = [_delta_beta_markovian(beta, dt) for dt in np.linspace(0.025, 0.5, 20)]
        positive = all(v > 0 for v in dbs)
        monotone = all(b > a for a, b in zip(dbs, dbs[1:]))
        ok = ok and positive and monotone
        details.append(f"beta={beta}: positive={positive} monotone={monotone}")
    grid = np.array([
        [_delta_beta_embedded(2.0, dt, delta)
         for delta in np.linspace(0.0, 0.95 * HALF_PI, 20)]
        for dt in np.linspace(0.025, 0.5, 20)
    ])
    has_negative = bool((grid < 0).any())
    has_positive = bool((grid > 0).any())
    ok = ok and has_negative and has_positive
    details.append(f"sweep: neg cells={int((grid < 0).sum())}, "
                   f"pos cells={int((grid > 0).sum())} (sign change)")
    verdict("5", ok, "; ".join(details), time.time() - t0, 120.0)


def test_c06a_blp_zero_at_delta_zero():
    t0 = time.time()
    vals = {}
    for setting in ("I", "II"):
        cfg = ModelConfig(beta=2.0, dt=0.01, delta=0.0, setting=setting)
        vals[setting] = blp_measure(cfg, n_steps=2000, grid=(16, 8)).value
    ok = vals["I"] == 0.0 and vals["II"] == 0.0
    verdict("6a", ok, f"delta=0 BLP exactly zero: {vals}", time.time() - t0, 120.0)


def test_c06b_blp_positive_at_strong_delta():
    t0 = time.time()
    vals = {}
    for setting in ("I", "II"):
        cfg = ModelConfig(beta=2.0, dt=0.01, delta=0.95 * HALF_PI, setting=setting)
        vals[setting] = blp_measure(cfg, n_steps=2000, grid=(16, 8)).value
    ok = vals["I"] > 0.0 and vals["II"] > 0.0
    verdict("6b", ok, f"(dt=0.01, delta=0.95 pi/2) BLP positive: "
            f"I={vals['I']:.3f}, II={vals['II']:.3f}", time.time() - t0, 120.0)


def test_c06c_blp_zero_at_small_dt():
    # pinned target: zero revivals at this point; the cross-validated
    # engine is underdamped here, so the assertion fails by design
    t0 = time.time()
    cfg = ModelConfig(beta=2.0, dt=0.001, delta=0.95 * HALF_PI, setting="I")
    res = blp_measure(cfg, n_steps=20000, grid=(16, 8))
    ok = res.value == 0.0
    verdict("6c", ok,
            f"(setting I, dt=0.001, delta=0.95 pi/2) BLP={res.value:.4f}, "
            f"target 0 (converged={res.converged})",
            time.time() - t0, 120.0)


def test_c07a_setting1_no_entanglement():
    t0 = time.time()
    worst = 0.0
    for beta in (0.5, 2.0):
        for dt, delta in ((0.01, 0.8 * HALF_PI), (0.1, 0.95 * HALF_PI), (0.1, 0.0)):
            cfg = ModelConfig(beta=beta, dt=dt, delta=delta, setting="I")
            rho = steady_state(embedded_step_channel(cfg))
            worst = max(worst, negativity_2(rho))
    verdict("7a", worst < 1e-8,
            f"setting I steady-state negativity max {worst:.1e} < 1e-8",
            time.time() - t0, 30.0)


def test_c07b_setting2_tripartite_entanglement():
    t0 = time.time()
    cfg = ModelConfig(beta=2.0, dt=0.1, delta=0.9 * HALF_PI, setting="II")
    n3 = tripartite_negativity(steady_state(embedded_step_channel(cfg)))
    verdict("7b", n3 > 0.0, f"(dt=0.1, delta=0.9 pi/2) N3={n3:.4f} > 0",
            time.time() - t0, 30.0)


def test_c07c_corner_entanglement_small():
    # pinned target: N3 < 1e-6 in the small-(dt, delta) corner; the
    # engine gives ~2.8e-5, so the assertion fails by design
    t0 = time.time()
    cfg = ModelConfig(beta=2.0, dt=1e-3, delta=0.1 * HALF_PI, setting="II")
    n3 = tripartite_negativity(steady_state(embedded_step_channel(cfg)))
    verdict("7c", n3 < 1e-6, f"corner (dt=1e-3, delta=0.1 pi/2) N3={n3:.2e}, "
            "target < 1e-6", time.time() - t0, 30.0)


def test_c08_trajectory_recovery():
    t0 = time.time()
    cfg = ModelConfig(beta=1.0, dt=0.1, delta=0.95 * HALF_PI, setting="II")
    n_steps = 100
    oracle = evolve(cfg, GROUND_DM, n_steps)
    q = oracle.q_lifecycle[:, 0]
    stats4 = ensemble_mean_heat(cfg, GROUND_DM, n_steps, 10_000, MASTER_SEED)
    stats5 = ensemble_mean_heat(cfg, GROUND_DM, n_steps, 100_000, MASTER_SEED)
    dev = np.abs(stats4.mean_heat[:, 0] - q)
    coverage = float((dev < 3.0 * stats4.std_error[:, 0]).mean())
    se_ratio = float(stats5.std_error[:, 0].mean() / stats4.std_error[:, 0].mean())
    ok = coverage >= 0.95 and 0.27 <= se_ratio <= 0.36
    verdict("8", ok,
            f"coverage {coverage:.3f} >= 0.95 at M=1e4; SE ratio {se_ratio:.3f} in [0.27,0.36]",
            time.time() - t0, 300.0)


def test_c09_deterministic_csv(tmp_path):
    t0 = time.time()
    pairs = []
    for name, args in (
        ("fig2", ["steady-state", "--preset", "fig2"]),
        ("fig5", ["trajectories", "--preset", "fig5", "--traj", "2000",
                  "--steps", "40", "--seed", str(MASTER_SEED)]),
    ):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        cli_main(args + ["--out", str(a)])
        cli_main(args + ["--out", str(b)])
        pairs.append((name, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    verdict("9", ok, "byte-identical reruns: " +
            ", ".join(f"{n}={s}" for n, s in pairs), time.time() - t0, 120.0)


def test_c10a_limit_scan_plateau_r5():
    t0 = time.time()
    db = {dt: _delta_beta_embedded(2.0, dt, (1.0 - dt / 5.0) * HALF_PI)
          for dt in (2.5e-3, 1.25e-3)}
    rel = abs(abs(db[2.5e-3]) - abs(db[1.25e-3])) / abs(db[1.25e-3])
    verdict("10a", rel < 0.20,
            f"r=5 plateau: |db|(2.5e-3)={abs(db[2.5e-3]):.4f}, "
            f"|db|(1.25e-3)={abs(db[1.25e-3]):.4f}, rel diff {rel:.2%} < 20%",
            time.time() - t0, 120.0)


def test_c10b_limit_scan_decay_r01():
    # pinned target: |delta beta| shrinks to <10% along r=0.1; the engine
    # shows growth toward the frozen-memory plateau, failing by design
    t0 = time.time()
    db = {dt: _delta_beta_embedded(2.0, dt, (1.0 - dt / 0.1) * HALF_PI)
          for dt in (1e-2, 1.25e-3)}
    frac = abs(db[1.25e-3]) / abs(db[1e-2])
    verdict("10b", frac < 0.10,
            f"r=0.1: |db|(1.25e-3)/|db|(1e-2) = {frac:.2f}, target < 0.10",
            time.time() - t0, 120.0)
