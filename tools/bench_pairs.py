"""Measure two checkouts of this repository, a parent and a change, in alternated pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --out BENCH.json
        [--pairs 12] [--first-seed 0] [--seconds 10] [--other-pairs 4]
        [--probes steady-state|trajectories ...] [--rounds 5] [--calls 30] [--runs 3]

PARENT and CHANGE are checkouts of this repository, each with ``src/`` and
``perfbench/``. Give them paths of the same length: the path enters each
child's environment, and with paths of 10 and 20 characters ``blp-scan``
read 3.7% apart on identical code paths. Every child process runs with BLAS
pinned to one thread, and the two sides alternate which runs first. The
script records:

* ``pairs``: ``perfbench/run.py --workload NAME`` in each checkout,
  ``--pairs`` pairs at seeds ``first-seed + i`` (both sides of a pair use the
  same seed), with each side's median and quartiles per end-to-end metric
  and the number of pairs the change wins, and ``claim``, whether
  ``units_per_s`` rose on at least 9 of 10 pairs by more than the parent's
  interquartile range;
* ``other_workloads``: ``--other-pairs`` pairs of each other perfbench
  workload at seed 0, summarized as the pairs above;
* ``probes``: the chosen probe sets, each measured on both sides.

The ``steady-state`` probe set records:

* ``cells_us``: ``steady_state`` per cell, and the ``StepChannel`` built for
  it, in a fresh process per round, over settings I and II x beta {0.5, 2,
  40, inf} x dt {1e-3, 0.01, 0.1, 0.5} x delta / (pi/2) {0, 0.6, 0.95}; a
  cell's time is the median of ``--calls`` calls, over ``--rounds`` rounds;
* ``block_eigvals_us``: one ``np.linalg.eigvals`` per connected block of the
  nonzero pattern of ``S`` and of its Hermitian-coordinate matrix ``R``
  (from the change's ``collideq.engine._hermitian_superop``) at a setting II
  cell (beta 2, dt 0.1, delta 0.6 pi/2 and delta 0);
* ``fig4_wall_s``: ``sweep --preset fig4`` end to end, ``--runs`` runs per side.

The ``trajectories`` probe set records, at the fig5 cell from the ground
state over 100 steps, with ``--calls`` batches per round over ``--rounds``
fresh-process rounds:

* ``step_loop_ms``: one ``_run_batch`` of 400 and of 8192 trajectories from
  the return of ``_initial_kets`` to the batch's return, i.e. the step loop
  plus the heats and finals read off after it;
* ``births_ms``: per 400-trajectory batch, the time inside the ``_sample``
  calls that sample the births (those given a table of two or more axes;
  the step's own calls get one variate per trajectory);
* ``c08_call_s``: the call phase of ``tests/test_acceptance.py::
  test_c08_trajectory_recovery``, as pytest's ``--durations`` reports it,
  ``--runs`` runs per side.

Each probe wraps the module-level ``_initial_kets`` or ``_sample`` of the
checkout it measures, so the two sides run the same probe on their own code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
METRICS = {"wall_s": -1, "setup_s": -1, "units_per_s": 1, "cpu_s": -1, "peak_rss_mb": -1}
WORKLOADS = ("steady-sweep", "relax-dynamics", "blp-scan", "tpm-ensemble")

CELLS = """
import itertools, json, math, sys, time
import numpy as np
from collideq.engine import ModelConfig, StepChannel, embedded_step_channel, steady_state

calls = int(sys.argv[1])
out = {}
for setting, beta, dt, x in itertools.product(("I", "II"), (0.5, 2.0, 40.0, math.inf),
                                              (1e-3, 0.01, 0.1, 0.5), (0.0, 0.6, 0.95)):
    ch = embedded_step_channel(ModelConfig(beta=beta, dt=dt, delta=x * math.pi / 2,
                                           setting=setting))
    steady_state(ch)
    solve, build = [], []
    for _ in range(calls):
        t0 = time.perf_counter()
        steady_state(ch)
        t1 = time.perf_counter()
        StepChannel(ch.register, ch.superop)
        t2 = time.perf_counter()
        solve.append(t1 - t0)
        build.append(t2 - t1)
    out[f"{setting},{beta},{dt},{x}"] = [1e6 * float(np.median(solve)),
                                         1e6 * float(np.median(build))]
print(json.dumps(out))
"""

BLOCKS = """
import json, math, timeit
import numpy as np
from collideq.engine import ModelConfig, _hermitian_superop, embedded_step_channel
from collideq.tensor import connected_blocks

out = {}
for x in (0.6, 0.0):
    ch = embedded_step_channel(ModelConfig(beta=2.0, dt=0.1, delta=x * math.pi / 2,
                                           setting="II"))
    cell = {}
    for kind, mat in (("complex", ch.superop), ("real", _hermitian_superop(ch.superop, ch.dim))):
        rows = []
        for b in connected_blocks(mat != 0):
            block = np.ascontiguousarray(mat[np.ix_(b, b)])
            np.linalg.eigvals(block)
            times = timeit.repeat(lambda: np.linalg.eigvals(block), number=200, repeat=7)
            rows.append([len(b), 1e6 * min(times) / 200])
        cell[kind] = {"blocks": rows, "total_us": sum(t for _, t in rows)}
    out[f"delta={x}"] = cell
print(json.dumps(out))
"""

TRAJECTORY_STEPS = """
import json, math, sys, time
import numpy as np
from collideq import trajectories
from collideq.engine import ModelConfig

calls = int(sys.argv[1])
cfg = ModelConfig(beta=1.0, dt=0.1, delta=0.95 * math.pi / 2, setting="II")
ground = np.diag([0.0, 1.0]).astype(complex)
initial_kets, sample = trajectories._initial_kets, trajectories._sample
marks, births = [], []

def marked(*args):
    psi = initial_kets(*args)
    marks.append(time.perf_counter())
    return psi

def timed(uniforms, *args, **kwargs):
    if np.ndim(uniforms) < 2:
        return sample(uniforms, *args, **kwargs)
    t0 = time.perf_counter()
    out = sample(uniforms, *args, **kwargs)
    births.append(time.perf_counter() - t0)
    return out

def batch(size):
    trajectories._run_batch(cfg, ground, 100, trajectories._trajectory_seeds(0, 0, size))

batch(4)  # builds the cached step
out = {"step_loop_ms": {}}
trajectories._initial_kets = marked
for size in (400, 8192):
    loops = []
    for _ in range(calls):
        batch(size)
        loops.append(time.perf_counter() - marks.pop())
    out["step_loop_ms"][str(size)] = 1e3 * float(np.median(loops))
trajectories._initial_kets, trajectories._sample = initial_kets, timed
per_batch = []
for _ in range(calls):
    births.clear()
    batch(400)
    per_batch.append(sum(births))
out["births_ms"] = 1e3 * float(np.median(per_batch))
print(json.dumps(out))
"""


def child_env(tree: Path) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_child(tree: Path, code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=child_env(tree),
                          capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout)


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=child_env(tree), capture_output=True, text=True,
                          timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], **metrics}


def alternate(n: int, run):
    """``(parent, change)`` result lists of ``n`` pairs, parent first in even pairs."""
    parent, change = [], []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(side, i) for side in order}
        parent.append(got["parent"])
        change.append(got["change"])
    return parent, change


def summarize_pairs(parent, change) -> dict:
    out = {"all_correct": all(r["correct"] for r in parent + change),
           "failed": sum(r["failed"] for r in parent + change),
           "runs": {"parent": parent, "change": change}, "metrics": {}}
    for name, sign in METRICS.items():
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        out["metrics"][name] = {
            "parent_median": statistics.median(p), "change_median": statistics.median(c),
            "parent_quartiles": quartiles(p), "change_quartiles": quartiles(c),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
    return out


def runs_summary(parent, change) -> dict:
    return {"parent": parent, "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change)}


def cell_summary(rounds) -> dict:
    """Per-cell medians over rounds, then means by setting and by delta = 0 or > 0."""
    cells = {key: [statistics.median(r[key][i] for r in rounds) for i in (0, 1)]
             for key in rounds[0]}
    out = {"cells": cells}
    for setting in ("I", "II"):
        for label, pick in (("all", lambda x: True), ("delta0", lambda x: x == 0.0),
                            ("delta_gt0", lambda x: x > 0.0)):
            chosen = [v for key, v in cells.items()
                      if key.split(",")[0] == setting and pick(float(key.split(",")[3]))]
            out[f"{setting}_{label}"] = {
                "steady_state_us": statistics.fmean(v[0] for v in chosen),
                "step_channel_us": statistics.fmean(v[1] for v in chosen),
                "n_cells": len(chosen)}
    return out


def steady_state_probes(trees: dict, opts) -> dict:
    parent, change = alternate(opts.rounds,
                               lambda side, i: run_child(trees[side], CELLS, opts.calls))
    record = {"cells_us": {"parent": cell_summary(parent), "change": cell_summary(change)},
              "block_eigvals_us": run_child(trees["change"], BLOCKS)}

    def fig4(side, i):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "collideq.cli", "sweep", "--preset", "fig4",
                            "--out", str(Path(tmp) / "fig4.csv")],
                           env=child_env(trees[side]), capture_output=True, check=True,
                           timeout=900)
            return time.perf_counter() - t0

    record["fig4_wall_s"] = runs_summary(*alternate(opts.runs, fig4))
    return record


def trajectory_probes(trees: dict, opts) -> dict:
    parent, change = alternate(
        opts.rounds, lambda side, i: run_child(trees[side], TRAJECTORY_STEPS, opts.calls))
    record = {"step_loop_ms": {size: runs_summary([r["step_loop_ms"][size] for r in parent],
                                                  [r["step_loop_ms"][size] for r in change])
                               for size in parent[0]["step_loop_ms"]},
              "births_ms": runs_summary([r["births_ms"] for r in parent],
                                        [r["births_ms"] for r in change])}

    def c08(side, i):
        test = "tests/test_acceptance.py::test_c08_trajectory_recovery"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--durations=0", "--durations-min=0", test],
                              cwd=trees[side], env=child_env(trees[side]), capture_output=True,
                              text=True, check=True, timeout=900)
        return float(re.search(r"([\d.]+)s call\s+" + re.escape(test), proc.stdout).group(1))

    record["c08_call_s"] = runs_summary(*alternate(opts.runs, c08))
    return record


PROBES = {"steady-state": steady_state_probes, "trajectories": trajectory_probes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--other-pairs", type=int, default=4)
    parser.add_argument("--probes", nargs="*", choices=sorted(PROBES), default=[])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--runs", type=int, default=3)
    opts = parser.parse_args(argv)
    trees = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    record = {"machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                          "blas_threads_pinned": 1, "python": platform.python_version()},
              "settings": {k: v for k, v in vars(opts).items()
                           if k not in ("parent", "change", "out")}}

    def pair(side, i):
        return perfbench(trees[side], opts.workload, opts.first_seed + i, opts.seconds)

    record["pairs"] = summarize_pairs(*alternate(opts.pairs, pair))
    units = record["pairs"]["metrics"]["units_per_s"]
    low, high = units["parent_quartiles"]
    difference = units["change_median"] - units["parent_median"]
    # a gain counts when the change wins 9 of 10 pairs and the medians differ
    # by more than the parent's interquartile range
    record["claim"] = {
        "metric": f"units_per_s on {opts.workload}", "pairs": opts.pairs,
        "change_wins": units["change_wins"], "median_difference": difference,
        "median_gain_pct": 100.0 * difference / units["parent_median"],
        "parent_interquartile_range": high - low,
        "met": units["change_wins"] >= 0.9 * opts.pairs and difference > high - low}
    print(f"{opts.workload} pairs done", file=sys.stderr)
    env_file = trees["change"] / "perfbench/out" / (
        f"results-{opts.workload}-seed{opts.first_seed}-trace0.json")
    record["machine"].update(json.loads(env_file.read_text())["environment"])

    record["other_workloads"] = {
        workload: summarize_pairs(*alternate(
            opts.other_pairs,
            lambda side, i: perfbench(trees[side], workload, 0, opts.seconds)))
        for workload in WORKLOADS if workload != opts.workload and opts.other_pairs}
    print("other workloads done", file=sys.stderr)

    record["probes"] = {}
    for name in opts.probes:
        record["probes"][name] = PROBES[name](trees, opts)
        print(f"{name} probes done", file=sys.stderr)
    opts.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
