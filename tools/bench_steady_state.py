"""Measure the steady-state spectral pass of two checkouts, a parent and a change.

    python3 tools/bench_steady_state.py PARENT CHANGE --out BENCH.json
        [--pairs 12] [--first-seed 51] [--seconds 4] [--other-pairs 4]
        [--cell-rounds 5] [--cell-calls 30] [--fig4-runs 4]

PARENT and CHANGE are checkouts of this repository, each with ``src/`` and
``perfbench/``. Every child process runs with BLAS pinned to one thread, and
the two sides alternate which runs first. The script records:

* ``steady_sweep_pairs``: ``perfbench/run.py --workload steady-sweep`` in each
  checkout, ``--pairs`` pairs at seeds ``first-seed + i`` (both sides of a
  pair use the same seed), with each side's median and quartiles per
  end-to-end metric and the number of pairs the change wins, and ``claim``,
  whether ``units_per_s`` rose on at least 9 of 10 pairs by more than the
  parent's interquartile range;
* ``other_workloads``: ``--other-pairs`` pairs of each other perfbench
  workload at seed 0, summarized as the steady-sweep pairs;
* ``cells_us``: ``steady_state`` per cell, and the ``StepChannel`` built
  for it, in a fresh process per round, over settings I and II x beta
  {0.5, 2, 40, inf} x dt {1e-3, 0.01, 0.1, 0.5} x delta / (pi/2) {0, 0.6,
  0.95}; a cell's time is the median of ``--cell-calls`` calls;
* ``block_eigvals_us``: one ``np.linalg.eigvals`` per connected block of the
  nonzero pattern of ``S`` and of its Hermitian-coordinate matrix ``R``
  (from the change's ``collideq.engine._hermitian_superop``) at a setting II
  cell (beta 2, dt 0.1, delta 0.6 pi/2 and delta 0). ``steady_state`` reads
  the blocks of ``R`` off the pattern of ``S``, which joins the two 1 x 1
  blocks of ``R`` at delta > 0 into one 2 x 2 block;
* ``fig4_wall_s``: ``sweep --preset fig4`` end to end, ``--fig4-runs`` runs
  per side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
METRICS = {"wall_s": -1, "setup_s": -1, "units_per_s": 1, "cpu_s": -1, "peak_rss_mb": -1}

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


def child_env(tree: Path) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(tree / "src")
    return env


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--first-seed", type=int, default=51)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--other-pairs", type=int, default=4)
    parser.add_argument("--cell-rounds", type=int, default=5)
    parser.add_argument("--cell-calls", type=int, default=30)
    parser.add_argument("--fig4-runs", type=int, default=4)
    opts = parser.parse_args(argv)
    trees = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    record = {"machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                          "blas_threads_pinned": 1, "python": platform.python_version()}}

    def sweep(side, i):
        return perfbench(trees[side], "steady-sweep", opts.first_seed + i, opts.seconds)

    record["settings"] = {k: v for k, v in vars(opts).items()
                          if k not in ("parent", "change", "out")}
    record["steady_sweep_pairs"] = summarize_pairs(*alternate(opts.pairs, sweep))
    units = record["steady_sweep_pairs"]["metrics"]["units_per_s"]
    low, high = units["parent_quartiles"]
    difference = units["change_median"] - units["parent_median"]
    # a gain counts when the change wins 9 of 10 pairs and the medians differ
    # by more than the parent's interquartile range
    record["claim"] = {
        "metric": "units_per_s on steady-sweep", "pairs": opts.pairs,
        "change_wins": units["change_wins"], "median_difference": difference,
        "median_gain_pct": 100.0 * difference / units["parent_median"],
        "parent_interquartile_range": high - low,
        "met": units["change_wins"] >= 0.9 * opts.pairs and difference > high - low}
    print("steady-sweep pairs done", file=sys.stderr)
    env_file = trees["change"] / "perfbench/out" / (
        f"results-steady-sweep-seed{opts.first_seed}-trace0.json")
    record["machine"].update(json.loads(env_file.read_text())["environment"])

    record["other_workloads"] = {
        workload: summarize_pairs(*alternate(
            opts.other_pairs,
            lambda side, i: perfbench(trees[side], workload, 0, opts.seconds)))
        for workload in ("relax-dynamics", "blp-scan", "tpm-ensemble")}
    print("other workloads done", file=sys.stderr)

    def cells(side, i):
        proc = subprocess.run([sys.executable, "-c", CELLS, str(opts.cell_calls)],
                              env=child_env(trees[side]), capture_output=True, text=True,
                              check=True, timeout=900)
        return json.loads(proc.stdout)

    parent, change = alternate(opts.cell_rounds, cells)
    record["cells_us"] = {"parent": cell_summary(parent), "change": cell_summary(change)}
    print("cells done", file=sys.stderr)

    proc = subprocess.run([sys.executable, "-c", BLOCKS], env=child_env(trees["change"]),
                          capture_output=True, text=True, check=True, timeout=900)
    record["block_eigvals_us"] = json.loads(proc.stdout)

    def fig4(side, i):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "collideq.cli", "sweep", "--preset", "fig4",
                            "--out", str(Path(tmp) / "fig4.csv")],
                           env=child_env(trees[side]), capture_output=True, check=True,
                           timeout=900)
            return time.perf_counter() - t0

    parent, change = alternate(opts.fig4_runs, fig4)
    record["fig4_wall_s"] = {"parent": parent, "change": change,
                             "parent_median": statistics.median(parent),
                             "change_median": statistics.median(change)}
    opts.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
