"""collideq benchmark: run a workload end to end and print its metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Every measured run is a fresh ``python3 perfbench/child.py`` process that
calls ``collideq.cli.main`` on the workload's command line with BLAS pinned
to one thread. Runs repeat while the next one is expected to end within
``--seconds`` (at least ``min_runs`` of the workload); each run's CSV is
checked against the stored reference. Before the first run and after each
round the machine's speed is taken with a fixed calibration kernel
(``calibrate.py``); every timing is reported in reference seconds, scaled
by ``CAL_REF_S`` over the calibrations around it, so that the host's drift
cancels. Metrics are medians over
runs; the unscaled medians are printed beside them. One set-up-only probe
(import ``collideq.cli`` and resolve the configuration, then exit), not
timed, warms the bytecode cache first.

With ``--trace 1`` the runs alternate untraced and traced, and the per-layer
metrics of the traced runs are printed instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes ``perfbench/out/results-<workload>-seed<N>-trace<T>.json``
with every sample, the environment (nproc, BLAS and its pinned thread
count, numpy and Python versions) and the correctness problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from calibrate import CAL_REF_S, calibrate
from check import CheckResult, check_output, check_pooled, read_reference
from tracing import COUNTS, TRACED, traced_names
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS, Workload

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0
ACCOUNTING_TOL_S = 0.001   # per traced run: wall = self times + remainder

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in TRACED]
    return out + list(COUNTS) + list(TRACE_METRICS)


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    report: Optional[dict]
    t_spawn: float
    t_exit: float

    @property
    def setup_s(self) -> float:
        return self.report["t_setup"] - self.t_spawn


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("COLLIDEQ_THREADS", None)
    env.pop("PYTHONPATH", None)  # collideq comes from SRC and nowhere else
    # let the warm-up probe cache bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def spawn(extra: List[str], tag: str) -> ChildRun:
    """Run child.py to completion; time it from spawn to exit with its rusage."""
    report_path = OUT / f"report-{tag}.json"
    report_path.unlink(missing_ok=True)
    with open(OUT / f"stderr-{tag}.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(report_path), str(SRC)]
                                + extra, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return ChildRun(rc=proc.returncode, wall_s=t_exit - t_spawn,
                    cpu_s=usage.ru_utime + usage.ru_stime, report=report,
                    t_spawn=t_spawn, t_exit=t_exit)


def setup_probe(wl: Workload, seed: int, env: bool = False) -> ChildRun:
    extra = ["--setup-only"] + (["--env"] if env else [])
    run = spawn(extra + ["--"] + wl.cli_argv(seed, os.devnull), "setup")
    if run.report is None or run.rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {run.rc}; "
                           f"see {OUT / 'stderr-setup.txt'}")
    return run


def measured_run(wl: Workload, master_seed: int, reference: str,
                 traced: bool) -> Tuple[ChildRun, CheckResult, Optional[str]]:
    """One measured child run, its row check and its CSV text."""
    tag = f"{wl.name}-{'traced' if traced else 'plain'}"
    csv_path = OUT / f"{tag}.csv"
    csv_path.unlink(missing_ok=True)
    extra = ["--trace", str(OUT / f"spans-{wl.name}.json")] if traced else []
    run = spawn(extra + ["--"] + wl.cli_argv(master_seed, str(csv_path)), tag)
    text = csv_path.read_text() if run.report is not None and csv_path.exists() else None
    return run, check_output(wl, reference, text, run.rc, master_seed), text


def trace_accounting(run: ChildRun) -> Dict[str, float]:
    """Split a traced run's wall time into layer self times and the rest.

    The self times of all spans partition the root ``cli.main`` spans, so
    self times plus the measured time outside ``main`` (spawn to main, main
    to exit) must give the wall time back.
    """
    layers = run.report["layers"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in TRACED)
    outside = (run.report["t_main0"] - run.t_spawn) + (run.t_exit - run.report["t_main1"])
    return {
        "wall_s": run.wall_s,
        "self_total_s": self_total,
        "remainder_s": run.wall_s - self_total,
        "outside_main_s": outside,
        "gap_s": run.wall_s - (self_total + outside),
    }


def summarize_traced(traced: List[ChildRun], plain_wall: Optional[float]) -> dict:
    """Per-layer metrics (medians over traced runs) and the trace checks."""
    ok = [r for r in traced if r.report is not None]  # crashes fail the row check
    accounts = [trace_accounting(r) for r in ok]
    problems = []
    leftovers = sorted({w for r in ok for w in r.report["leftover_wrappers"]})
    if leftovers:
        problems.append(f"wrappers left in place: {', '.join(leftovers)}")
    bad_gaps = [a["gap_s"] for a in accounts if abs(a["gap_s"]) > ACCOUNTING_TOL_S]
    if bad_gaps:
        problems.append(f"trace accounting off by {bad_gaps} s")

    values: Dict[str, float] = {}
    if ok:
        values = {name: statistics.median([r.report["layers"][name] for r in ok])
                  for name in ok[0].report["layers"]}
        values["trace.wall_s"] = statistics.median([r.wall_s for r in ok])
        values["trace.remainder_s"] = statistics.median([a["remainder_s"] for a in accounts])
        if plain_wall is not None:
            values["trace.untraced_wall_s"] = plain_wall
            values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
    return {
        "layer_metrics": {name: {"value": values[name], "unit": unit, "n": len(ok)}
                          for name, unit, _ in per_layer_metrics() if name in values},
        "trace_accounting": accounts,
        "trace_problems": problems,
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    reference = read_reference(wl)
    environment = setup_probe(wl, seed, env=True)  # warm-up, timing discarded

    calibrations: List[float] = []  # one per plain run
    plain: List[ChildRun] = []
    traced: List[ChildRun] = []
    checks: List[CheckResult] = []
    passed: List[str] = []  # outputs that passed their row check
    # rounds of measured runs, each round between two calibrations; a new
    # round starts only if one as long as the last still ends within the
    # time given, or too few ran yet
    start = time.monotonic()
    cal = calibrate()
    while True:
        round_start = time.monotonic()
        round_plain = len(plain)
        for is_traced in ((False, True) if trace else (False,)):
            master = wl.master_seed(seed, len(plain) + len(traced))
            run, check, text = measured_run(wl, master, reference, is_traced)
            (traced if is_traced else plain).append(run)
            checks.append(check)
            if check.failed == 0:
                passed.append(text)
        cal_next = calibrate()
        # a run is scaled by the speed on both sides of it
        calibrations += [(cal * cal_next) ** 0.5] * (len(plain) - round_plain)
        cal = cal_next
        now = time.monotonic()
        if now + (now - round_start) > start + seconds and len(plain) >= wl.min_runs:
            break
    if wl.seeded:
        checks.append(check_pooled(wl, reference, passed))

    problems = [p for c in checks for p in c.problems]
    ok_plain = [(r, cal) for r, cal in zip(plain, calibrations) if r.report is not None]
    raw = {
        "wall_s": [(r.wall_s, cal) for r, cal in ok_plain],
        "setup_s": [(r.setup_s, cal) for r, cal in ok_plain],
        "units_per_s": [(wl.units / (r.wall_s - r.setup_s), cal) for r, cal in ok_plain],
        "cpu_s": [(r.cpu_s, cal) for r, cal in ok_plain],
        "peak_rss_mb": [(r.report["peak_rss_mb"], cal) for r, cal in ok_plain],
    }
    # a time scales with the calibration, a rate inversely, memory not at all
    power = {"wall_s": -1, "setup_s": -1, "units_per_s": 1, "cpu_s": -1, "peak_rss_mb": 0}
    samples = {name: [x * (cal / CAL_REF_S) ** power[name] for x, cal in pairs]
               for name, pairs in raw.items()}
    result = {
        "workload": wl.name,
        "seed": seed,
        "seed_used": wl.seeded,
        "units": wl.units,
        "unit_name": wl.unit_name,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads_pinned": int(BLAS_THREADS),
            "child_threads": environment.report["threads"],
            **environment.report["environment"],
        },
        "calibration": {"reference_s": CAL_REF_S,
                        "median_s": statistics.median(calibrations)},
        "samples": samples,
        "unscaled_samples": {name: [x for x, _ in pairs] for name, pairs in raw.items()},
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "problems": problems,
    }
    result["error_rate"] = result["failed"] / result["attempted"]
    result["metrics"] = {
        name: {"value": statistics.median(samples[name]), "unit": unit,
               "n": len(samples[name]),
               "unscaled": statistics.median(result["unscaled_samples"][name])}
        for name, unit, _ in END_TO_END if samples[name]}

    if trace:
        plain_wall = result["metrics"]["wall_s"]["unscaled"] if ok_plain else None
        result.update(summarize_traced(traced, plain_wall))
        problems += result["trace_problems"]

    result["correct"] = result["failed"] == 0 and not result.get("trace_problems")
    out_file = OUT / f"results-{wl.name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    result["results_file"] = str(out_file.relative_to(ROOT))
    return result


def print_summary(result: dict, trace: bool) -> None:
    wl = result["workload"]
    env = result["environment"]
    print(f"workload {wl}: nproc {env['nproc']}, {env['blas_name']} {env['blas_version']} "
          f"pinned to {env['blas_threads_pinned']} thread, numpy {env['numpy']}, "
          f"Python {env['python']}")
    if not result["seed_used"]:
        print(f"  seed {result['seed']} ignored: {wl} is a deterministic grid")
    cal = result["calibration"]
    print(f"  calibration kernel: median {cal['median_s'] * 1e3:.2f} ms, reference "
          f"{cal['reference_s'] * 1e3:.2f} ms; times below are scaled to the reference")
    for name, m in result["metrics"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}  (median of {m['n']}; "
              f"unscaled {m['unscaled']:.6g})")
    print(f"  {'error_rate':<14} {result['error_rate']:.6g}  "
          f"({result['failed']}/{result['attempted']} rows failed)")
    if trace:
        lm = result["layer_metrics"]
        ranked = sorted(((lm[f"{layer}.self_s"]["value"], layer) for layer in TRACED
                         if f"{layer}.self_s" in lm), reverse=True)
        if ranked:
            print("  layer self time: " + ", ".join(f"{n} {v:.3f} s" for v, n in ranked))
            print(f"  largest: {ranked[0][1]} (expected {WORKLOADS[wl].layer})")
        if "trace.overhead_s" in lm:
            print(f"  traced wall {lm['trace.wall_s']['value']:.3f} s, untraced "
                  f"{lm['trace.untraced_wall_s']['value']:.3f} s, tracing overhead "
                  f"{lm['trace.overhead_s']['value']:.3f} s, untraced remainder "
                  f"{lm['trace.remainder_s']['value']:.3f} s")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    print(f"  results: {result['results_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "collideq" / "cli.py").is_file():
        print(f"error: no collideq sources at {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_summary(result, bool(args.trace))

    key = "layer_metrics" if args.trace else "metrics"
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result[key].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
