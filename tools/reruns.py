"""``python3 tools/reruns.py``: run each CLI command of ``RERUNS`` twice, each time in a
fresh ``python -m collideq.cli`` process writing into a temporary directory, and check its
expectations and that the rerun writes the same bytes. Prints one line per command, then
each expectation not met, and exits 1 if there is one. ``OPENBLAS_CORETYPE`` passes through."""

import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

# a command's argv, exit code and data rows, how many cells read each value of counts,
# and its columns comma-joined, row by row
Rerun = namedtuple("Rerun", "argv exit rows counts columns values", defaults=({}, (), ()))

RERUNS = [
    # 8000-step cells cross many of evolve's chunk edges
    Rerun("dynamics --preset fig3", 0, 19200),
    # 800 cells built from the cached core pieces: a grid row reuses its collision
    Rerun("sweep --preset fig4", 0, 800),
    # beta_e = beta = inf is the beta = inf Gibbs state: delta_beta 0, not inf - inf
    Rerun("sweep --beta inf --dt-grid 0.05:0.3:3 --delta-grid 0:0.9:3", 0, 9, {"nan": 0}),
    # each setting I trajectory gathers its own step; 1100 cross 17 variate sub-block edges
    Rerun("trajectories --setting I --beta 2 --dt 0.1 --delta 0.95 --delta-units half-pi "
          "--traj 1100 --steps 40 --seed 7", 0, 40),
    # 10 000 trajectories cross ensemble_mean_heat's 8192-trajectory chunk edge
    Rerun("trajectories --preset fig5 --traj 10000 --seed 7", 0, 100),
    Rerun("limit-scan --beta 2 --r-list 5,0.1", 0, 8),
    # the delta 0.95 row does not converge
    Rerun("blp --setting I --beta 2 --dt 0.01 --delta-grid 0:0.95:4 --delta-units half-pi",
          1, 4, {"unconverged": 1}),
    # two rows sit at spectral gaps of 6.1e-7 and 3.8e-8, where rounding decides the sign
    Rerun("limit-scan --setting II --beta 40", 1, 8, columns=("r", "dt", "status"),
          values=("5,0.01,ok", "5,0.005,nonpositive", "5,0.0025,ok", "5,0.00125,nonpositive",
                  "0.1,0.01,ok", "0.1,0.005,ok", "0.1,0.0025,ok", "0.1,0.00125,ok")),
]

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))}


def unmet(rerun: Rerun) -> list[str]:
    """Every expectation of ``rerun`` that its two runs do not meet."""
    found, outputs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for run, out in enumerate((Path(tmp, "1.csv"), Path(tmp, "2.csv")), 1):
            proc = subprocess.run([sys.executable, "-m", "collideq.cli", *rerun.argv.split(),
                                   "--out", out], cwd=tmp, env=ENV, capture_output=True, text=True)
            if proc.returncode != rerun.exit:
                found.append(f"run {run} exits {proc.returncode}, not {rerun.exit}; "
                             + proc.stderr.strip())
            outputs.append(out.read_bytes() if out.exists() else None)
    if outputs[0] is None:
        return found + ["run 1 writes no CSV"]
    if outputs[1] != outputs[0]:
        found.append("the rerun writes other bytes")
    header, *rows = [line.split(",") for line in outputs[0].decode().splitlines()
                     if not line.startswith("#")]
    if len(rows) != rerun.rows:
        found.append(f"{len(rows)} data rows, not {rerun.rows}")
    for value, count in rerun.counts.items():
        cells = sum(row.count(value) for row in rows)
        if cells != count:
            found.append(f"{cells} cells read {value}, not {count}")
    seen = tuple(",".join(row[header.index(c)] for c in rerun.columns) for row in rows)
    if rerun.columns and seen != rerun.values:
        found.append(f"{','.join(rerun.columns)} read " + " ".join(seen))
    return found


def main() -> int:
    if sys.argv[1:]:
        sys.exit(f"{sys.argv[0]} takes no arguments")
    failures = []
    for rerun in RERUNS:
        start, found = time.perf_counter(), unmet(rerun)
        print(f"{'FAIL' if found else 'ok'}  {time.perf_counter() - start:5.2f} s  {rerun.argv}",
              flush=True)
        failures += [f"{rerun.argv}: {problem}" for problem in found]
    print("\n".join(failures) or f"all {len(RERUNS)} reruns meet every expectation")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
