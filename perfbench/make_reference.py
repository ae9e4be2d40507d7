"""Regenerate the stored reference CSVs from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once through child.py, at the default seed, and stores
its CSV as ``perfbench/reference/<workload>.csv.gz`` (gzip with a zero
timestamp, so unchanged output gives unchanged bytes). Only do this when a
change to collideq is meant to change the figures' numbers.
"""

from __future__ import annotations

import gzip
import sys

from run import OUT, spawn
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    OUT.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        csv_path = OUT / f"{name}-reference.csv"
        csv_path.unlink(missing_ok=True)
        run = spawn(["--"] + wl.cli_argv(DEFAULT_SEED, str(csv_path)), f"{name}-reference")
        if run.report is None or run.rc != wl.expected_exit or not csv_path.exists():
            print(f"{name}: exit code {run.rc}, expected {wl.expected_exit}", file=sys.stderr)
            return 1
        with open(wl.reference, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            gz.write(csv_path.read_bytes())
        print(f"{name}: wrote {wl.reference.relative_to(REFERENCE_DIR.parent.parent)} "
              f"in {run.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
