"""One benchmark child: run a collideq command line in a fresh process.

    python3 perfbench/child.py REPORT SRC [--setup-only] [--env] [--trace SPANS] -- ARGV...

Imports ``collideq.cli`` from SRC, parses ARGV and resolves its
configuration (the end of set-up), then runs ``collideq.cli.main(ARGV)``.
Timestamps are ``time.monotonic()``, a clock shared by every process on the
machine, so the parent can subtract its spawn time. The JSON report goes to
REPORT; with ``--trace`` the run is traced and its spans go to SPANS. The
exit code is that of ``main``, or 70 if ``main`` raised.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time
import traceback

EXIT_CRASHED = 70


def _proc_status(key: str) -> int:
    """First number of a /proc/self/status line, e.g. "VmHWM" in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("src")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--trace")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--")
    opts = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    sys.path.insert(0, opts.src)
    import collideq.cli as cli

    cli.Resolved(cli.build_parser().parse_args(cli_argv))
    report = {"t_setup": time.monotonic(), "threads": _proc_status("Threads")}
    if opts.env:
        report["environment"] = _environment()

    rc = 0
    if not opts.setup_only:
        tracer = None
        if opts.trace:
            import tracing

            tracer = tracing.Tracer()
        # the main timestamps sit inside the patching, so installing and
        # removing the wrappers counts as time outside main
        with tracing.traced(tracer) if tracer else contextlib.nullcontext():
            report["t_main0"] = time.monotonic()
            try:
                rc = cli.main(cli_argv)
            except Exception:
                traceback.print_exc()
                rc = EXIT_CRASHED
            report["t_main1"] = time.monotonic()
        # this process's own high-water mark; wait4's ru_maxrss would also
        # count the parent's, inherited across exec
        report["peak_rss_mb"] = _proc_status("VmHWM") / 1024.0
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
            report["leftover_wrappers"] = tracing.leftover_wrappers()
            with open(opts.trace, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    report["rc"] = rc
    with open(opts.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
