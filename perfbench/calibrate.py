"""Machine-speed calibration: a fixed kernel timed beside every measured run.

On a small shared VM the speed of the host drifts by 20-40% over tens of
seconds to minutes, as other tenants come and go; the slow phases often last
longer than a whole 30-second call, so neither more runs nor a best-of
removes them. What does repeat is the ratio of a run's time to the time of a
fixed kernel timed just before it, in the same phase. The benchmark reports
times in *reference seconds*: a run's time times ``CAL_REF_S / calibration``,
i.e. scaled to the speed at which the kernel takes ``CAL_REF_S``.

The kernel is the geometric mean of two small timings that stand for the
kinds of work collideq does: a pure-Python loop (the interpreter, the grid
loops, per-step bookkeeping and CSV formatting) and batched complex 8x8
products (small numpy operations, as in the trajectories and the channel
builds). A third piece, 64x64 eigendecompositions, was left out: it slowed
in the host's slow phases by more than any workload did, so it
over-corrected. The kernel uses fixed data, never the program, so no change
to collideq moves it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in the measured child; set before numpy loads BLAS

import time  # noqa: E402

import numpy as np  # noqa: E402

# the kernel's time on a 2-vCPU Intel Xeon VM at 2.1 GHz (OpenBLAS 0.3.31,
# one thread, numpy 2.4, Python 3.11): the 10th percentile of 300 timings in
# a row. Only a scale: it makes reference seconds close to real ones there.
CAL_REF_S = 0.0241

_RNG = np.random.default_rng(0)
_BATCH = _RNG.standard_normal((2000, 8, 8)) + 1j * _RNG.standard_normal((2000, 8, 8))


def _python_loop() -> None:
    total = 0
    for i in range(250_000):
        total += i * i


def _batched_products() -> None:
    x = _BATCH
    for _ in range(10):
        x = np.matmul(_BATCH, x.conj().transpose(0, 2, 1)) * 0.1


KERNELS = (_python_loop, _batched_products)


def calibrate() -> float:
    """Seconds the kernel takes now (geometric mean of its three parts)."""
    product = 1.0
    for kernel in KERNELS:
        t0 = time.perf_counter()
        kernel()
        product *= time.perf_counter() - t0
    return product ** (1.0 / len(KERNELS))
