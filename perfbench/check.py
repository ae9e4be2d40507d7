"""Correctness gate: compare a workload's CSV with its stored reference.

Numeric fields must agree to a relative 1e-9 with an absolute floor of
1e-12; status fields and other text must match exactly, and so must the
seed-dependent columns at the reference seed. A run whose exit
code differs from the reference run's, or that wrote no CSV, counts every
reference row as failed. ``tpm-ensemble`` also gets the statistical check
of the c08 acceptance test, judged once per call for any seed on the
ensemble pooled from all of the call's runs (each run is an independent
chunk of trajectories; one chunk is too small for the check).
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from workloads import DEFAULT_SEED, Workload

REL_TOL = 1e-9
ABS_TOL = 1e-12
EXACT_COLUMNS = ("status",)
MIN_COVERAGE = 0.95   # share of steps with |mean - unconditional| < 3 SE
N_SIGMA = 3.0
MAX_PROBLEMS = 5


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


Table = Tuple[List[str], List[str], List[List[str]]]


def parse_csv(text: str) -> Table:
    """(comment lines, header, rows) of a collideq CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return comments, [], []
    return comments, body[0], body[1:]


def read_reference(workload: Workload) -> str:
    with gzip.open(workload.reference, "rt", newline="") as fh:
        return fh.read()


def values_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)


def pool_ensembles(header: List[str], chunks: List[List[List[str]]]) -> List[Tuple[float, float, float]]:
    """(mean, standard error, exact heat) per step of the ensemble made of
    equal-size, independent chunks, each given by its CSV rows.

    A chunk of m trajectories gives its sum m * mean and, from its standard
    error (sample variance over m - 1), its sum of squares; the pooled
    ensemble's mean and standard error follow as ensemble_mean_heat would
    compute them on all trajectories at once.
    """
    i_m = header.index("m")
    i_mean = header.index("mean_stoch_heat")
    i_se = header.index("std_error")
    i_exact = header.index("unconditional_heat")
    pooled = []
    for step in range(len(chunks[0])):
        rows = [chunk[step] for chunk in chunks]
        total = sum_h = sum_h2 = 0.0
        for row in rows:
            m, mean, se = int(row[i_m]), float(row[i_mean]), float(row[i_se])
            total += m
            sum_h += m * mean
            sum_h2 += (m - 1) * m * se * se + m * mean * mean
        mean = sum_h / total
        var = max(sum_h2 - total * mean * mean, 0.0) / (total - 1)
        pooled.append((mean, math.sqrt(var / total), float(rows[0][i_exact])))
    return pooled


def coverage_failures(pooled: List[Tuple[float, float, float]]) -> Tuple[float, Set[int]]:
    """Share of steps whose mean stochastic heat lies within 3 SE of the
    exact unconditional heat, and the indices of the steps outside it."""
    outside = {i for i, (mean, se, exact) in enumerate(pooled)
               if not abs(mean - exact) < N_SIGMA * se}
    coverage = 1.0 - len(outside) / len(pooled) if pooled else 0.0
    return coverage, outside


def check_pooled(workload: Workload, reference: str, texts: List[str]) -> CheckResult:
    """The c08 check on the ensemble pooled from a call's run outputs.

    Only outputs that passed their own row check are given; the pooled table
    counts as one more output of the reference's length.
    """
    _, header, ref_rows = parse_csv(reference)
    chunks = [parse_csv(text)[2] for text in texts]
    if not chunks:
        return CheckResult(len(ref_rows), len(ref_rows), ["no run to pool"])
    coverage, outside = coverage_failures(pool_ensembles(header, chunks))
    m = sum(int(chunk[0][header.index("m")]) for chunk in chunks)
    if coverage >= MIN_COVERAGE:
        return CheckResult(len(ref_rows), 0)
    return CheckResult(len(ref_rows), len(outside), [
        f"pooled M={m}: coverage {coverage:.3f} < {MIN_COVERAGE} within {N_SIGMA:g} SE"])


def _expected_comments(workload: Workload, ref_comments: List[str], seed: int) -> List[str]:
    if not workload.seeded:
        return ref_comments
    return [f"# seed={seed}" if ln.startswith("# seed=") else ln for ln in ref_comments]


def check_output(workload: Workload, reference: str, csv_text: Optional[str],
                 returncode: int, seed: int) -> CheckResult:
    """Row check of one run's output; ``seed`` is the master seed it ran with."""
    ref_comments, ref_header, ref_rows = parse_csv(reference)
    n_ref = len(ref_rows)
    if csv_text is None or returncode != workload.expected_exit:
        return CheckResult(n_ref, n_ref, [
            f"run failed: exit code {returncode} (expected "
            f"{workload.expected_exit}), csv {'missing' if csv_text is None else 'written'}"])
    comments, header, rows = parse_csv(csv_text)
    if header != ref_header or comments != _expected_comments(workload, ref_comments, seed):
        return CheckResult(n_ref, n_ref, ["comment block or header differs from reference"])

    # seed-dependent columns: exact at the reference seed, otherwise left to
    # the statistical check
    seeded = {header.index(c) for c in workload.seeded_columns}
    exact = {header.index(c) for c in EXACT_COLUMNS if c in header}
    skip = set()
    if seed == DEFAULT_SEED:
        exact |= seeded
    else:
        skip = seeded

    failed: Set[int] = set()
    problems: List[str] = []
    for i, want in enumerate(ref_rows):
        got = rows[i] if i < len(rows) else None
        bad = None
        if got is None:
            bad = "missing"
        elif len(got) != len(want):
            bad = f"{len(got)} fields, expected {len(want)}"
        else:
            for j, (g, w) in enumerate(zip(got, want)):
                if j in skip:
                    continue
                ok = g == w if j in exact else values_match(g, w)
                if not ok:
                    bad = f"{header[j]}={g}, reference {w}"
                    break
        if bad is not None:
            failed.add(i)
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"row {i + 1}: {bad}")
    extra = max(0, len(rows) - n_ref)
    if extra:
        problems.append(f"{extra} rows beyond the reference")
    return CheckResult(n_ref + extra, len(failed) + extra, problems)
