"""Each benchmark workload's command line, run through ``cli.main``, must
reproduce its stored reference CSV under the benchmark's own row check.

A last-bit change that moves a pinned value (such as ``blp-scan``'s
``phi_opt``, picked out of a 2.5e-14 tie at the pole) then fails the suite,
not only the benchmark. The benchmark's modules are imported, not changed.
"""

import sys
from pathlib import Path

import pytest

from collideq import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

from check import check_output, read_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reproduces_its_reference(name, tmp_path, capsys):
    wl = WORKLOADS[name]
    seed = wl.master_seed(DEFAULT_SEED, 0)
    out = tmp_path / f"{name}.csv"
    rc = cli.main(wl.cli_argv(seed, str(out)))
    capsys.readouterr()
    text = out.read_text() if out.exists() else None
    result = check_output(wl, read_reference(wl), text, rc, seed)
    assert result.attempted > 0
    assert result.failed == 0, result.problems
